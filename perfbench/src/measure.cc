#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

size_t SlabOf(const std::vector<ses::Timestamp>& first_timestamp,
              ses::Timestamp timestamp) {
  auto it = std::upper_bound(first_timestamp.begin(), first_timestamp.end(),
                             timestamp);
  return it == first_timestamp.begin()
             ? 0
             : static_cast<size_t>(it - first_timestamp.begin()) - 1;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = std::min(
      values.size() - 1, static_cast<size_t>(q * static_cast<double>(
                                                     values.size() - 1) +
                                             0.5));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t MatchDigest::Hash(std::string_view plan_id, const ses::Match& match) {
  uint64_t h = Mix(plan_id.size());
  for (char c : plan_id) h = Mix(h ^ static_cast<unsigned char>(c));
  for (const auto& [variable, event] : match.SubstitutionKey()) {
    h = Mix(h ^ static_cast<uint64_t>(variable));
    h = Mix(h ^ static_cast<uint64_t>(event));
  }
  return h;
}

std::string MatchDigest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRId64 " matches, digest %016" PRIx64,
                count, sum);
  return buf;
}

void Report::Fail(const std::string& why) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

RepeatFor::RepeatFor(double seconds, int min_reps, int max_reps)
    : deadline_ns_(NowNs() + static_cast<int64_t>(seconds * 1e9)),
      min_reps_(min_reps),
      max_reps_(max_reps) {}

bool RepeatFor::Next() {
  if (done_ >= max_reps_) return false;
  if (done_ >= min_reps_ && NowNs() >= deadline_ns_) return false;
  ++done_;
  return true;
}

}  // namespace perfbench
