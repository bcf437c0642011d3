#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Clocks, resource probes, order statistics, the order-independent match
// digest and the result record shared by every workload of the benchmark.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/match.h"

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
int64_t NowNs();
/// User + system CPU time of the whole process, nanoseconds.
int64_t ProcessCpuNs();
/// Peak resident set size of the process so far, MiB.
double PeakRssMb();

/// Index of the slab carrying `timestamp`, given each slab's first
/// timestamp in increasing order.
size_t SlabOf(const std::vector<ses::Timestamp>& first_timestamp,
              ses::Timestamp timestamp);

/// Quantile `q` in [0, 1] of `values` (nearest rank on a sorted copy);
/// 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Order-independent digest of a match multiset: the wrapping sum of one
/// 64-bit hash per match over (plan id, canonical substitution key). Two
/// runs that deliver the same matches in any order, split over any number
/// of frames, have equal digests.
struct MatchDigest {
  int64_t count = 0;
  uint64_t sum = 0;

  /// Hash of one match; Add(h) with this value equals Add(plan, match).
  static uint64_t Hash(std::string_view plan_id, const ses::Match& match);
  void Add(uint64_t hash) {
    ++count;
    sum += hash;
  }
  void Add(std::string_view plan_id, const ses::Match& match) {
    Add(Hash(plan_id, match));
  }
  bool operator==(const MatchDigest& other) const {
    return count == other.count && sum == other.sum;
  }
  std::string ToString() const;
};

/// Everything one benchmark invocation reports.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    double value = 0;
    std::string unit;
  };
  /// Metrics printed in the final JSON line, by name.
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Marks the run incorrect and explains why on stderr.
  void Fail(const std::string& why);
};

/// Arguments of one invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string trace_dir;
};

/// Time-bounded repetition: true while fewer than `min_reps` repetitions
/// ran or the budget has not elapsed, and never more than `max_reps`.
class RepeatFor {
 public:
  RepeatFor(double seconds, int min_reps, int max_reps);
  bool Next();
  int done() const { return done_; }

 private:
  int64_t deadline_ns_;
  int min_reps_;
  int max_reps_;
  int done_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
