#include "closed_loop.h"

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <optional>
#include <span>

#include "engine/registry.h"
#include "query/parser.h"

namespace perfbench {

SlabIndex::SlabIndex(const std::vector<ses::Event>& events,
                     size_t slab_events) {
  for (size_t i = 0; i < events.size(); i += slab_events) {
    first_timestamp_.push_back(events[i].timestamp());
  }
}

ses::Result<std::shared_ptr<const ses::plan::CompiledPlan>> CompileSpec(
    const ClosedLoopSpec& spec) {
  SES_ASSIGN_OR_RETURN(ses::Pattern pattern,
                       ses::ParsePattern(spec.query, spec.schema));
  return ses::plan::CompilePlan(pattern);
}

ses::Result<PassResult> RunClosedPass(const ClosedLoopSpec& spec,
                                      const SlabIndex& slabs, Tracer* tracer) {
  PassResult result;
  // Step i < num_slabs() pushes slab i; the last step is the Flush.
  const size_t num_steps = slabs.num_slabs() + 1;
  std::vector<int64_t> step_start_ns(num_steps, 0);
  size_t step = 0;
  ses::engine::EngineOptions options = spec.options;
  options.sink = [&](ses::Match&& match) {
    const int64_t arrived = NowNs();
    ScopedCharge charge(tracer, "emit");
    result.digest.Add("", match);
    if (step + 1 == num_steps) ++result.flush_released;
    const size_t slab = slabs.SlabOf(match.end_time());
    result.latency_us.push_back(
        static_cast<double>(arrived - step_start_ns[slab]) / 1e3);
    result.arrivals.push_back(Arrival{static_cast<uint32_t>(slab),
                                      static_cast<uint32_t>(step),
                                      arrived - step_start_ns[step]});
  };

  const int64_t setup_start = NowNs();
  SES_ASSIGN_OR_RETURN(auto plan, CompileSpec(spec));
  SES_ASSIGN_OR_RETURN(
      std::unique_ptr<ses::engine::Engine> engine,
      ses::engine::CreateEngine(spec.engine, plan, std::move(options)));
  result.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  const std::span<const ses::Event> events(spec.events);
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t start = NowNs();
  {
    ScopedSpan pass(tracer, "pass");
    for (step = 0; step < num_steps; ++step) {
      const int64_t step_cpu = ProcessCpuNs();
      step_start_ns[step] = NowNs();
      ++result.requests;
      if (step < slabs.num_slabs()) {
        const size_t begin = step * kSlabEvents;
        const size_t count = std::min(kSlabEvents, events.size() - begin);
        ScopedSpan span(tracer, "engine.push_batch",
                        static_cast<int64_t>(step));
        SES_RETURN_IF_ERROR(engine->PushBatch(events.subspan(begin, count)));
      } else {
        ScopedSpan span(tracer, "engine.flush");
        SES_RETURN_IF_ERROR(engine->Flush());
      }
      result.step_wall_ns.push_back(NowNs() - step_start_ns[step]);
      result.step_cpu_ns.push_back(ProcessCpuNs() - step_cpu);
    }
  }
  result.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  result.cpu_ns = ProcessCpuNs() - cpu_start;
  return result;
}

namespace {

/// Matches followed per pass for the best-steps latencies: every stride-th
/// match in emission order, so that about this many are followed.
constexpr size_t kLatencySamples = size_t{1} << 15;

/// Lowers each element of `best` to the matching element of `values`; an
/// empty `best` takes `values` as they are.
void KeepMinimum(const std::vector<int64_t>& values,
                 std::vector<int64_t>* best) {
  if (best->empty()) {
    *best = values;
    return;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    (*best)[i] = std::min((*best)[i], values[i]);
  }
}

/// Pins the calling thread to one CPU after another of those it may run
/// on, and restores its CPU mask when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

}  // namespace

std::vector<MatchDigest> RunClosedLoopWorkload(const ClosedLoopSpec& spec,
                                               const RunConfig& config,
                                               Report* report) {
  const SlabIndex slabs(spec.events, kSlabEvents);
  const double events = static_cast<double>(spec.events.size());
  const bool best_steps = spec.summary == PassSummary::kBestSteps;
  std::vector<MatchDigest> digests;
  std::vector<double> setup_s, events_per_s, cpu_us, p50_us, p99_us;
  // kBestSteps: each step's minimum wall and CPU time so far, the matches
  // followed and each one's minimum arrival offset into its step so far.
  std::vector<int64_t> best_wall_ns, best_cpu_ns, best_offset_ns;
  std::vector<Arrival> followed;
  int64_t flush_released = 0;
  // A warm-up pass, not reported: lazy allocations and cold caches.
  ses::Result<PassResult> warmup = RunClosedPass(spec, slabs, nullptr);
  if (!warmup.ok()) {
    ++report->attempted;
    report->Fail("warm-up pass: " + warmup.status().ToString());
    return digests;
  }
  const size_t stride =
      std::max<size_t>(1, warmup->arrivals.size() / kLatencySamples);
  for (size_t m = 0; best_steps && m < warmup->arrivals.size(); m += stride) {
    followed.push_back(warmup->arrivals[m]);
  }
  const size_t matches_per_pass = warmup->latency_us.size();
  *warmup = PassResult();
  // A best-steps run moves its single thread to the next CPU every pass.
  // A thread the scheduler leaves on one CPU for the whole run takes the
  // whole run's figures from that CPU, and on a shared host one CPU can run
  // a third slower than the others for minutes; a step's minimum over
  // passes spread across every CPU does not.
  std::optional<CpuRotation> rotation;
  if (best_steps) rotation.emplace();
  RepeatFor repeat(config.seconds, 5, 100000);
  while (repeat.Next()) {
    if (rotation) rotation->Next();
    ses::Result<PassResult> pass = RunClosedPass(spec, slabs, nullptr);
    if (!pass.ok()) {
      ++report->attempted;
      report->Fail("pass: " + pass.status().ToString());
      return digests;
    }
    report->attempted += pass->requests;
    setup_s.push_back(pass->setup_s);
    events_per_s.push_back(events / pass->wall_s);
    cpu_us.push_back(static_cast<double>(pass->cpu_ns) / events / 1e3);
    p50_us.push_back(Quantile(pass->latency_us, 0.50));
    p99_us.push_back(Quantile(pass->latency_us, 0.99));
    flush_released += pass->flush_released;
    digests.push_back(pass->digest);
    if (!best_steps) continue;
    KeepMinimum(pass->step_wall_ns, &best_wall_ns);
    KeepMinimum(pass->step_cpu_ns, &best_cpu_ns);
    // Composing steps needs every pass to deliver the same matches in the
    // same steps, which holds for engines that do a slab's work inside its
    // PushBatch call.
    std::vector<int64_t> offsets;
    for (size_t m = 0; m < followed.size(); ++m) {
      const size_t index = m * stride;
      if (index >= pass->arrivals.size() ||
          pass->arrivals[index].step != followed[m].step ||
          pass->arrivals[index].end_slab != followed[m].end_slab) {
        report->Fail("match " + std::to_string(index) +
                     " arrived in another step than in the warm-up pass");
        return digests;
      }
      offsets.push_back(pass->arrivals[index].offset_ns);
    }
    KeepMinimum(offsets, &best_offset_ns);
  }
  rotation.reset();
  if (best_steps) {
    // step_start[i]: composed time from the pass start to the start of step
    // i. A followed match arrives in the composed pass at its minimum
    // offset into the step it arrived in.
    std::vector<int64_t> step_start(1, 0);
    for (int64_t wall : best_wall_ns) {
      step_start.push_back(step_start.back() + wall);
    }
    std::vector<double> latency_us;
    for (size_t m = 0; m < followed.size(); ++m) {
      latency_us.push_back(
          static_cast<double>(step_start[followed[m].step] -
                              step_start[followed[m].end_slab] +
                              best_offset_ns[m]) /
          1e3);
    }
    const int64_t cpu_ns =
        std::accumulate(best_cpu_ns.begin(), best_cpu_ns.end(), int64_t{0});
    report->Set("events_per_s",
                events / (static_cast<double>(step_start.back()) / 1e9),
                "1/s");
    report->Set("cpu_us_per_event",
                static_cast<double>(cpu_ns) / events / 1e3, "us");
    report->Set("match_latency_p50_us", Quantile(latency_us, 0.50), "us");
    report->Set("match_latency_p99_us", Quantile(latency_us, 0.99), "us");
  } else {
    report->Set("events_per_s", Median(events_per_s), "1/s");
    report->Set("cpu_us_per_event", Median(cpu_us), "us");
    report->Set("match_latency_p50_us", Median(p50_us), "us");
    report->Set("match_latency_p99_us", Median(p99_us), "us");
  }
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::printf(
      "closed loop: %d passes of %zu events on engine '%s', summarised as "
      "%s; whole-pass medians: %.0f events/s, %.3f us CPU per event, "
      "latency p50 %.0f us / p99 %.0f us over %zu matches per pass (%lld "
      "released by the final Flush)",
      repeat.done(), spec.events.size(), spec.engine.c_str(),
      best_steps ? "best steps" : "median pass", Median(events_per_s),
      Median(cpu_us), Median(p50_us), Median(p99_us), matches_per_pass,
      static_cast<long long>(flush_released / repeat.done()));
  if (best_steps) {
    std::printf("; best-steps latency over every %zu-th match (%zu)", stride,
                followed.size());
  }
  std::printf("\n");
  return digests;
}

void CheckDigests(const std::vector<MatchDigest>& passes,
                  const MatchDigest& expected, const std::string& reference,
                  Report* report) {
  for (size_t i = 0; i < passes.size(); ++i) {
    if (!(passes[i] == expected)) {
      report->Fail("pass " + std::to_string(i) + " delivered " +
                   passes[i].ToString() + ", " + reference + " gives " +
                   expected.ToString());
    }
  }
  std::printf("output check: %zu passes vs %s (%s): %s\n", passes.size(),
              reference.c_str(), expected.ToString().c_str(),
              report->correct ? "ok" : "MISMATCH");
}

}  // namespace perfbench
