// keyed_parallel: the partition_ablation thread-sweep shape on the sharded
// runtime. A group-variable pattern with complete ID equality (a, b, p+ on
// type C, x on B) over a stream with 64 moderately Zipf-skewed partition
// keys, run closed loop on the registry "parallel" engine with 3 worker
// shards (3 shards + the ingest thread = 4 cores). Only this workload
// exercises ingest routing, shard queues, workers, the watermark merge and
// incremental emission.

#include <algorithm>
#include <cstdio>
#include <span>

#include "closed_loop.h"
#include "exec/parallel_partitioned.h"
#include "common/random.h"
#include "workload/paper_fixture.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr char kQuery[] =
    "PATTERN {a, b, p+} -> {x} "
    "WHERE a.L = 'C' AND b.L = 'C' AND p.L = 'C' AND x.L = 'B' "
    "AND a.ID = b.ID AND a.ID = p.ID AND a.ID = x.ID "
    "AND b.ID = p.ID AND b.ID = x.ID AND p.ID = x.ID "
    "WITHIN 24h";

constexpr int kShards = 3;
constexpr int64_t kEvents = 40000;
/// Key slots live at once; slot ranks are Zipf(0.2)-weighted (the hottest
/// slot carries about twice the average load).
constexpr int kSlots = 64;
constexpr double kSkew = 0.2;
/// Each slot hands its traffic to a fresh key every kKeyLifetime, at a
/// slot-specific phase: old keys go idle, so the runtime evicts their
/// partitions and emits their matches while the stream runs (incremental
/// emission), and buffered state stays bounded however long the stream.
constexpr ses::Duration kKeyLifetime = ses::duration::Days(3);

/// Types C:B:N = 4:1:2 (N matches no variable and is dropped by the §4.5
/// filter at ingest), gaps of 1-5 minutes, V uniform in [0, 100).
std::vector<ses::Event> MakeStream(uint64_t seed) {
  ses::Random random(seed);
  const ses::ZipfDistribution slots(kSlots, kSkew);
  std::vector<ses::Event> events;
  events.reserve(kEvents);
  ses::Timestamp t = 0;
  for (int64_t i = 0; i < kEvents; ++i) {
    t += random.UniformInt(ses::duration::Minutes(1),
                           ses::duration::Minutes(5));
    const int64_t slot = slots.Sample(random) - 1;
    const int64_t generation =
        (t + slot * kKeyLifetime / kSlots) / kKeyLifetime;
    const uint64_t type = random.Uniform(7);
    events.emplace_back(
        i + 1, t,
        std::vector<ses::Value>{
            ses::Value(generation * kSlots + slot + 1),
            ses::Value(type < 4 ? "C" : type < 5 ? "B" : "N"),
            ses::Value(random.UniformDouble() * 100), ses::Value("u")});
  }
  return events;
}

ClosedLoopSpec MakeSpec(uint64_t seed, const std::string& engine) {
  ClosedLoopSpec spec;
  spec.query = kQuery;
  spec.schema = ses::workload::ChemotherapySchema();
  spec.engine = engine;
  spec.options.num_shards = kShards;
  spec.events = MakeStream(seed);
  return spec;
}

/// One pass straight through exec::ParallelPartitionedMatcher, doing what
/// the "parallel" engine does around it (the plan's §4.5 filter applied at
/// ingest), so the runtime's own statistics (per-shard busy time, merge
/// time) are visible. Spans: "pass", "exec.prefilter" and
/// "exec.push_batch" per slab, "exec.flush", "emit".
struct ExecPass {
  double wall_s = 0;
  MatchDigest digest;
  ses::exec::ParallelStats stats;
};

ses::Result<ExecPass> RunExecPass(const ClosedLoopSpec& spec,
                                  const ses::plan::CompiledPlan& plan,
                                  Tracer* tracer) {
  ExecPass result;
  ses::exec::ParallelOptions options;
  options.num_shards = kShards;
  options.matcher = plan.matcher_options();
  options.sink = [&](ses::Match&& match) {
    ScopedCharge charge(tracer, "emit");
    result.digest.Add("", match);
  };
  SES_ASSIGN_OR_RETURN(
      ses::exec::ParallelPartitionedMatcher matcher,
      ses::exec::ParallelPartitionedMatcher::Create(
          plan.shared_automaton(), plan.partition_attribute(),
          std::move(options), plan.shared_prefilter()));
  const ses::EventPreFilter* filter =
      plan.shared_prefilter() != nullptr && plan.shared_prefilter()->active()
          ? plan.shared_prefilter().get()
          : nullptr;
  std::vector<ses::Event> passing;
  const std::span<const ses::Event> events(spec.events);
  const int64_t start = NowNs();
  {
    ScopedSpan pass(tracer, "pass");
    for (size_t begin = 0, slab = 0; begin < events.size();
         begin += kSlabEvents, ++slab) {
      std::span<const ses::Event> chunk =
          events.subspan(begin, std::min(kSlabEvents, events.size() - begin));
      if (filter != nullptr) {
        ScopedSpan span(tracer, "exec.prefilter", static_cast<int64_t>(slab));
        passing.clear();
        for (const ses::Event& event : chunk) {
          if (filter->ShouldProcess(event)) passing.push_back(event);
        }
        chunk = passing;
      }
      if (chunk.empty()) continue;
      ScopedSpan span(tracer, "exec.push_batch", static_cast<int64_t>(slab));
      SES_RETURN_IF_ERROR(matcher.PushBatch(chunk));
    }
    ScopedSpan span(tracer, "exec.flush");
    SES_RETURN_IF_ERROR(matcher.Flush(nullptr));
  }
  result.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  result.stats = matcher.stats();
  return result;
}

/// The single-threaded baseline and independent output path.
ses::Result<PassResult> PartitionedPass(const ClosedLoopSpec& spec) {
  ClosedLoopSpec serial = spec;
  serial.engine = "partitioned";
  return RunClosedPass(serial, SlabIndex(serial.events, kSlabEvents), nullptr);
}

}  // namespace

void RunKeyedParallel(const RunConfig& config, Report* report) {
  const ClosedLoopSpec spec = MakeSpec(config.seed, "parallel");
  std::printf("keyed_parallel: %zu events, %d key slots (Zipf %.1f), %d "
              "shards\n",
              spec.events.size(), kSlots, kSkew, kShards);
  std::vector<MatchDigest> passes =
      RunClosedLoopWorkload(spec, config, report);
  ses::Result<PassResult> expected = PartitionedPass(spec);
  if (!expected.ok()) {
    report->Fail("partitioned engine: " + expected.status().ToString());
    return;
  }
  CheckDigests(passes, expected->digest, "the partitioned engine", report);
}

void TraceKeyedParallel(const RunConfig& config, Report* report,
                        TraceCost* cost) {
  const ClosedLoopSpec spec = MakeSpec(config.seed, "parallel");
  const SlabIndex slabs(spec.events, kSlabEvents);
  const double events = static_cast<double>(spec.events.size());
  ses::Result<std::shared_ptr<const ses::plan::CompiledPlan>> plan =
      CompileSpec(spec);
  if (!plan.ok()) {
    ++report->attempted;
    report->Fail("plan: " + plan.status().ToString());
    return;
  }
  std::vector<double> untraced_s, traced_s, ingest_ns, busy_max_permille,
      utilisation, merge_ms, flush_ms, unattributed, parallel_s, serial_s;
  ses::exec::ParallelStats stats;
  MatchDigest digest;
  Tracer tracer;
  RepeatFor repeat(config.seconds, 3, 8);
  while (repeat.Next()) {
    ses::Result<ExecPass> plain = RunExecPass(spec, **plan, nullptr);
    const size_t from = tracer.spans().size();
    ses::Result<ExecPass> traced = RunExecPass(spec, **plan, &tracer);
    ses::Result<PassResult> parallel = RunClosedPass(spec, slabs, nullptr);
    ses::Result<PassResult> serial = PartitionedPass(spec);
    report->attempted += 4;
    if (!plain.ok() || !traced.ok() || !parallel.ok() || !serial.ok()) {
      report->Fail("keyed_parallel traced round failed");
      return;
    }
    untraced_s.push_back(plain->wall_s);
    traced_s.push_back(traced->wall_s);
    parallel_s.push_back(parallel->wall_s);
    serial_s.push_back(serial->wall_s);
    const auto self = tracer.SelfNsByName(from);
    const auto total = tracer.TotalNsByName(from);
    ingest_ns.push_back(static_cast<double>(Get(self, "exec.prefilter") +
                                            Get(self, "exec.push_batch")) /
                        events);
    flush_ms.push_back(static_cast<double>(Get(self, "exec.flush")) / 1e6);
    unattributed.push_back(static_cast<double>(Get(self, "pass")) /
                           static_cast<double>(Get(total, "pass")));
    stats = traced->stats;
    int64_t busy_sum = 0, busy_max = 0;
    for (const ses::exec::ShardStats& shard : stats.shards) {
      busy_sum += shard.busy_nanos;
      busy_max = std::max(busy_max, shard.busy_nanos);
    }
    busy_max_permille.push_back(1000.0 * static_cast<double>(busy_max) /
                                static_cast<double>(busy_sum));
    utilisation.push_back(static_cast<double>(busy_sum) /
                          (kShards * traced->wall_s * 1e9));
    merge_ms.push_back(stats.merge_seconds * 1e3);
    digest = serial->digest;
    for (const MatchDigest* other :
         {&plain->digest, &traced->digest, &parallel->digest}) {
      if (!(*other == serial->digest)) {
        report->Fail("keyed_parallel: " + other->ToString() +
                     " vs partitioned engine " + serial->digest.ToString());
      }
    }
  }
  std::printf("keyed_parallel traced: %d rounds; output %s on exec, parallel "
              "and partitioned paths\n",
              repeat.done(), digest.ToString().c_str());
  cost->untraced_s += Median(untraced_s);
  cost->traced_s += Median(traced_s);
  report->Set("exec.ingest_ns_per_event", Median(ingest_ns), "ns");
  report->Set("exec.worker_busy_share_max_permille", Median(busy_max_permille),
              "permille");
  report->Set("exec.worker_utilisation", Median(utilisation), "ratio");
  report->Set("exec.merge_ms", Median(merge_ms), "ms");
  report->Set("exec.flush_ms", Median(flush_ms), "ms");
  report->Set("exec.max_queue_depth",
              static_cast<double>(stats.max_queue_depth), "count");
  report->Set("exec.emitted_early_ratio",
              static_cast<double>(stats.matches_emitted_early) /
                  static_cast<double>(stats.matches_emitted),
              "ratio");
  report->Set("exec.max_buffered_matches",
              static_cast<double>(stats.max_buffered_matches), "count");
  report->Set("exec.speedup_vs_serial", Median(serial_s) / Median(parallel_s),
              "ratio");
  report->Set("unattributed_share.keyed_parallel", Median(unattributed),
              "ratio");
  WriteSpans(config, "keyed_parallel", tracer);
}

}  // namespace perfbench
