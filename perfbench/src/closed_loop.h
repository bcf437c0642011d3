#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

// The closed loop shared by the in-process workloads: one client
// pushes the generated stream into a registry engine as 256-event row slabs
// (engine::Engine::PushBatch), each slab only after the previous call
// returned, then flushes. Every match is timed from the start of the push
// of the slab that carries its last event to its arrival at the sink.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "event/event.h"
#include "event/schema.h"
#include "measure.h"
#include "plan/compiled_plan.h"
#include "trace.h"

namespace perfbench {

inline constexpr size_t kSlabEvents = 256;

/// Maps an event timestamp to the index of the slab that carries it.
class SlabIndex {
 public:
  SlabIndex(const std::vector<ses::Event>& events, size_t slab_events);
  size_t SlabOf(ses::Timestamp timestamp) const {
    return perfbench::SlabOf(first_timestamp_, timestamp);
  }
  size_t num_slabs() const { return first_timestamp_.size(); }

 private:
  std::vector<ses::Timestamp> first_timestamp_;
};

/// How a timed run turns its passes into the reported times.
enum class PassSummary {
  /// The median over passes of each pass's figure (events/s, CPU per event,
  /// latency p50 and p99). Right for pipelined engines, whose work moves
  /// between PushBatch calls from one pass to the next.
  kMedianPass,
  /// The best pass, composed step by step: each slab's PushBatch call (and
  /// the final Flush) contributes its minimum wall and CPU time over the
  /// passes, and each match arrives in the composed pass at its minimum
  /// offset into the step it arrived in. Only for engines that do a slab's
  /// work inside its own PushBatch call, where every pass repeats every
  /// step exactly. Host noise only ever slows a step down, so a step's
  /// minimum moves only if the noise hit that step in every pass. The run
  /// moves its thread to the next CPU before every pass, so that one busy
  /// CPU cannot slow every pass.
  kBestSteps,
};

/// What one workload feeds the closed loop.
struct ClosedLoopSpec {
  std::string query;
  ses::Schema schema;
  std::string engine;
  /// Template options; the sink is installed per pass.
  ses::engine::EngineOptions options;
  std::vector<ses::Event> events;
  PassSummary summary = PassSummary::kMedianPass;
};

/// Parses and compiles the spec's query (the plan compile step).
ses::Result<std::shared_ptr<const ses::plan::CompiledPlan>> CompileSpec(
    const ClosedLoopSpec& spec);

/// When a match reached the sink: during which step (PushBatch call, or
/// the final Flush) and how long after that step began.
struct Arrival {
  /// Slab that carries the match's last event.
  uint32_t end_slab = 0;
  /// Step i < number of slabs pushes slab i; the last step is the Flush.
  uint32_t step = 0;
  int64_t offset_ns = 0;
};

/// One pass over the whole stream with a fresh engine.
struct PassResult {
  /// Parse + compile + engine creation, seconds.
  double setup_s = 0;
  double wall_s = 0;
  int64_t cpu_ns = 0;
  /// Wall and process CPU time of each PushBatch call, slab by slab, and
  /// of the final Flush as the last entry, nanoseconds.
  std::vector<int64_t> step_wall_ns;
  std::vector<int64_t> step_cpu_ns;
  /// PushBatch and Flush calls made.
  int64_t requests = 0;
  MatchDigest digest;
  /// Match latencies in emission order, microseconds, including matches
  /// the final Flush released (an engine that holds matches back until end
  /// of stream shows it here).
  std::vector<double> latency_us;
  /// The same matches' arrivals.
  std::vector<Arrival> arrivals;
  /// How many of them only the final Flush released.
  int64_t flush_released = 0;
};

/// Sets up a fresh plan and engine and runs one pass. With a tracer,
/// records a "pass" root span, "engine.push_batch" per slab,
/// "engine.flush", and "emit" around the benchmark's own match bookkeeping.
ses::Result<PassResult> RunClosedPass(const ClosedLoopSpec& spec,
                                      const SlabIndex& slabs, Tracer* tracer);

/// Timed (untraced) run of a closed-loop workload: repeats passes for
/// `config.seconds`, fills the end-to-end metrics, and returns the digest
/// of every pass for the caller's output check. `spec.summary` says how
/// the passes' times are summarised.
std::vector<MatchDigest> RunClosedLoopWorkload(const ClosedLoopSpec& spec,
                                               const RunConfig& config,
                                               Report* report);

/// Checks every pass digest against the independent path's digest.
void CheckDigests(const std::vector<MatchDigest>& passes,
                  const MatchDigest& expected, const std::string& reference,
                  Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
