#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads. Each has a timed entry point, which runs with
// tracing off and reports the end-to-end metrics, and a traced section,
// which measures the layers the workload is home to. A traced run
// (--trace 1) runs every traced section, so one run reports every
// per-layer metric.

#include "measure.h"

namespace perfbench {

/// Traced-vs-untraced wall time of one traced section, for
/// trace.overhead_ratio.
struct TraceCost {
  double untraced_s = 0;
  double traced_s = 0;
};

void RunPaperChemo(const RunConfig& config, Report* report);
void RunKeyedParallel(const RunConfig& config, Report* report);
void RunWireCatalog(const RunConfig& config, Report* report);

void TracePaperChemo(const RunConfig& config, Report* report,
                     TraceCost* cost);
void TraceKeyedParallel(const RunConfig& config, Report* report,
                        TraceCost* cost);
void TraceWireCatalog(const RunConfig& config, Report* report,
                      TraceCost* cost);

/// Self-test of the open-loop load generator (loadgen.h) against an
/// in-process server on an injected clock; on failure returns false and
/// explains in `*why`.
bool RunLoadgenSelfTest(std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
