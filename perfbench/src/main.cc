// ses_perfbench: the libses benchmark (perfbench/README.md).
//
//   ses_perfbench --workload <paper_chemo|keyed_parallel|wire_catalog>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//   ses_perfbench --self-test
//
// --trace 0 runs the named workload with tracing off and reports its
// end-to-end metrics. --trace 1 runs the traced section of every workload,
// each measuring the layers it is home to, and reports every per-layer
// metric; the spans go to <dir>/spans-<workload>-seed<n>.jsonl. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::set<std::string> kWorkloads = {"paper_chemo", "keyed_parallel",
                                          "wire_catalog"};

const std::set<std::string> kEndToEnd = {
    "events_per_s",         "cpu_us_per_event", "match_latency_p50_us",
    "match_latency_p99_us", "setup_s",          "peak_rss_mb"};

/// Every per-layer metric, as listed in BENCHMARK.json.
const std::set<std::string> kPerLayer = {
    "core.ns_per_event",
    "core.instances_created",
    "core.max_simultaneous_instances",
    "core.conditions_evaluated",
    "core.filter_pass_ratio",
    "core.match_yield",
    "engine.ns_per_event",
    "engine.self_ns_per_event",
    "engine.flush_ms",
    "exec.ingest_ns_per_event",
    "exec.worker_busy_share_max_permille",
    "exec.worker_utilisation",
    "exec.merge_ms",
    "exec.flush_ms",
    "exec.max_queue_depth",
    "exec.emitted_early_ratio",
    "exec.max_buffered_matches",
    "exec.speedup_vs_serial",
    "catalog.ns_per_event.row",
    "catalog.ns_per_event.columnar",
    "catalog.self_ns_per_event",
    "catalog.index_skip_ratio",
    "catalog.prefilter_skip_ratio",
    "catalog.plans_per_event",
    "net.protocol.encode_ns_per_event.row",
    "net.protocol.encode_ns_per_event.columnar",
    "net.protocol.decode_ns_per_event.row",
    "net.protocol.decode_ns_per_event.columnar",
    "net.protocol.bytes_per_event.row",
    "net.protocol.bytes_per_event.columnar",
    "net.protocol.match_encode_ns_per_match",
    "net.protocol.match_decode_ns_per_match",
    "net.ack_rtt_us.p50",
    "net.ack_rtt_us.p99",
    "net.busy_ratio",
    "net.matches_per_frame",
    "net.residual_cpu_ns_per_event",
    "plan.compile_ms",
    "net.connect_ms",
    "net.submit_plan_ms",
    "loadgen.lag_p99_ms",
    "unattributed_share.paper_chemo",
    "unattributed_share.keyed_parallel",
    "unattributed_share.wire_catalog",
    "trace.overhead_ratio",
};

int Usage() {
  std::fprintf(stderr,
               "usage: ses_perfbench --workload <paper_chemo|keyed_parallel|"
               "wire_catalog> --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n"
               "       ses_perfbench --self-test\n");
  return 2;
}

void PrintJson(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool self_test = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || config.trace;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (self_test) {
    std::string why;
    const bool ok = RunLoadgenSelfTest(&why);
    std::printf("loadgen self-test: %s%s\n", ok ? "PASS" : "FAIL: ",
                why.c_str());
    return ok ? 0 : 1;
  }
  if (kWorkloads.count(config.workload) == 0 || !have_trace ||
      !(config.seconds > 0)) {
    return Usage();
  }

  Report report;
  if (!config.trace) {
    if (config.workload == "paper_chemo") RunPaperChemo(config, &report);
    if (config.workload == "keyed_parallel") RunKeyedParallel(config, &report);
    if (config.workload == "wire_catalog") RunWireCatalog(config, &report);
  } else {
    if (!config.trace_dir.empty()) {
      std::error_code error;
      std::filesystem::create_directories(config.trace_dir, error);
      std::filesystem::remove(config.trace_dir + "/spans-" + config.workload +
                                  "-seed" + std::to_string(config.seed) +
                                  ".jsonl",
                              error);
    }
    std::string why;
    ++report.attempted;
    if (!RunLoadgenSelfTest(&why)) report.Fail("loadgen self-test: " + why);
    // The traced sections share the run's time budget.
    RunConfig section = config;
    section.seconds = config.seconds / 3;
    TraceCost cost;
    TracePaperChemo(section, &report, &cost);
    TraceKeyedParallel(section, &report, &cost);
    TraceWireCatalog(section, &report, &cost);
    report.Set("trace.overhead_ratio",
               (cost.traced_s - cost.untraced_s) / cost.untraced_s, "ratio");
  }
  // A run that could not measure a metric (a section failed before it got
  // there, or a ratio had nothing to divide by) prints no result.
  for (const std::string& name : config.trace ? kPerLayer : kEndToEnd) {
    auto it = report.metrics.find(name);
    if (it == report.metrics.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
  }
  if (report.metrics.size() !=
      (config.trace ? kPerLayer : kEndToEnd).size()) {
    std::fprintf(stderr, "perfbench: unlisted metric reported\n");
    return 1;
  }
  if (report.attempted < 1) report.attempted = 1;
  std::printf("ops_failed_ratio = %.6f (%lld of %lld requests)\n",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  for (const auto& [name, metric] : report.metrics) {
    std::printf("  %-44s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::fflush(stdout);
  PrintJson(report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
