// paper_chemo: the paper's Experiment 3 / Figure 13 shape. One plan, P6 =
// <{c, d, p+}, {b}> with all of c, d, p+ on medication type C (variables
// not mutually exclusive, Theorem 3 instance growth) and the §4.5 filter
// on, over the synthetic chemotherapy stream replicated to D4 (W ~ 2300 at
// tau = 264 h). Closed loop on the registry "serial" engine with row
// PushBatch slabs: the automaton executor does almost all the work, while
// routing, wire and shards do none.

#include <algorithm>
#include <cstdio>

#include "baseline/reference_matcher.h"
#include "closed_loop.h"
#include "core/matcher.h"
#include "query/parser.h"
#include "workloads.h"
#include "workload/chemotherapy.h"
#include "workload/paper_fixture.h"
#include "workload/replicate.h"
#include "workload/window.h"

namespace perfbench {
namespace {

constexpr char kP6[] =
    "PATTERN {c, d, p+} -> {b} "
    "WHERE c.L = 'C' AND d.L = 'C' AND p.L = 'C' AND b.L = 'B' "
    "WITHIN 264h";

/// Experiment 3's quick-scale ward (10 patients, 90 lab events per cycle)
/// followed for 16 cycles instead of 2, replicated four times: D4 with
/// W ~ 2300 at tau = 264 h.
constexpr int kPatients = 10;
constexpr int kCycles = 16;
constexpr int kReplication = 4;
/// Events of the prefix that is also checked against the clean-room
/// oracle (which is exponential; the whole stream would take minutes).
constexpr size_t kOraclePrefix = 2048;

/// P6's instance count grows exponentially with the number of treatment
/// cycles overlapping one window, so with the generator's random patient
/// start times the cost of a stream depends mostly on how the starts
/// happen to cluster. Here patient i starts at i/10 of the 21-day cycle
/// gap (a ward admitting at a steady rate): every window overlaps about
/// the same number of cycles, and the seed draws everything else (the
/// order and hour of each administration, every lab and blood value).
ses::Result<ses::EventRelation> MakeStream(uint64_t seed) {
  std::vector<ses::Event> events;
  for (int patient = 0; patient < kPatients; ++patient) {
    ses::workload::ChemotherapyOptions options;
    options.num_patients = 1;
    options.cycles_per_patient = kCycles;
    options.lab_measurements_per_cycle = 90;
    options.stagger = 0;
    options.seed = seed * 1000003 + static_cast<uint64_t>(patient);
    const ses::Timestamp offset =
        options.cycle_gap * patient / kPatients + 7 * patient;
    for (const ses::Event& event :
         ses::workload::GenerateChemotherapy(options)) {
      std::vector<ses::Value> values = {ses::Value(int64_t{patient + 1}),
                                        event.value(1), event.value(2),
                                        event.value(3)};
      events.emplace_back(0, event.timestamp() + offset, std::move(values));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ses::Event& a, const ses::Event& b) {
                     return a.timestamp() < b.timestamp();
                   });
  // The generator's own spacing rule: consecutive events at least a minute
  // apart, which leaves room for ReplicateDataset's tick-adjacent copies.
  ses::EventRelation base(ses::workload::ChemotherapySchema());
  ses::Timestamp last = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const ses::Timestamp t =
        i == 0 ? events[i].timestamp()
               : std::max(events[i].timestamp(), last + 60);
    last = t;
    base.AppendUnchecked(t, events[i].values());
  }
  return ses::workload::ReplicateDataset(base, kReplication);
}

ses::Result<ClosedLoopSpec> MakeSpec(uint64_t seed) {
  SES_ASSIGN_OR_RETURN(ses::EventRelation stream, MakeStream(seed));
  ClosedLoopSpec spec;
  spec.query = kP6;
  spec.schema = ses::workload::ChemotherapySchema();
  spec.engine = "serial";
  spec.events = stream.events();
  spec.summary = PassSummary::kBestSteps;
  std::printf("paper_chemo: P6 over D%d, %zu events, W = %lld (tau = 264h)\n",
              kReplication, spec.events.size(),
              static_cast<long long>(ses::workload::ComputeWindowSize(
                  stream, ses::duration::Hours(264))));
  return spec;
}

/// The stream's first kOraclePrefix events through the serial engine and
/// through baseline::ReferenceMatch, the clean-room oracle that shares no
/// code with the automaton.
ses::Status CheckPrefixAgainstOracle(const ClosedLoopSpec& spec) {
  ClosedLoopSpec prefix = spec;
  prefix.events.resize(std::min(kOraclePrefix, spec.events.size()));
  SES_ASSIGN_OR_RETURN(
      PassResult engine,
      RunClosedPass(prefix, SlabIndex(prefix.events, kSlabEvents), nullptr));
  SES_ASSIGN_OR_RETURN(ses::Pattern pattern,
                       ses::ParsePattern(prefix.query, prefix.schema));
  ses::EventRelation relation(prefix.schema);
  for (const ses::Event& event : prefix.events) {
    SES_RETURN_IF_ERROR(relation.Append(event));
  }
  SES_ASSIGN_OR_RETURN(std::vector<ses::Match> matches,
                       ses::baseline::ReferenceMatch(pattern, relation));
  MatchDigest oracle;
  for (const ses::Match& match : matches) oracle.Add("", match);
  std::printf("output check: first %zu events, serial engine %s vs "
              "baseline::ReferenceMatch %s\n",
              prefix.events.size(), engine.digest.ToString().c_str(),
              oracle.ToString().c_str());
  if (!(engine.digest == oracle)) {
    return ses::Status::Internal("serial engine differs from "
                                 "baseline::ReferenceMatch on the prefix");
  }
  return ses::Status::OK();
}

/// Replays the stream through a bare core::Matcher built from the same
/// plan, slab by slab ("core.push" spans), so the executor's cost and
/// counters are measured without the engine layer around it.
struct CoreReplay {
  double wall_s = 0;
  MatchDigest digest;
  ses::ExecutorStats stats;
};

ses::Result<CoreReplay> ReplayCore(const ClosedLoopSpec& spec,
                                   const ses::plan::CompiledPlan& plan,
                                   Tracer* tracer) {
  CoreReplay replay;
  ses::Matcher matcher(plan.shared_automaton(), plan.matcher_options(),
                       plan.shared_prefilter());
  std::vector<ses::Match> out;
  const int64_t start = NowNs();
  {
    ScopedSpan pass(tracer, "pass");
    for (size_t begin = 0, slab = 0; begin < spec.events.size();
         begin += kSlabEvents, ++slab) {
      const size_t end = std::min(spec.events.size(), begin + kSlabEvents);
      {
        // Releasing the previous slab's matches counts as core work, as
        // it does inside the engine.
        ScopedSpan span(tracer, "core.push", static_cast<int64_t>(slab));
        out.clear();
        for (size_t i = begin; i < end; ++i) {
          SES_RETURN_IF_ERROR(matcher.Push(spec.events[i], &out));
        }
      }
      ScopedSpan span(tracer, "emit");
      for (const ses::Match& match : out) replay.digest.Add("", match);
    }
    {
      ScopedSpan span(tracer, "core.flush");
      out.clear();
      matcher.Flush(&out);
    }
    ScopedSpan span(tracer, "emit");
    for (const ses::Match& match : out) replay.digest.Add("", match);
  }
  replay.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  replay.stats = matcher.stats();
  return replay;
}

}  // namespace

void RunPaperChemo(const RunConfig& config, Report* report) {
  ses::Result<ClosedLoopSpec> spec = MakeSpec(config.seed);
  if (!spec.ok()) {
    ++report->attempted;
    report->Fail("input generation: " + spec.status().ToString());
    return;
  }
  std::vector<MatchDigest> passes =
      RunClosedLoopWorkload(*spec, config, report);
  // Independent paths, after the timed region (and after peak_rss_mb): the
  // bare core::Matcher over the whole stream, and the oracle on a prefix.
  ses::Result<std::shared_ptr<const ses::plan::CompiledPlan>> plan =
      CompileSpec(*spec);
  ses::Result<CoreReplay> replay =
      plan.ok() ? ReplayCore(*spec, **plan, nullptr)
                : ses::Result<CoreReplay>(plan.status());
  if (!replay.ok()) {
    report->Fail("core::Matcher replay: " + replay.status().ToString());
    return;
  }
  CheckDigests(passes, replay->digest, "core::Matcher", report);
  if (ses::Status status = CheckPrefixAgainstOracle(*spec); !status.ok()) {
    report->Fail(status.ToString());
  }
}

void TracePaperChemo(const RunConfig& config, Report* report,
                     TraceCost* cost) {
  ses::Result<ClosedLoopSpec> spec = MakeSpec(config.seed);
  if (!spec.ok()) {
    ++report->attempted;
    report->Fail("input generation: " + spec.status().ToString());
    return;
  }
  const SlabIndex slabs(spec->events, kSlabEvents);
  const double events = static_cast<double>(spec->events.size());
  std::vector<double> compile_ms, untraced_s, traced_s, engine_ns, flush_ms,
      core_ns, unattributed;
  Tracer tracer;
  CoreReplay core;
  MatchDigest engine_digest;
  RepeatFor repeat(config.seconds, 3, 8);
  while (repeat.Next()) {
    ses::Result<PassResult> plain = RunClosedPass(*spec, slabs, nullptr);
    const size_t from = tracer.spans().size();
    ses::Result<PassResult> traced = RunClosedPass(*spec, slabs, &tracer);
    const auto total = tracer.TotalNsByName(from);
    const auto self = tracer.SelfNsByName(from);
    const int64_t compile_start = NowNs();
    ses::Result<std::shared_ptr<const ses::plan::CompiledPlan>> plan =
        CompileSpec(*spec);
    compile_ms.push_back(static_cast<double>(NowNs() - compile_start) / 1e6);
    const size_t core_from = tracer.spans().size();
    ses::Result<CoreReplay> replay =
        plan.ok() ? ReplayCore(*spec, **plan, &tracer)
                  : ses::Result<CoreReplay>(plan.status());
    report->attempted += 3;
    if (!plain.ok() || !traced.ok() || !replay.ok()) {
      report->Fail("traced pass failed: " +
                   (!plain.ok()    ? plain.status()
                    : !traced.ok() ? traced.status()
                                   : replay.status())
                       .ToString());
      return;
    }
    untraced_s.push_back(plain->wall_s);
    traced_s.push_back(traced->wall_s);
    const auto core_self = tracer.SelfNsByName(core_from);
    // Engine time excludes the benchmark's own sink bookkeeping ("emit"
    // spans nest inside the engine spans).
    const int64_t engine_total = Get(total, "engine.push_batch") +
                                 Get(total, "engine.flush") -
                                 Get(self, "emit");
    engine_ns.push_back(static_cast<double>(engine_total) / events);
    flush_ms.push_back(static_cast<double>(Get(self, "engine.flush")) / 1e6);
    core_ns.push_back(static_cast<double>(Get(core_self, "core.push") +
                                          Get(core_self, "core.flush")) /
                      events);
    unattributed.push_back(static_cast<double>(Get(self, "pass")) /
                           static_cast<double>(Get(total, "pass")));
    engine_digest = traced->digest;
    core = std::move(*replay);
    if (!(plain->digest == traced->digest) ||
        !(core.digest == traced->digest)) {
      report->Fail("paper_chemo: engine " + traced->digest.ToString() +
                   ", untraced " + plain->digest.ToString() +
                   ", core::Matcher replay " + core.digest.ToString());
    }
  }
  std::printf("paper_chemo traced: %d rounds; engine pass %.3f s untraced, "
              "core::Matcher replay %.3f s; engine %s vs replay %s\n",
              repeat.done(), Median(untraced_s), core.wall_s,
              engine_digest.ToString().c_str(), core.digest.ToString().c_str());
  cost->untraced_s += Median(untraced_s);
  cost->traced_s += Median(traced_s);
  const ses::ExecutorStats& s = core.stats;
  report->Set("plan.compile_ms", Median(compile_ms), "ms");
  report->Set("core.ns_per_event", Median(core_ns), "ns");
  report->Set("core.instances_created",
              static_cast<double>(s.instances_created), "count");
  report->Set("core.max_simultaneous_instances",
              static_cast<double>(s.max_simultaneous_instances), "count");
  report->Set("core.conditions_evaluated",
              static_cast<double>(s.conditions_evaluated), "count");
  report->Set("core.filter_pass_ratio",
              static_cast<double>(s.events_processed) /
                  static_cast<double>(s.events_seen),
              "ratio");
  report->Set("core.match_yield",
              static_cast<double>(s.matches_emitted) /
                  static_cast<double>(s.instances_created),
              "ratio");
  report->Set("engine.ns_per_event", Median(engine_ns), "ns");
  report->Set("engine.self_ns_per_event",
              Median(engine_ns) - Median(core_ns), "ns");
  report->Set("engine.flush_ms", Median(flush_ms), "ms");
  report->Set("unattributed_share.paper_chemo", Median(unattributed),
              "ratio");
  WriteSpans(config, "paper_chemo", tracer);
}

}  // namespace perfbench
