// wire_catalog: open loop over loopback into a fresh in-process
// net::Server (default options, "serial" per-plan engines; fresh per run
// because its Flush is terminal). Two connections, one generator thread
// each: connection 0 pushes row slabs, connection 1 columnar slabs, 256
// events each, on a fixed schedule at one constant aggregate rate. Each
// connection owns 16 plans <{a, b}, {x}> with a complete ID join and
// constant V conditions; every variable carries an equality on the
// connection's own label alphabet, so routing never depends on how the
// server shares one stream between connections. The type index skips 29
// of 32 plans per event and windows are short, so executor work stays
// small: every wire layer, the admission queue and the catalog fan-out
// carry the load.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "catalog/catalog_engine.h"
#include "common/random.h"
#include "engine/registry.h"
#include "loadgen.h"
#include "net/server.h"
#include "query/parser.h"
#include "workload/paper_fixture.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kConnections = 2;
constexpr int kPlansPerConnection = 16;
constexpr int kLabels = 16;
constexpr int64_t kKeys = 8;
constexpr size_t kSlab = 256;
/// Event time advances 4 ticks per event of a connection (plus jitter).
constexpr int64_t kTicksPerEvent = 4;
constexpr int kWindowTicks = 100;
/// Offered aggregate rate, events per second. The server sustains 300k to
/// 410k on the 4-core reference host depending on the host's load phase;
/// at 200k (two thirds of the low figure) its slow phases push the
/// evaluation worker into queueing and the latency figures swing by more
/// than 2x between runs, at 50k they stay steady (perfbench/README.md).
constexpr double kRate = 50'000;
/// Extra server set-ups per run, for the set-up time median.
constexpr int kSetupReps = 7;

constexpr char kTimedEngine[] = "perfbench-timed-serial";

std::string Label(int conn, int label) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%dl%d", conn, label % kLabels);
  return buf;
}

std::string PlanId(int conn, int plan) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%dp%d", conn, plan);
  return buf;
}

std::string Query(int conn, int plan) {
  return "PATTERN {a, b} -> {x} WHERE a.L = '" + Label(conn, plan) +
         "' AND b.L = '" + Label(conn, plan + 1) + "' AND x.L = '" +
         Label(conn, plan + 2) +
         "' AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID"
         " AND a.V < 60 AND b.V >= 20 AND x.V < 80 WITHIN " +
         std::to_string(kWindowTicks) + "s";
}

/// The events of slab `slab` of connection `conn`: a pure function of
/// (seed, conn, slab), so the replay regenerates exactly what was sent.
std::vector<ses::Event> SlabEvents(uint64_t seed, int conn, size_t slab) {
  ses::Random random(seed * 0x9e3779b97f4a7c15ULL + conn * 0x10001ULL +
                     slab * 0x100000001b3ULL + 1);
  std::vector<ses::Event> events;
  events.reserve(kSlab);
  for (size_t j = 0; j < kSlab; ++j) {
    const int64_t index = static_cast<int64_t>(slab * kSlab + j);
    std::vector<ses::Value> values;
    values.reserve(4);
    values.emplace_back(random.UniformInt(1, kKeys));
    values.emplace_back(Label(conn, static_cast<int>(random.Uniform(kLabels))));
    values.emplace_back(random.UniformDouble() * 100);
    values.emplace_back("u");
    events.emplace_back(index * kConnections + conn + 1,
                        index * kTicksPerEvent +
                            static_cast<int64_t>(random.Uniform(
                                kTicksPerEvent)) + 1,
                        std::move(values));
  }
  return events;
}

struct WireInput {
  ses::Schema schema = ses::workload::ChemotherapySchema();
  uint64_t seed = 0;
  Schedule schedules[kConnections];
  int64_t events = 0;
};

WireInput MakeInput(uint64_t seed, double seconds) {
  WireInput input;
  input.seed = seed;
  const size_t slabs = static_cast<size_t>(
      std::max(1.0, seconds * kRate / kConnections / kSlab));
  const int64_t interval =
      static_cast<int64_t>(1e9 * kSlab * kConnections / kRate);
  for (int conn = 0; conn < kConnections; ++conn) {
    Schedule& schedule = input.schedules[conn];
    schedule.interval_ns = interval;
    for (size_t slab = 0; slab < slabs; ++slab) {
      std::vector<ses::Event> events = SlabEvents(seed, conn, slab);
      schedule.first_timestamp.push_back(events.front().timestamp());
      schedule.slab_events.push_back(static_cast<int64_t>(events.size()));
      schedule.payloads.push_back(
          conn == 0 ? ses::net::PushEventsRequest::EncodeRows(events,
                                                              input.schema)
                    : ses::net::PushEventsRequest::EncodeColumnar(
                          ses::ColumnarBatch::FromEvents(input.schema,
                                                         events)));
      input.events += static_cast<int64_t>(events.size());
    }
  }
  std::printf("wire_catalog: %d connections x %d plans, %zu slabs of %zu "
              "events each, offered %.0f ev/s\n",
              kConnections, kPlansPerConnection, slabs, kSlab, kRate);
  return input;
}

/// A server with both connections open and every plan submitted.
struct Session {
  std::unique_ptr<ses::net::Server> server;
  std::unique_ptr<OpenLoopConnection> conns[kConnections];
  double setup_s = 0;
  std::vector<double> connect_ms;
  std::vector<double> submit_ms;
};

ses::Result<Session> OpenSession(const ses::Schema& schema) {
  Session session;
  const int64_t start = NowNs();
  ses::net::ServerOptions options;
  options.schema = schema;
  SES_ASSIGN_OR_RETURN(session.server,
                       ses::net::Server::Start(std::move(options)));
  for (int conn = 0; conn < kConnections; ++conn) {
    const int64_t connect_start = NowNs();
    SES_ASSIGN_OR_RETURN(
        session.conns[conn],
        OpenLoopConnection::Connect(session.server->port(),
                                    "perfbench-" + std::to_string(conn),
                                    SteadyLoadClock()));
    session.connect_ms.push_back(
        static_cast<double>(NowNs() - connect_start) / 1e6);
    for (int plan = 0; plan < kPlansPerConnection; ++plan) {
      const int64_t submit_start = NowNs();
      SES_RETURN_IF_ERROR(session.conns[conn]->SubmitPlan(PlanId(conn, plan),
                                                          Query(conn, plan)));
      session.submit_ms.push_back(
          static_cast<double>(NowNs() - submit_start) / 1e6);
    }
  }
  session.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return session;
}

/// One open-loop run: set-up, the schedule on both connections, then the
/// Flush barrier (connection 0) and a Stats barrier (connection 1) that
/// guarantees every match frame has been read.
struct LiveRun {
  std::vector<double> setup_s;
  std::vector<double> connect_ms;
  std::vector<double> submit_ms;
  ConnectionLog logs[kConnections];
  int64_t start_ns = 0;
  int64_t cpu_ns = 0;
  int64_t last_ack_ns = 0;
  double peak_rss_mb = 0;
};

ses::Result<LiveRun> RunLive(WireInput* input, Tracer* tracers) {
  LiveRun run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SES_ASSIGN_OR_RETURN(Session session, OpenSession(input->schema));
    run.setup_s.push_back(session.setup_s);
  }
  SES_ASSIGN_OR_RETURN(Session session, OpenSession(input->schema));
  run.setup_s.push_back(session.setup_s);
  run.connect_ms = session.connect_ms;
  run.submit_ms = session.submit_ms;

  // Connection 1 runs half an interval behind connection 0, so slabs
  // arrive evenly spread.
  run.start_ns = NowNs() + 20'000'000;
  for (int conn = 0; conn < kConnections; ++conn) {
    input->schedules[conn].start_ns =
        run.start_ns + conn * input->schedules[conn].interval_ns / kConnections;
  }
  const int64_t cpu_start = ProcessCpuNs();
  ses::Status statuses[kConnections];
  {
    std::vector<std::thread> threads;
    for (int conn = 0; conn < kConnections; ++conn) {
      threads.emplace_back([&, conn] {
        statuses[conn] = session.conns[conn]->Run(
            input->schedules[conn],
            tracers != nullptr ? &tracers[conn] : nullptr);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const ses::Status& status : statuses) SES_RETURN_IF_ERROR(status);
  SES_RETURN_IF_ERROR(session.conns[0]->Flush(input->schedules[0]));
  SES_RETURN_IF_ERROR(session.conns[1]->Stats(input->schedules[1]).status());
  run.cpu_ns = ProcessCpuNs() - cpu_start;
  run.peak_rss_mb = PeakRssMb();
  for (int conn = 0; conn < kConnections; ++conn) {
    run.logs[conn] = std::move(session.conns[conn]->log());
    run.last_ack_ns = std::max(run.last_ack_ns, run.logs[conn].last_ack_ns);
  }
  return run;
}

/// Wraps the registry "serial" engine and accumulates the time spent in
/// it, so the catalog's own share (routing, pre-filter, fan-out) is the
/// catalog time minus this. Registered under a benchmark-only name.
class TimedEngine final : public ses::engine::Engine {
 public:
  static inline int64_t engine_ns = 0;

  static ses::Result<std::unique_ptr<ses::engine::Engine>> Make(
      std::shared_ptr<const ses::plan::CompiledPlan> plan,
      ses::engine::EngineOptions options) {
    SES_ASSIGN_OR_RETURN(std::unique_ptr<ses::engine::Engine> inner,
                         ses::engine::CreateSerialEngine(plan, options));
    return std::unique_ptr<ses::engine::Engine>(
        new TimedEngine(std::move(plan), std::move(options), std::move(inner)));
  }

  std::string_view name() const override { return kTimedEngine; }

 protected:
  ses::Status PushOrdered(const ses::Event& event) override {
    const int64_t start = NowNs();
    ses::Status status = inner_->Push(event);
    engine_ns += NowNs() - start;
    return status;
  }
  ses::Status PushBatchOrdered(std::span<const ses::Event> events) override {
    const int64_t start = NowNs();
    ses::Status status = inner_->PushBatch(events);
    engine_ns += NowNs() - start;
    return status;
  }
  ses::Status FlushImpl() override {
    const int64_t start = NowNs();
    ses::Status status = inner_->Flush();
    engine_ns += NowNs() - start;
    return status;
  }
  void ResetImpl() override { inner_->Reset(); }
  ses::engine::EngineStats StatsImpl() const override {
    return inner_->stats();
  }
  ses::Status CheckpointImpl(std::string*) override {
    return ses::Status::Unimplemented("benchmark engine");
  }
  ses::Status RestoreImpl(const char**, const char*) override {
    return ses::Status::Unimplemented("benchmark engine");
  }

 private:
  TimedEngine(std::shared_ptr<const ses::plan::CompiledPlan> plan,
              ses::engine::EngineOptions options,
              std::unique_ptr<ses::engine::Engine> inner)
      : Engine(std::move(plan), std::move(options)), inner_(std::move(inner)) {}

  std::unique_ptr<ses::engine::Engine> inner_;
};

ses::Status RegisterTimedEngine() {
  static const ses::Status status =
      ses::engine::EngineRegistry::Global().Register(
          kTimedEngine, "perfbench: serial engine with time accounting",
          &TimedEngine::Make);
  return status;
}

/// The in-process replay: one CatalogEngine with the same 32 plans, fed the
/// regenerated slabs in due-time order (connection 0 by PushBatch,
/// connection 1 by PushColumnar, as the server does). It is the output
/// check of the live run and, with the timed engine and a tracer, the
/// traced replay: spans "catalog.push_rows" / "catalog.push_columnar" per
/// slab, "catalog.flush", "emit" around the benchmark's sink.
struct Replay {
  MatchDigest digests[kConnections];
  std::unordered_set<uint64_t> flush_released;
  ses::catalog::CatalogStats stats;
  double wall_s = 0;
  int64_t engine_ns = 0;
  /// Matches grouped per (plan, pushed slab), as the server frames them.
  std::vector<std::pair<std::string, std::vector<ses::Match>>> frames;
};

ses::Result<Replay> ReplayCatalog(const WireInput& input,
                                  const std::string& engine, Tracer* tracer,
                                  bool keep_frames) {
  Replay replay;
  bool flushing = false;
  std::map<std::string, std::vector<ses::Match>> pending;
  auto catalog = std::make_shared<ses::catalog::QueryCatalog>();
  for (int conn = 0; conn < kConnections; ++conn) {
    for (int plan = 0; plan < kPlansPerConnection; ++plan) {
      SES_ASSIGN_OR_RETURN(ses::Pattern pattern,
                           ses::ParsePattern(Query(conn, plan), input.schema));
      SES_ASSIGN_OR_RETURN(auto compiled, ses::plan::CompilePlan(pattern));
      SES_RETURN_IF_ERROR(catalog->Add(PlanId(conn, plan), compiled));
    }
  }
  ses::catalog::CatalogOptions options;
  options.engine = engine;
  options.sink = [&](std::string_view plan_id, ses::Match&& match) {
    ScopedCharge charge(tracer, "emit");
    const uint64_t hash = MatchDigest::Hash(plan_id, match);
    replay.digests[plan_id[1] - '0'].Add(hash);
    if (flushing) replay.flush_released.insert(hash);
    if (keep_frames) pending[std::string(plan_id)].push_back(std::move(match));
  };
  SES_ASSIGN_OR_RETURN(auto catalog_engine,
                       ses::catalog::CatalogEngine::Create(catalog, options));
  auto take_frames = [&] {
    for (auto& [plan_id, matches] : pending) {
      if (!matches.empty()) replay.frames.emplace_back(plan_id,
                                                       std::move(matches));
      matches.clear();
    }
  };
  TimedEngine::engine_ns = 0;
  const size_t slabs = input.schedules[0].payloads.size();
  const int64_t start = NowNs();
  {
    ScopedSpan pass(tracer, "pass");
    for (size_t slab = 0; slab < slabs; ++slab) {
      for (int conn = 0; conn < kConnections; ++conn) {
        std::vector<ses::Event> events = SlabEvents(input.seed, conn, slab);
        if (conn == 0) {
          ScopedSpan span(tracer, "catalog.push_rows",
                          static_cast<int64_t>(slab));
          SES_RETURN_IF_ERROR(catalog_engine->PushBatch(events));
        } else {
          const ses::ColumnarBatch batch =
              ses::ColumnarBatch::FromEvents(input.schema, events);
          ScopedSpan span(tracer, "catalog.push_columnar",
                          static_cast<int64_t>(slab));
          SES_RETURN_IF_ERROR(catalog_engine->PushColumnar(batch));
        }
        take_frames();
      }
    }
    flushing = true;
    ScopedSpan span(tracer, "catalog.flush");
    SES_RETURN_IF_ERROR(catalog_engine->Flush());
  }
  take_frames();
  replay.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  replay.engine_ns = TimedEngine::engine_ns;
  replay.stats = catalog_engine->stats();
  return replay;
}

/// Checks the live run's per-connection digests against the replay, and
/// drops the matches only the final Flush released from the latency
/// samples.
void CheckLive(const LiveRun& run, const Replay& replay, Report* report,
               std::vector<ReceivedMatch>* push_released,
               int64_t* flush_released) {
  for (int conn = 0; conn < kConnections; ++conn) {
    const ConnectionLog& log = run.logs[conn];
    if (!(log.digest == replay.digests[conn])) {
      report->Fail("connection " + std::to_string(conn) + " received " +
                   log.digest.ToString() + ", CatalogEngine replay gives " +
                   replay.digests[conn].ToString());
    }
    for (const ReceivedMatch& match : log.matches) {
      if (replay.flush_released.count(match.hash) != 0) {
        ++*flush_released;
      } else {
        push_released->push_back(match);
      }
    }
  }
  std::printf("output check: per-connection digests vs CatalogEngine replay "
              "(%s | %s): %s\n",
              replay.digests[0].ToString().c_str(),
              replay.digests[1].ToString().c_str(),
              report->correct ? "ok" : "MISMATCH");
}

void CountOps(const LiveRun& run, Report* report) {
  for (const ConnectionLog& log : run.logs) {
    report->attempted += log.requests;
    report->failed += log.busy + log.errors;
  }
}

}  // namespace

void RunWireCatalog(const RunConfig& config, Report* report) {
  WireInput input = MakeInput(config.seed, config.seconds);
  ses::Result<LiveRun> run = RunLive(&input, nullptr);
  if (!run.ok()) {
    ++report->attempted;
    report->Fail("live run: " + run.status().ToString());
    return;
  }
  CountOps(*run, report);
  const double events = static_cast<double>(input.events);
  report->Set("events_per_s",
              events / (static_cast<double>(run->last_ack_ns - run->start_ns) /
                        1e9),
              "1/s");
  report->Set("cpu_us_per_event",
              static_cast<double>(run->cpu_ns) / events / 1e3, "us");
  report->Set("setup_s", Median(run->setup_s), "s");
  report->Set("peak_rss_mb", run->peak_rss_mb, "MB");
  ses::Result<Replay> replay = ReplayCatalog(input, "serial", nullptr, false);
  if (!replay.ok()) {
    report->Fail("replay: " + replay.status().ToString());
    return;
  }
  std::vector<ReceivedMatch> push_released;
  int64_t flush_released = 0;
  CheckLive(*run, *replay, report, &push_released, &flush_released);
  std::vector<double> latency_us;
  for (const ReceivedMatch& match : push_released) {
    latency_us.push_back(static_cast<double>(match.latency_ns) / 1e3);
  }
  report->Set("match_latency_p50_us", Quantile(latency_us, 0.50), "us");
  report->Set("match_latency_p99_us", Quantile(latency_us, 0.99), "us");
  int64_t busy = 0;
  for (const ConnectionLog& log : run->logs) busy += log.busy;
  std::printf("match latency: %zu push-released samples; flush-released "
              "matches %lld; Busy refusals %lld\n",
              latency_us.size(), static_cast<long long>(flush_released),
              static_cast<long long>(busy));
}

void TraceWireCatalog(const RunConfig& config, Report* report,
                      TraceCost* cost) {
  WireInput input = MakeInput(config.seed, config.seconds);
  if (ses::Status status = RegisterTimedEngine(); !status.ok()) {
    ++report->attempted;
    report->Fail("register timed engine: " + status.ToString());
    return;
  }
  Tracer live_tracers[kConnections];
  ses::Result<LiveRun> run = RunLive(&input, live_tracers);
  if (!run.ok()) {
    ++report->attempted;
    report->Fail("live run: " + run.status().ToString());
    return;
  }
  CountOps(*run, report);
  Tracer tracer;
  ses::Result<Replay> plain = ReplayCatalog(input, "serial", nullptr, false);
  ses::Result<Replay> traced =
      ReplayCatalog(input, kTimedEngine, &tracer, true);
  report->attempted += 2;
  if (!plain.ok() || !traced.ok()) {
    report->Fail("replay: " +
                 (plain.ok() ? traced.status() : plain.status()).ToString());
    return;
  }
  std::vector<ReceivedMatch> push_released;
  int64_t flush_released = 0;
  CheckLive(*run, *plain, report, &push_released, &flush_released);
  for (int conn = 0; conn < kConnections; ++conn) {
    if (!(traced->digests[conn] == plain->digests[conn])) {
      report->Fail("traced replay differs on connection " +
                   std::to_string(conn));
    }
  }
  cost->untraced_s += plain->wall_s;
  cost->traced_s += traced->wall_s;

  // net.protocol: encode and decode the run's own slabs and matches.
  const size_t slabs = input.schedules[0].payloads.size();
  const double per_conn_events = static_cast<double>(input.events) / 2;
  const size_t protocol_from = tracer.spans().size();
  int64_t bytes[kConnections] = {0, 0};
  for (size_t slab = 0; slab < slabs; ++slab) {
    for (int conn = 0; conn < kConnections; ++conn) {
      std::vector<ses::Event> events = SlabEvents(input.seed, conn, slab);
      std::string payload;
      if (conn == 0) {
        ScopedSpan span(&tracer, "protocol.encode.row",
                        static_cast<int64_t>(slab));
        payload = ses::net::PushEventsRequest::EncodeRows(events, input.schema);
      } else {
        const ses::ColumnarBatch batch =
            ses::ColumnarBatch::FromEvents(input.schema, events);
        ScopedSpan span(&tracer, "protocol.encode.columnar",
                        static_cast<int64_t>(slab));
        payload = ses::net::PushEventsRequest::EncodeColumnar(batch);
      }
      bytes[conn] += static_cast<int64_t>(payload.size());
      ScopedSpan span(&tracer,
                      conn == 0 ? "protocol.decode.row"
                                : "protocol.decode.columnar",
                      static_cast<int64_t>(slab));
      if (!ses::net::PushEventsRequest::Decode(payload, input.schema).ok()) {
        report->Fail("slab decode failed");
      }
    }
  }
  int64_t matches = 0;
  for (const auto& [plan_id, frame_matches] : traced->frames) {
    std::string payload;
    {
      ScopedSpan span(&tracer, "protocol.match_encode");
      payload = ses::net::MatchBatchResponse::Encode(plan_id, frame_matches,
                                                     input.schema);
    }
    ScopedSpan span(&tracer, "protocol.match_decode");
    if (!ses::net::MatchBatchResponse::Decode(payload, input.schema).ok()) {
      report->Fail("match decode failed");
    }
    matches += static_cast<int64_t>(frame_matches.size());
  }
  const auto protocol = tracer.SelfNsByName(protocol_from);
  const auto replay_self = tracer.SelfNsByName(0);
  const auto replay_total = tracer.TotalNsByName(0);

  const double events = static_cast<double>(input.events);
  const double per_match = static_cast<double>(std::max<int64_t>(1, matches));
  const double encode_row =
      Get(protocol, "protocol.encode.row") / per_conn_events;
  const double encode_col =
      Get(protocol, "protocol.encode.columnar") / per_conn_events;
  const double decode_row =
      Get(protocol, "protocol.decode.row") / per_conn_events;
  const double decode_col =
      Get(protocol, "protocol.decode.columnar") / per_conn_events;
  const double match_encode =
      Get(protocol, "protocol.match_encode") / per_match;
  const double match_decode =
      Get(protocol, "protocol.match_decode") / per_match;
  report->Set("net.protocol.encode_ns_per_event.row", encode_row, "ns");
  report->Set("net.protocol.encode_ns_per_event.columnar", encode_col, "ns");
  report->Set("net.protocol.decode_ns_per_event.row", decode_row, "ns");
  report->Set("net.protocol.decode_ns_per_event.columnar", decode_col, "ns");
  report->Set("net.protocol.bytes_per_event.row",
              static_cast<double>(bytes[0]) / per_conn_events, "B");
  report->Set("net.protocol.bytes_per_event.columnar",
              static_cast<double>(bytes[1]) / per_conn_events, "B");
  report->Set("net.protocol.match_encode_ns_per_match", match_encode, "ns");
  report->Set("net.protocol.match_decode_ns_per_match", match_decode, "ns");

  // catalog: the traced replay. Catalog spans exclude the nested "emit"
  // (benchmark sink) time; the timed engine's total includes it.
  const double catalog_row = Get(replay_self, "catalog.push_rows");
  const double catalog_col = Get(replay_self, "catalog.push_columnar");
  const double catalog_flush = Get(replay_self, "catalog.flush");
  const double engine_excl_sink =
      static_cast<double>(traced->engine_ns - Get(replay_total, "emit"));
  const double catalog_ns =
      (catalog_row + catalog_col + catalog_flush) / events;
  report->Set("catalog.ns_per_event.row", catalog_row / per_conn_events, "ns");
  report->Set("catalog.ns_per_event.columnar", catalog_col / per_conn_events,
              "ns");
  report->Set("catalog.self_ns_per_event",
              (catalog_row + catalog_col + catalog_flush - engine_excl_sink) /
                  events,
              "ns");
  const ses::catalog::CatalogStats& stats = traced->stats;
  const double pairs = static_cast<double>(stats.events_pushed) *
                       static_cast<double>(stats.num_plans);
  report->Set("catalog.index_skip_ratio",
              static_cast<double>(stats.events_skipped_by_index) / pairs,
              "ratio");
  report->Set("catalog.prefilter_skip_ratio",
              static_cast<double>(stats.events_skipped_by_prefilter) /
                  (pairs - static_cast<double>(stats.events_skipped_by_index)),
              "ratio");
  report->Set("catalog.plans_per_event",
              static_cast<double>(stats.events_considered) /
                  static_cast<double>(stats.events_pushed),
              "count");

  // net: the live run, seen from the client.
  std::vector<double> rtt_us, lag_ms;
  int64_t busy = 0, pushes = 0, frames = 0, received = 0;
  for (const ConnectionLog& log : run->logs) {
    for (int64_t ns : log.ack_rtt_ns) {
      rtt_us.push_back(static_cast<double>(ns) / 1e3);
    }
    for (int64_t ns : log.lag_ns) {
      lag_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    busy += log.busy;
    pushes += static_cast<int64_t>(log.lag_ns.size()) + log.busy;
    frames += log.match_frames;
    received += static_cast<int64_t>(log.matches.size());
  }
  const double cpu_ns_per_event = static_cast<double>(run->cpu_ns) / events;
  // Replayed per-event cost of every layer an event and its matches cross
  // in this process: client encode, server decode, catalog (with its
  // engines), server match encode, client match decode.
  const double match_share = static_cast<double>(matches) / events;
  const double replayed = (encode_row + encode_col) / 2 +
                          (decode_row + decode_col) / 2 + catalog_ns +
                          (match_encode + match_decode) * match_share;
  const double residual = cpu_ns_per_event - replayed;
  report->Set("net.ack_rtt_us.p50", Quantile(rtt_us, 0.50), "us");
  report->Set("net.ack_rtt_us.p99", Quantile(rtt_us, 0.99), "us");
  report->Set("net.busy_ratio",
              static_cast<double>(busy) / static_cast<double>(pushes), "ratio");
  report->Set("net.matches_per_frame",
              static_cast<double>(received) /
                  static_cast<double>(std::max<int64_t>(1, frames)),
              "count");
  report->Set("net.residual_cpu_ns_per_event", residual, "ns");
  report->Set("net.connect_ms", Median(run->connect_ms), "ms");
  report->Set("net.submit_plan_ms", Median(run->submit_ms), "ms");
  report->Set("loadgen.lag_p99_ms", Quantile(lag_ms, 0.99), "ms");
  report->Set("unattributed_share.wire_catalog", residual / cpu_ns_per_event,
              "ratio");
  std::printf("wire_catalog traced: live cpu %.0f ns/event, replayed layers "
              "%.0f ns/event (catalog %.0f), %lld matches in %lld frames\n",
              cpu_ns_per_event, replayed, catalog_ns,
              static_cast<long long>(received), static_cast<long long>(frames));
  for (int conn = 0; conn < kConnections; ++conn) {
    WriteSpans(config, "wire_catalog.client" + std::to_string(conn),
               live_tracers[conn]);
  }
  WriteSpans(config, "wire_catalog.replay", tracer);
}

}  // namespace perfbench
