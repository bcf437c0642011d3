// Loopback integration tests for the network server (src/net/server.h):
// the end-to-end differential — matches delivered over the wire must be
// BYTE-identical (as CheckpointMatch encodings) to an in-process
// CatalogEngine run over the same plans and events, across engine kinds
// {serial, parallel x 4}, payload encodings {row, columnar}, and client
// counts {1, 8} — plus the connection lifecycle: disconnects free plans
// and pending matches, a full queue share answers Busy without dropping
// admitted slabs, idle connections are torn down on the injected clock,
// corrupt frames get a typed Error and a clean close without hurting
// other connections, a peer that stops reading its matches is dropped
// without stalling the others, the Stats packet carries field-for-field
// parity with the in-process engine, and Flush, Stats and Checkpoint are
// ordered after every slab admitted before them.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "core/match.h"
#include "event/columnar.h"
#include "event/relation.h"
#include "event/schema.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "storage/checkpoint.h"

namespace ses {
namespace {

using ::ses::catalog::CatalogEngine;
using ::ses::catalog::CatalogOptions;
using ::ses::catalog::CatalogStats;
using ::ses::catalog::PlanStats;
using ::ses::catalog::QueryCatalog;

Schema TestSchema() {
  Result<Schema> schema = ParseSchemaText("ID INT, L STRING, V DOUBLE");
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return *schema;
}

/// The stream of client `index`: timestamps 1..events, labels alternating
/// A<index>/B<index>, consecutive pairs sharing an ID join key — the same
/// shape ses_loadgen generates, so each client's plan matches only its own
/// events.
EventRelation ClientStream(int index, int events) {
  EventRelation relation(TestSchema());
  const std::string a = "A" + std::to_string(index);
  const std::string b = "B" + std::to_string(index);
  for (int i = 0; i < events; ++i) {
    relation.AppendUnchecked(
        static_cast<Timestamp>(i + 1),
        {Value(static_cast<int64_t>((i / 2) % 4)),
         Value(i % 2 == 0 ? a : b), Value(static_cast<double>(i))});
  }
  return relation;
}

std::string ClientQuery(int index) {
  const std::string c = std::to_string(index);
  return "PATTERN {a} -> {b}\nWHERE a.L = 'A" + c + "' AND b.L = 'B" + c +
         "' AND a.ID = b.ID\nWITHIN 1000s";
}

/// Canonical byte encoding of a match set: SortMatches order, one
/// CheckpointMatch blob per match. Byte equality here is the test's
/// definition of "identical matches".
std::string EncodeMatchSet(std::vector<Match> matches,
                           const Schema& schema) {
  SortMatches(&matches);
  std::string out;
  for (const Match& match : matches) {
    CheckpointMatch(match, schema, &out);
  }
  return out;
}

engine::EngineOptions EngineOptionsFor(const std::string& engine) {
  engine::EngineOptions options;
  if (engine == "parallel") options.num_shards = 4;
  return options;
}

/// The reference: an in-process CatalogEngine over the same plans and the
/// same per-client streams (each client's stream pushed in its own order;
/// plans are disjoint across clients, so per-plan match sets are
/// independent of interleaving).
std::map<std::string, std::string> InProcessReference(
    const std::string& engine, int clients, int events) {
  const Schema schema = TestSchema();
  auto catalog = std::make_shared<QueryCatalog>();
  std::map<std::string, std::vector<Match>> matches;
  CatalogOptions options;
  options.engine = engine;
  options.engine_options = EngineOptionsFor(engine);
  options.sink = [&](std::string_view plan_id, Match&& match) {
    matches[std::string(plan_id)].push_back(std::move(match));
  };
  for (int c = 0; c < clients; ++c) {
    Result<Pattern> pattern = ParsePattern(ClientQuery(c), schema);
    EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
    Result<std::shared_ptr<const plan::CompiledPlan>> plan =
        plan::CompilePlan(*pattern, plan::PlanOptions{});
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(
        catalog->Add("plan-" + std::to_string(c), std::move(*plan)).ok());
  }
  Result<std::unique_ptr<CatalogEngine>> built =
      CatalogEngine::Create(catalog, std::move(options));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  // Interleave the client streams slab-by-slab, as concurrent connections
  // would; each plan only sees its own client's labels either way.
  const int slab = 64;
  std::vector<EventRelation> streams;
  streams.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    streams.push_back(ClientStream(c, events));
  }
  for (int offset = 0; offset < events; offset += slab) {
    for (int c = 0; c < clients; ++c) {
      std::span<const Event> all(streams[c].events());
      std::span<const Event> part = all.subspan(
          offset, std::min<size_t>(slab, all.size() - offset));
      EXPECT_TRUE((*built)->PushBatch(part).ok());
    }
  }
  EXPECT_TRUE((*built)->Flush().ok());

  std::map<std::string, std::string> encoded;
  for (auto& [id, set] : matches) {
    encoded[id] = EncodeMatchSet(std::move(set), schema);
  }
  return encoded;
}

std::unique_ptr<net::Server> StartServer(net::ServerOptions options) {
  options.schema = TestSchema();
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

/// A gate for ServerOptions::eval_gate. Every slab or Flush the evaluator
/// pops announces itself (WaitArrival) at the gate; the first `holds` of
/// them then park there until Open(), later ones pass straight through.
/// Tests wait on arrivals instead of sleeping, so evaluator progress is
/// observed, not guessed.
class EvalGate {
 public:
  explicit EvalGate(int holds = std::numeric_limits<int>::max())
      : holds_(holds) {}

  std::function<void()> Hook() {
    return [this] {
      const bool hold = holds_.fetch_sub(1) > 0;
      arrivals_.release();
      if (hold) open_.wait(false);
    };
  }

  /// Waits for the next item to reach the gate; false after 30 s.
  bool WaitArrival() {
    return arrivals_.try_acquire_for(std::chrono::seconds(30));
  }

  void Open() {
    open_.store(true);
    open_.notify_all();
  }

  /// Opens the gate when it goes out of scope. Declare it after the server,
  /// so a failed assertion cannot leave ~Server joining a parked evaluator.
  class OpenOnExit {
   public:
    explicit OpenOnExit(EvalGate* gate) : gate_(gate) {}
    ~OpenOnExit() { gate_->Open(); }

   private:
    EvalGate* gate_;
  };

 private:
  std::atomic<int> holds_;
  std::counting_semaphore<> arrivals_{0};
  std::atomic<bool> open_{false};
};

Result<std::unique_ptr<net::Client>> ConnectClient(uint16_t port,
                                                   int busy_retry_ms = 0) {
  net::ClientOptions options;
  options.port = port;
  options.busy_retry_ms = busy_retry_ms;
  return net::Client::Connect(std::move(options));
}

// --- Differential: server matches == in-process matches, byte for byte ---

class DifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, bool, int>> {};

TEST_P(DifferentialTest, WireMatchesEqualInProcessMatches) {
  const auto& [engine, columnar, clients] = GetParam();
  const int events = 400;

  net::ServerOptions server_options;
  server_options.engine = engine;
  server_options.engine_options = EngineOptionsFor(engine);
  std::unique_ptr<net::Server> server = StartServer(std::move(server_options));

  // Concurrent connections, one thread each, loadgen's flush protocol:
  // everyone pushes, then client 0 runs the global Flush (queued behind
  // every admitted slab), then the rest Flush idempotently to collect
  // their MatchBatch frames.
  const Schema schema = TestSchema();
  std::vector<std::unique_ptr<net::Client>> clients_vec(clients);
  std::vector<Status> statuses(clients, Status::OK());
  std::atomic<int> pushed{0};
  std::atomic<bool> flushed{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result<std::unique_ptr<net::Client>> client =
          ConnectClient(server->port(), /*busy_retry_ms=*/2);
      if (!client.ok()) {
        statuses[c] = client.status();
        ++pushed;
        return;
      }
      clients_vec[c] = std::move(*client);
      net::Client& cl = *clients_vec[c];
      Status status = cl.SubmitPlan("plan-" + std::to_string(c),
                                    ClientQuery(c));
      const EventRelation stream = ClientStream(c, events);
      std::span<const Event> all(stream.events());
      for (size_t offset = 0; status.ok() && offset < all.size();
           offset += 64) {
        std::span<const Event> slab =
            all.subspan(offset, std::min<size_t>(64, all.size() - offset));
        Result<bool> ok =
            columnar
                ? cl.PushColumnar(ColumnarBatch::FromEvents(schema, slab))
                : cl.Push(slab);
        if (!ok.ok()) status = ok.status();
      }
      ++pushed;
      if (status.ok()) {
        if (c == 0) {
          while (pushed.load() < clients) std::this_thread::yield();
          status = cl.Flush();
          flushed.store(true);
        } else {
          while (!flushed.load()) std::this_thread::yield();
          status = cl.Flush();
        }
      } else if (c == 0) {
        flushed.store(true);
      }
      statuses[c] = status;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < clients; ++c) {
    ASSERT_TRUE(statuses[c].ok())
        << "client " << c << ": " << statuses[c].ToString();
  }

  const std::map<std::string, std::string> want =
      InProcessReference(engine, clients, events);
  for (int c = 0; c < clients; ++c) {
    const std::string id = "plan-" + std::to_string(c);
    std::map<std::string, std::vector<Match>> got =
        clients_vec[c]->TakeMatches();
    ASSERT_EQ(got.size(), 1u) << "client " << c;
    ASSERT_TRUE(got.contains(id)) << "client " << c;
    ASSERT_TRUE(want.contains(id)) << "client " << c;
    EXPECT_FALSE(got[id].empty()) << "client " << c;
    EXPECT_EQ(EncodeMatchSet(std::move(got[id]), schema), want.at(id))
        << "client " << c << " match bytes differ";
    clients_vec[c]->Close();
  }
  server->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    EnginesEncodingsClients, DifferentialTest,
    ::testing::Combine(::testing::Values("serial", "parallel"),
                       ::testing::Bool(), ::testing::Values(1, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             std::string(std::get<1>(info.param) ? "_columnar" : "_row") +
             "_" + std::to_string(std::get<2>(info.param)) + "c";
    });

// --- Connection lifecycle ---

TEST(ServerLifecycle, DisconnectFreesPlansAndPendingMatches) {
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  EXPECT_EQ(server->num_plans(), 1u);

  // Push a stream whose matches are still buffered (no flush), then
  // vanish: the server must release the plan and the undelivered matches.
  const EventRelation stream = ClientStream(0, 100);
  Result<bool> ok = (*client)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  (*client)->Close();

  for (int i = 0; i < 500 && server->num_plans() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->num_plans(), 0u);
  for (int i = 0; i < 500 && server->num_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->num_connections(), 0u);

  // The freed plan id is reusable by a new connection.
  Result<std::unique_ptr<net::Client>> next = ConnectClient(server->port());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE((*next)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  (*next)->Close();
  server->Stop();
}

TEST(ServerLifecycle, FullQueueAnswersBusyAndDropsNothing) {
  // Hold the evaluator at a gate so the connection's 1-slab share fills:
  // slab 1 is popped and held, slab 2 waits in the FIFO, slab 3 must be
  // Busy.
  EvalGate gate;
  net::ServerOptions options;
  options.queue_capacity = 1;
  options.eval_gate = gate.Hook();
  std::unique_ptr<net::Server> server = StartServer(std::move(options));
  // Declared after the server, so it opens the gate before ~Server joins
  // the evaluator even when an assertion below returns early.
  EvalGate::OpenOnExit open_on_exit(&gate);

  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());

  const EventRelation stream = ClientStream(0, 60);
  std::span<const Event> all(stream.events());
  Result<bool> first = (*client)->Push(all.subspan(0, 20));
  ASSERT_TRUE(first.ok() && *first);
  ASSERT_TRUE(gate.WaitArrival()) << "evaluator never popped slab 1";
  Result<bool> second = (*client)->Push(all.subspan(20, 20));
  ASSERT_TRUE(second.ok() && *second);
  Result<bool> third = (*client)->Push(all.subspan(40, 20));
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ASSERT_FALSE(*third) << "a full queue admitted slab 3";

  // Release the evaluator. Once slab 2 reaches the gate the share is
  // free, so the re-sent slab 3 is admitted: nothing admitted was lost,
  // and the retried slab completes the stream.
  gate.Open();
  ASSERT_TRUE(gate.WaitArrival()) << "evaluator never popped slab 2";
  Result<bool> retried = (*client)->Push(all.subspan(40, 20));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(*retried);
  ASSERT_TRUE((*client)->Flush().ok());

  std::map<std::string, std::vector<Match>> got = (*client)->TakeMatches();
  const Schema schema = TestSchema();
  EXPECT_EQ(EncodeMatchSet(std::move(got["plan-0"]), schema),
            InProcessReference("serial", 1, 60).at("plan-0"));
  (*client)->Close();
  server->Stop();
}

TEST(ServerLifecycle, IdleConnectionIsTornDownOnFakeClock) {
  std::atomic<int64_t> now_ms{0};
  net::ServerOptions options;
  options.idle_timeout_ms = 1000;
  options.clock_ms = [&] { return now_ms.load(); };
  std::unique_ptr<net::Server> server = StartServer(std::move(options));

  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  EXPECT_EQ(server->num_connections(), 1u);

  // Advance the fake clock past the idle bound; the reader polls in 25ms
  // slices of real time, so expiry is observed promptly.
  now_ms.store(60'000);
  for (int i = 0; i < 500 && server->num_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->num_connections(), 0u);
  EXPECT_EQ(server->num_plans(), 0u);
  server->Stop();
}

TEST(ServerLifecycle, CorruptFrameGetsTypedErrorAndCleanClose) {
  std::unique_ptr<net::Server> server = StartServer({});

  // A healthy connection that must survive its neighbor's corruption.
  Result<std::unique_ptr<net::Client>> healthy =
      ConnectClient(server->port());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_TRUE((*healthy)->SubmitPlan("plan-0", ClientQuery(0)).ok());

  // Handshake by hand, then send a frame with a flipped payload byte.
  Result<net::Socket> sock = net::ConnectTcp(server->port());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  net::HelloRequest hello;
  ASSERT_TRUE(net::WriteFrame(sock->fd(), net::PacketType::kHello,
                              hello.Encode())
                  .ok());
  Result<net::Frame> ack = net::ReadFrame(sock->fd());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, net::PacketType::kHelloAck);

  net::SubmitPlanRequest submit;
  submit.plan_id = "plan-x";
  submit.query = ClientQuery(1);
  std::string wire;
  net::EncodeFrame(net::PacketType::kSubmitPlan, submit.Encode(), &wire);
  wire[wire.size() / 2] = static_cast<char>(wire[wire.size() / 2] ^ 0x10);
  ASSERT_TRUE(net::WriteAll(sock->fd(), wire).ok());

  Result<net::Frame> reply = net::ReadFrame(sock->fd());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::PacketType::kError);
  Result<net::ErrorResponse> error =
      net::ErrorResponse::Decode(reply->payload);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, StatusCode::kCorruption);
  Result<net::Frame> eof = net::ReadFrame(sock->fd());
  EXPECT_FALSE(eof.ok());  // connection closed after the corrupt frame

  // The poisoned plan was never registered; the healthy connection works.
  EXPECT_EQ(server->num_plans(), 1u);
  const EventRelation stream = ClientStream(0, 40);
  Result<bool> ok =
      (*healthy)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(ok.ok() && *ok);
  ASSERT_TRUE((*healthy)->Flush().ok());
  EXPECT_FALSE((*healthy)->TakeMatches()["plan-0"].empty());
  (*healthy)->Close();
  server->Stop();
}

// --- Stats parity ---

TEST(ServerStats, WireStatsMatchInProcessFieldForField) {
  const int events = 300;
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  const EventRelation stream = ClientStream(0, events);
  Result<bool> ok = (*client)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(ok.ok() && *ok);
  ASSERT_TRUE((*client)->Flush().ok());
  Result<net::StatsResponse> wire = (*client)->Stats();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  // The same single-plan run, in process — in the server's lifecycle
  // order (engine over an initially empty catalog, plan added after), so
  // generation-dependent counters agree too.
  const Schema schema = TestSchema();
  auto catalog = std::make_shared<QueryCatalog>();
  CatalogOptions options;
  options.sink = [](std::string_view, Match&&) {};
  Result<std::unique_ptr<CatalogEngine>> engine =
      CatalogEngine::Create(catalog, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Result<Pattern> pattern = ParsePattern(ClientQuery(0), schema);
  ASSERT_TRUE(pattern.ok());
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(*pattern, plan::PlanOptions{});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(catalog->Add("plan-0", std::move(*plan)).ok());
  ASSERT_TRUE(
      (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  const CatalogStats want = (*engine)->stats();
  const std::vector<PlanStats> want_plans = (*engine)->plan_stats();

  EXPECT_EQ(wire->catalog.events_pushed, want.events_pushed);
  EXPECT_EQ(wire->catalog.num_plans, want.num_plans);
  EXPECT_EQ(wire->catalog.generation, want.generation);
  EXPECT_EQ(wire->catalog.snapshot_refreshes, want.snapshot_refreshes);
  EXPECT_EQ(wire->catalog.type_attribute, want.type_attribute);
  EXPECT_EQ(wire->catalog.distinct_conditions, want.distinct_conditions);
  EXPECT_EQ(wire->catalog.plan_conditions, want.plan_conditions);
  EXPECT_EQ(wire->catalog.events_considered, want.events_considered);
  EXPECT_EQ(wire->catalog.events_skipped_by_index,
            want.events_skipped_by_index);
  EXPECT_EQ(wire->catalog.events_skipped_by_prefilter,
            want.events_skipped_by_prefilter);
  EXPECT_EQ(wire->catalog.matches, want.matches);

  ASSERT_EQ(wire->plans.size(), want_plans.size());
  ASSERT_EQ(wire->plans.size(), 1u);
  const PlanStats& got_plan = wire->plans[0];
  const PlanStats& want_plan = want_plans[0];
  EXPECT_EQ(got_plan.id, want_plan.id);
  EXPECT_EQ(got_plan.matches, want_plan.matches);
  EXPECT_EQ(got_plan.events_considered, want_plan.events_considered);
  EXPECT_EQ(got_plan.events_skipped_by_index,
            want_plan.events_skipped_by_index);
  EXPECT_EQ(got_plan.events_skipped_by_prefilter,
            want_plan.events_skipped_by_prefilter);
  EXPECT_EQ(got_plan.engine.events_pushed, want_plan.engine.events_pushed);
  EXPECT_EQ(got_plan.engine.matches_emitted,
            want_plan.engine.matches_emitted);
  EXPECT_EQ(got_plan.engine.matches_emitted_early,
            want_plan.engine.matches_emitted_early);
  EXPECT_EQ(got_plan.engine.max_buffered_matches,
            want_plan.engine.max_buffered_matches);
  EXPECT_EQ(got_plan.engine.num_partitions,
            want_plan.engine.num_partitions);
  EXPECT_EQ(got_plan.engine.events_filtered,
            want_plan.engine.events_filtered);
  EXPECT_EQ(got_plan.engine.instances_created,
            want_plan.engine.instances_created);
  EXPECT_EQ(got_plan.engine.instances_pruned,
            want_plan.engine.instances_pruned);
  EXPECT_EQ(got_plan.engine.max_simultaneous_instances,
            want_plan.engine.max_simultaneous_instances);
  EXPECT_EQ(got_plan.engine.events_reordered,
            want_plan.engine.events_reordered);
  EXPECT_EQ(got_plan.engine.events_late, want_plan.engine.events_late);
  EXPECT_EQ(got_plan.engine.max_reorder_buffered,
            want_plan.engine.max_reorder_buffered);

  (*client)->Close();
  server->Stop();
}

// --- Flush semantics across connections ---

TEST(ServerFlush, GlobalFlushWaitsForOtherConnectionsAdmittedSlabs) {
  // Client B's slab is admitted but held at the gate when client A
  // flushes: A's Flush queues behind it, so B's slab is evaluated and its
  // matches delivered, not invalidated.
  EvalGate gate(/*holds=*/1);
  net::ServerOptions options;
  options.eval_gate = gate.Hook();
  std::unique_ptr<net::Server> server = StartServer(std::move(options));
  EvalGate::OpenOnExit open_on_exit(&gate);

  Result<std::unique_ptr<net::Client>> a = ConnectClient(server->port());
  Result<std::unique_ptr<net::Client>> b = ConnectClient(server->port());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  ASSERT_TRUE((*b)->SubmitPlan("plan-1", ClientQuery(1)).ok());

  const EventRelation stream_a = ClientStream(0, 40);
  const EventRelation stream_b = ClientStream(1, 40);
  Result<bool> pushed_b =
      (*b)->Push(std::span<const Event>(stream_b.events()));
  ASSERT_TRUE(pushed_b.ok() && *pushed_b);  // admitted, not yet evaluated
  ASSERT_TRUE(gate.WaitArrival()) << "the evaluator never popped B's slab";
  Result<bool> pushed_a =
      (*a)->Push(std::span<const Event>(stream_a.events()));
  ASSERT_TRUE(pushed_a.ok() && *pushed_a);

  std::future<Status> flushed =
      std::async(std::launch::async, [&] { return (*a)->Flush(); });
  // B probes with empty slabs (harmless if admitted) until one is refused
  // as flushed: from then on A's Flush is in the FIFO, behind B's slab.
  const std::vector<Event> none;
  Result<bool> probe = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (probe.ok() && std::chrono::steady_clock::now() < deadline) {
    probe = (*b)->Push(std::span<const Event>(none));
    if (probe.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Open();
  const Status flush_status = flushed.get();
  ASSERT_FALSE(probe.ok()) << "A's Flush was never queued";
  EXPECT_EQ(probe.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(flush_status.ok()) << flush_status.ToString();
  ASSERT_TRUE((*b)->Flush().ok());  // idempotent; drains B's matches

  const Schema schema = TestSchema();
  std::map<std::string, std::vector<Match>> got_b = (*b)->TakeMatches();
  EXPECT_FALSE(got_b["plan-1"].empty())
      << "B's admitted slab was lost by A's flush";
  EXPECT_EQ(EncodeMatchSet(std::move(got_b["plan-1"]), schema),
            InProcessReference("serial", 2, 40).at("plan-1"));

  // After the global flush, pushes on any connection fail typed.
  Result<bool> late = (*a)->Push(std::span<const Event>(stream_a.events()));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);

  (*a)->Close();
  (*b)->Close();
  server->Stop();
}

// --- Stats and Checkpoint are ordered after the connection's Ack'd slabs ---

constexpr int kHeldSlabs = 4;
constexpr int kHeldSlabEvents = 20;

/// Pushes kHeldSlabs Ack'd slabs of ClientStream(0) on `client`; the gate
/// holds the first one at the evaluator. Returns false on any failure.
bool PushHeldSlabs(net::Client* client, EvalGate* gate,
                   const EventRelation& stream) {
  std::span<const Event> all(stream.events());
  for (int k = 0; k < kHeldSlabs; ++k) {
    Result<bool> pushed =
        client->Push(all.subspan(k * kHeldSlabEvents, kHeldSlabEvents));
    if (!pushed.ok() || !*pushed) return false;
    if (k == 0 && !gate->WaitArrival()) return false;
  }
  return true;
}

TEST(ServerStats, StatsAnswerCoversEveryAckedSlab) {
  EvalGate gate(/*holds=*/1);
  net::ServerOptions options;
  options.eval_gate = gate.Hook();
  std::unique_ptr<net::Server> server = StartServer(std::move(options));
  EvalGate::OpenOnExit open_on_exit(&gate);
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  const EventRelation stream = ClientStream(0, kHeldSlabs * kHeldSlabEvents);
  ASSERT_TRUE(PushHeldSlabs(client->get(), &gate, stream));

  std::future<Result<net::StatsResponse>> stats =
      std::async(std::launch::async, [&] { return (*client)->Stats(); });
  // A negative check: correct code never answers while the gate is shut,
  // however loaded the machine, so the bound only limits the test's time.
  EXPECT_EQ(stats.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout)
      << "Stats was answered while an Ack'd slab was held";
  gate.Open();
  Result<net::StatsResponse> got = stats.get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->catalog.events_pushed, kHeldSlabs * kHeldSlabEvents);
  ASSERT_EQ(got->plans.size(), 1u);
  EXPECT_EQ(got->plans[0].engine.events_pushed,
            kHeldSlabs * kHeldSlabEvents);
  (*client)->Close();
  server->Stop();
}

TEST(ServerCheckpoint, CheckpointCoversEveryAckedSlab) {
  const std::string dir =
      ::testing::TempDir() + "/ses_server_ckpt_" +
      std::to_string(std::chrono::steady_clock::now()
                         .time_since_epoch()
                         .count());
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  EvalGate gate(/*holds=*/1);
  net::ServerOptions options;
  options.eval_gate = gate.Hook();
  options.checkpoint_dir = dir;
  std::unique_ptr<net::Server> server = StartServer(std::move(options));
  EvalGate::OpenOnExit open_on_exit(&gate);
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  const int events = kHeldSlabs * kHeldSlabEvents;
  const EventRelation stream = ClientStream(0, events);
  ASSERT_TRUE(PushHeldSlabs(client->get(), &gate, stream));

  std::future<Result<std::string>> written =
      std::async(std::launch::async, [&] { return (*client)->Checkpoint(); });
  EXPECT_EQ(written.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout)
      << "Checkpoint was answered while an Ack'd slab was held";
  gate.Open();
  Result<std::string> path = written.get();
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  // Matches written before the checkpoint's answer came with it.
  std::map<std::string, std::vector<Match>> got = (*client)->TakeMatches();
  (*client)->Close();
  server->Stop();

  // Restore the file in process: it must hold every Ack'd slab, so the
  // wire's matches plus what the restored engine's Flush releases equal
  // an uninterrupted run.
  const Schema schema = TestSchema();
  auto catalog = std::make_shared<QueryCatalog>();
  Result<Pattern> pattern = ParsePattern(ClientQuery(0), schema);
  ASSERT_TRUE(pattern.ok());
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(*pattern, plan::PlanOptions{});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(catalog->Add("plan-0", std::move(*plan)).ok());
  CatalogOptions restore_options;
  restore_options.sink = [&got](std::string_view id, Match&& match) {
    got[std::string(id)].push_back(std::move(match));
  };
  Result<std::unique_ptr<CatalogEngine>> engine =
      CatalogEngine::Create(catalog, std::move(restore_options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Result<std::string> bytes = storage::ReadCheckpointFile(*path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Result<storage::CheckpointReader> reader =
      storage::CheckpointReader::Parse(std::move(*bytes));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Status restored = (*engine)->Restore(*reader);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ((*engine)->stats().events_pushed, events);
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ(EncodeMatchSet(std::move(got["plan-0"]), schema),
            InProcessReference("serial", 1, events).at("plan-0"));
  std::filesystem::remove_all(dir);
}

// --- A peer that stops reading cannot stall the others ---

TEST(ServerLifecycle, PeerThatStopsReadingMatchesIsDisconnected) {
  net::ServerOptions options;
  options.write_timeout_ms = 200;
  std::unique_ptr<net::Server> server = StartServer(std::move(options));

  // The stalled peer: a tiny receive window (set before connect), a plan
  // whose 1000 matches each bind every later B9 event (megabytes of match
  // frames at the Flush), one slab, and no reads after its Ack.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  net::Socket stalled(fd);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  net::HelloRequest hello;
  ASSERT_TRUE(
      net::WriteFrame(fd, net::PacketType::kHello, hello.Encode()).ok());
  Result<net::Frame> hello_ack = net::ReadFrame(fd);
  ASSERT_TRUE(hello_ack.ok() &&
              hello_ack->type == net::PacketType::kHelloAck);
  net::SubmitPlanRequest submit;
  submit.plan_id = "flood";
  submit.query =
      "PATTERN {a} -> {b+}\nWHERE a.L = 'A9' AND b.L = 'B9'\nWITHIN 100000s";
  ASSERT_TRUE(
      net::WriteFrame(fd, net::PacketType::kSubmitPlan, submit.Encode()).ok());
  Result<net::Frame> submit_ack = net::ReadFrame(fd);
  ASSERT_TRUE(submit_ack.ok() && submit_ack->type == net::PacketType::kAck);
  const EventRelation flood = ClientStream(9, 2000);
  ASSERT_TRUE(net::WriteFrame(fd, net::PacketType::kPushEvents,
                              net::PushEventsRequest::EncodeRows(
                                  flood.events(), TestSchema()))
                  .ok());
  // The admission Ack, so the slab is queued ahead of the neighbor's Flush;
  // the flood's matches only come at that Flush.
  Result<net::Frame> push_ack = net::ReadFrame(fd);
  ASSERT_TRUE(push_ack.ok() && push_ack->type == net::PacketType::kAck);

  // A healthy neighbor's push and Flush complete with exact matches.
  Result<std::unique_ptr<net::Client>> healthy =
      ConnectClient(server->port());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_TRUE((*healthy)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  const EventRelation stream = ClientStream(0, 40);
  Result<bool> pushed =
      (*healthy)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(pushed.ok() && *pushed) << pushed.status().ToString();
  const Status flushed = (*healthy)->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_EQ(
      EncodeMatchSet(std::move((*healthy)->TakeMatches()["plan-0"]),
                     TestSchema()),
      InProcessReference("serial", 1, 40).at("plan-0"));

  for (int i = 0; i < 500 && server->num_connections() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->num_connections(), 1u);
  EXPECT_EQ(server->num_plans(), 1u);
  (*healthy)->Close();
  server->Stop();
}

}  // namespace
}  // namespace ses
