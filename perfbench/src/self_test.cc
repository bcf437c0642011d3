// Self-test of the open-loop load generator (loadgen.h) against a real
// in-process net::Server on an injected clock. Event time is fake: it
// stands still while frames keep arriving and jumps to the next due time
// once the socket has stayed quiet for a real poll interval. The server's
// evaluation worker is held (ServerOptions::eval_gate) at one slab until
// the fake clock has moved past the stall, so every slab queued behind it
// must show the stall in its latency, while slabs before it must not.
// The received digest must equal an in-process CatalogEngine replay that
// delivers the same matches in a different order and framing.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "catalog/catalog_engine.h"
#include "loadgen.h"
#include "net/server.h"
#include "query/parser.h"
#include "workload/paper_fixture.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kSlabs = 40;
constexpr size_t kStallSlab = 10;
constexpr int64_t kIntervalNs = 1'000'000;
constexpr int64_t kStallNs = 20 * kIntervalNs;
/// Real time the socket must stay quiet before fake time advances.
constexpr int kQuietMs = 20;

constexpr char kQuery[] =
    "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
    "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN 10s";

class FakeClock final : public LoadClock {
 public:
  int64_t NowNs() override {
    std::lock_guard<std::mutex> lock(mu_);
    return now_ns_;
  }

  ses::Result<bool> WaitReadable(int fd, int64_t deadline_ns) override {
    SES_ASSIGN_OR_RETURN(bool readable, ses::net::WaitReadable(fd, kQuietMs));
    if (readable) return true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      now_ns_ = std::max(now_ns_, deadline_ns);
    }
    advanced_.notify_all();
    return false;
  }

  /// Blocks until fake time reaches `t_ns` (bounded by a real timeout so a
  /// broken load generator fails the test instead of hanging it).
  bool WaitUntil(int64_t t_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    return advanced_.wait_for(lock, std::chrono::seconds(10),
                              [&] { return now_ns_ >= t_ns; });
  }

 private:
  std::mutex mu_;
  std::condition_variable advanced_;
  int64_t now_ns_ = 0;
};

/// Slab k: one complete match (A, B, X sharing ID k) and an unrelated A
/// past the window that releases it within the same slab.
std::vector<ses::Event> SlabEvents(size_t slab) {
  const int64_t base = static_cast<int64_t>(slab) * 100;
  const int64_t id = static_cast<int64_t>(slab);
  auto event = [&](int64_t offset, int64_t key, const char* label) {
    return ses::Event(base + offset, base + offset,
                      {ses::Value(key), ses::Value(label), ses::Value(1.0),
                       ses::Value("u")});
  };
  return {event(1, id, "A"), event(2, id, "B"), event(3, id, "X"),
          event(20, 1000 + id, "A")};
}

ses::Result<MatchDigest> ReplayDigest(const ses::Schema& schema) {
  SES_ASSIGN_OR_RETURN(ses::Pattern pattern, ses::ParsePattern(kQuery, schema));
  SES_ASSIGN_OR_RETURN(auto plan, ses::plan::CompilePlan(pattern));
  auto catalog = std::make_shared<ses::catalog::QueryCatalog>();
  SES_RETURN_IF_ERROR(catalog->Add("p", plan));
  std::vector<uint64_t> hashes;
  ses::catalog::CatalogOptions options;
  options.sink = [&](std::string_view id, ses::Match&& match) {
    hashes.push_back(MatchDigest::Hash(id, match));
  };
  SES_ASSIGN_OR_RETURN(auto engine,
                       ses::catalog::CatalogEngine::Create(catalog, options));
  std::vector<ses::Event> all;
  for (size_t slab = 0; slab < kSlabs; ++slab) {
    for (ses::Event& event : SlabEvents(slab)) all.push_back(std::move(event));
  }
  SES_RETURN_IF_ERROR(engine->PushBatch(all));
  SES_RETURN_IF_ERROR(engine->Flush());
  // Add in reverse delivery order: the digest must not care.
  MatchDigest digest;
  for (auto it = hashes.rbegin(); it != hashes.rend(); ++it) digest.Add(*it);
  return digest;
}

bool Check(bool condition, const std::string& what, std::string* why) {
  if (!condition && why->empty()) *why = what;
  return condition;
}

}  // namespace

bool RunLoadgenSelfTest(std::string* why) {
  why->clear();
  FakeClock clock;
  const ses::Schema schema = ses::workload::ChemotherapySchema();
  Schedule schedule;
  schedule.start_ns = kIntervalNs;
  schedule.interval_ns = kIntervalNs;
  for (size_t slab = 0; slab < kSlabs; ++slab) {
    std::vector<ses::Event> events = SlabEvents(slab);
    schedule.first_timestamp.push_back(events.front().timestamp());
    schedule.slab_events.push_back(static_cast<int64_t>(events.size()));
    schedule.payloads.push_back(
        ses::net::PushEventsRequest::EncodeRows(events, schema));
  }

  std::atomic<size_t> evaluated{0};
  ses::net::ServerOptions options;
  options.schema = schema;
  options.eval_gate = [&] {
    if (evaluated.fetch_add(1) == kStallSlab) {
      clock.WaitUntil(schedule.due_ns(kStallSlab) + kStallNs);
    }
  };
  ses::Result<std::unique_ptr<ses::net::Server>> server =
      ses::net::Server::Start(std::move(options));
  if (!Check(server.ok(), "server start", why)) return false;
  ses::Result<std::unique_ptr<OpenLoopConnection>> conn =
      OpenLoopConnection::Connect((*server)->port(), "self-test", &clock);
  if (!Check(conn.ok(), "connect", why)) return false;
  ses::Status status = (*conn)->SubmitPlan("p", kQuery);
  if (status.ok()) status = (*conn)->Run(schedule, nullptr);
  if (status.ok()) status = (*conn)->Flush(schedule);
  if (!Check(status.ok(), "load generator: " + status.ToString(), why)) {
    return false;
  }
  (*server)->Stop();

  const ConnectionLog& log = (*conn)->log();
  std::vector<int64_t> latency(kSlabs, -1);
  for (const ReceivedMatch& match : log.matches) {
    latency[match.slab] = match.latency_ns;
  }
  bool ok = Check(log.matches.size() == kSlabs,
                  "expected one match per slab, got " +
                      std::to_string(log.matches.size()),
                  why);
  ok &= Check(log.busy == 0 && log.errors == 0, "unexpected Busy/Error", why);
  for (size_t slab = 0; slab < kSlabs && ok; ++slab) {
    const int64_t released = schedule.due_ns(kStallSlab) + kStallNs;
    if (slab < kStallSlab) {
      ok &= Check(latency[slab] >= 0 && latency[slab] < kStallNs / 2,
                  "slab " + std::to_string(slab) +
                      " before the stall has latency " +
                      std::to_string(latency[slab]) + " ns",
                  why);
    } else if (schedule.due_ns(slab) < released) {
      ok &= Check(latency[slab] >= released - schedule.due_ns(slab),
                  "slab " + std::to_string(slab) +
                      " queued behind the stall has latency " +
                      std::to_string(latency[slab]) + " ns",
                  why);
    }
  }
  for (int64_t lag : log.lag_ns) {
    ok &= Check(lag == 0, "the fake-clock generator ran late", why);
  }

  ses::Result<MatchDigest> replay = ReplayDigest(schema);
  ok &= Check(replay.ok() && *replay == log.digest,
              "received digest " + log.digest.ToString() +
                  " differs from the replay's",
              why);
  MatchDigest partial;
  for (size_t i = 1; i < log.matches.size(); ++i) {
    partial.Add(log.matches[i].hash);
  }
  ok &= Check(!(partial == log.digest), "digest ignores a missing match", why);
  return ok;
}

}  // namespace perfbench
