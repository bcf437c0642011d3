#ifndef SES_NET_SERVER_H_
#define SES_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "common/result.h"
#include "engine/engine.h"
#include "event/schema.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace ses::net {

/// Runtime knobs of a Server, fixed at Start.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (Server::port()
  /// reports the choice — the test-suite default).
  uint16_t port = 0;
  /// The stream schema every connection's plans and events encode against;
  /// announced in the HelloAck.
  Schema schema;
  /// Registry name of the per-plan evaluator (engine/registry.h).
  std::string engine = "serial";
  /// Template for every per-plan engine; the sink field is ignored (the
  /// server installs its own demux sink).
  engine::EngineOptions engine_options;
  /// Shared-work toggles, forwarded to catalog::CatalogOptions.
  bool shared_type_index = true;
  bool shared_prefilter = true;
  std::string type_attribute;
  /// How many PushEvents slabs one connection may have waiting in the
  /// server's FIFO. One more turns the next PushEvents into a Busy
  /// response (backpressure) instead of unbounded buffering.
  size_t queue_capacity = 64;
  /// Close a connection that has sent nothing for this long (0 disables).
  /// Measured on `clock_ms`, so tests can drive it with a fake clock.
  int64_t idle_timeout_ms = 60'000;
  /// Bound on a single stalled socket read (a peer that stops mid-frame)
  /// and on a single blocked write (a peer that stops draining matches).
  int read_timeout_ms = 10'000;
  int write_timeout_ms = 10'000;
  /// Directory for Checkpoint requests; empty rejects them with
  /// FailedPrecondition.
  std::string checkpoint_dir;
  /// Millisecond clock for idle-timeout decisions; defaults to the steady
  /// clock. Tests inject a fake clock to expire idle connections
  /// deterministically (real sockets stay untouched).
  std::function<int64_t()> clock_ms;
  /// Test hook: when set, the evaluator calls it before evaluating each
  /// PushEvents slab and each Flush (and before nothing else). Lets tests
  /// hold the evaluator mid-drain to fill a connection's share of the FIFO
  /// and observe Busy and ordering deterministically.
  std::function<void()> eval_gate;
};

/// A long-running loopback TCP server evaluating standing queries over
/// client-pushed event streams: the network face of the multi-pattern
/// catalog runtime (docs/SERVER.md is the ops guide, net/protocol.h the
/// wire contract).
///
/// One catalog::CatalogEngine serves every connection as one stream, so
/// plans from different clients share the type index and pre-filter work
/// exactly as an in-process catalog run would. Threads: one reader per
/// connection speaks the protocol (handshake, then request dispatch), and
/// one evaluator thread owns the engine and drains one server-wide FIFO
/// in arrival order. A reader decodes PushEvents, admits the slab into the
/// FIFO (or answers Busy when its connection's share is full) and Acks the
/// admission; Flush, StatsRequest and Checkpoint are queued too, answered
/// by the evaluator, and the reader waits for that answer before reading
/// on. So "Flush runs after every admitted slab" and "Stats and Checkpoint
/// cover every Ack'd slab" hold by FIFO order. The evaluator writes the
/// matches of each engine call as MatchBatch frames to the connection that
/// submitted the matching plan; a MatchBatch write that fails (the peer
/// stopped draining for write_timeout_ms) shuts that connection down, so
/// one slow peer cannot stall evaluation for the others.
///
/// Plan ids are global across the server (AlreadyExists on a duplicate);
/// a connection owns the plans it submitted, and they are removed — once
/// its admitted slabs are evaluated — when it disconnects, times out idle,
/// or sends a malformed frame (a corrupt stream cannot be resynchronized,
/// so the server answers with a typed Error and closes).
class Server {
 public:
  /// Validates the options (schema non-empty, engine registered), binds
  /// the listening socket, and starts the accept loop and the evaluator.
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the ephemeral choice when options.port was 0).
  uint16_t port() const { return port_; }

  /// Stops accepting, closes every connection, and joins all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Currently live connections (monitoring and tests).
  size_t num_connections() const;

  /// Currently registered plans across all connections.
  size_t num_plans() const;

 private:
  /// Per-connection state. `reader` owns the socket's read side; replies
  /// are written under `write_mu` by the reader and by the evaluator.
  struct Connection {
    Socket sock;
    std::mutex write_mu;
    std::thread reader;
    /// Set by the evaluator once the connection's teardown item ran; the
    /// accept loop then reaps it.
    std::atomic<bool> done{false};
    /// Released by the evaluator after it answered this connection's
    /// Flush, StatsRequest or Checkpoint; the reader waits on it.
    std::binary_semaphore answered{0};
    /// Admitted slabs not yet popped by the evaluator (fifo_mu_).
    size_t queued_slabs = 0;
    /// First evaluation error of an admitted slab (fifo_mu_); surfaced as
    /// the Error reply to the connection's next PushEvents or Flush
    /// (admission Acks mean push errors are detected after the Ack).
    Status stream_status;
    /// Plans this connection submitted (owners_mu_).
    std::vector<std::string> plan_ids;
    /// Client-announced name, for log lines.
    std::string name;
    /// When the last frame arrived (options_.clock_ms), set at accept and
    /// on every received frame. Owned by the reader thread (the accept
    /// loop's initial store happens-before the thread starts); the idle
    /// timeout measures from here, NOT from when the reader resumes
    /// waiting — so a fake clock advanced while the reader is between
    /// frames still expires the connection.
    int64_t last_activity_ms = 0;
  };

  /// One unit of evaluator work, in arrival order across connections.
  /// kClose is the connection's teardown: its plans are released only
  /// after every slab it had admitted ahead of it.
  struct Item {
    enum class Kind { kPush, kFlush, kStats, kCheckpoint, kClose };
    Kind kind = Kind::kPush;
    std::shared_ptr<Connection> conn;
    PushEventsRequest push;
  };

  explicit Server(ServerOptions options);

  int64_t NowMs() const;

  void AcceptLoop();
  void ReapFinished();

  void ReaderLoop(std::shared_ptr<Connection> conn);
  void EvaluatorLoop();

  /// Reads the next frame, polling in short slices so stop and the idle
  /// deadline are observed; FailedPrecondition signals idle expiry.
  Result<Frame> ReadFrameIdle(Connection* conn);

  /// True when the handshake completed and the connection may proceed.
  bool Handshake(Connection* conn);
  /// Serves decoded frames until disconnect/error; returns on teardown.
  void ServeLoop(const std::shared_ptr<Connection>& conn);

  void HandleSubmitPlan(const std::shared_ptr<Connection>& conn,
                        const Frame& frame);
  void HandleRemovePlan(const std::shared_ptr<Connection>& conn,
                        const Frame& frame);
  void HandlePushEvents(const std::shared_ptr<Connection>& conn,
                        const Frame& frame);

  /// Queues `kind` and blocks until the evaluator has answered it.
  void QueueAndWait(const std::shared_ptr<Connection>& conn, Item::Kind kind);
  void Enqueue(Item item);

  /// Runs one item on the evaluator; answers Flush, StatsRequest and
  /// Checkpoint and then releases the waiting reader.
  void Evaluate(const Item& item);

  /// Writes pending_ as MatchBatch frames to each plan's owner, then
  /// clears it. A failed write shuts the owner's socket down.
  void DeliverPending();

  Status SendFrame(Connection* conn, PacketType type,
                   std::string_view payload);
  void SendAck(Connection* conn, PacketType request, std::string_view info);
  void SendError(Connection* conn, const Status& status);
  void SendBusy(Connection* conn, size_t queued_slabs);

  ServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;

  /// Thread-safe; readers add and remove plans, the engine picks the
  /// change up at its next call.
  std::shared_ptr<catalog::QueryCatalog> catalog_;
  /// Evaluator-only: the engine and the matches its sink collected during
  /// the current call, per plan id.
  std::unique_ptr<catalog::CatalogEngine> engine_;
  std::map<std::string, std::vector<Match>, std::less<>> pending_;
  int64_t checkpoint_seq_ = 0;

  /// Which connection owns each plan; readers write it, the evaluator
  /// reads it to route matches.
  std::mutex owners_mu_;
  std::unordered_map<std::string, std::shared_ptr<Connection>> plan_owner_;

  /// The evaluator's FIFO and the admission state checked with it.
  std::mutex fifo_mu_;
  std::condition_variable fifo_cv_;
  std::deque<Item> fifo_;
  /// A Flush was queued: every later PushEvents is refused, so each slab
  /// is either ahead of the Flush in the FIFO or rejected.
  bool flush_queued_ = false;
  /// Set by Stop once every reader is joined; the evaluator drains the
  /// FIFO and exits.
  bool fifo_closed_ = false;
  std::thread evaluator_;

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace ses::net

#endif  // SES_NET_SERVER_H_
