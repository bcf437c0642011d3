#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <span>
#include <utility>

#include "common/logging.h"
#include "engine/registry.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "storage/checkpoint.h"

namespace ses::net {

namespace {

/// Poll slice of the reader loop: short enough that stop requests and
/// fake-clock idle expiry are observed promptly, long enough to stay off
/// the CPU when a connection is quiet.
constexpr int kPollSliceMs = 25;

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  if (options.schema.num_attributes() == 0) {
    return Status::InvalidArgument("server needs a non-empty stream schema");
  }
  if (!engine::EngineRegistry::Global().Contains(options.engine)) {
    return Status::InvalidArgument("unknown engine: " + options.engine);
  }
  if (!options.clock_ms) options.clock_ms = SteadyNowMs;
  options.queue_capacity = std::max<size_t>(options.queue_capacity, 1);

  std::unique_ptr<Server> server(new Server(std::move(options)));
  server->catalog_ = std::make_shared<catalog::QueryCatalog>();

  catalog::CatalogOptions catalog_options;
  catalog_options.engine = server->options_.engine;
  catalog_options.engine_options = server->options_.engine_options;
  catalog_options.shared_type_index = server->options_.shared_type_index;
  catalog_options.shared_prefilter = server->options_.shared_prefilter;
  catalog_options.type_attribute = server->options_.type_attribute;
  // The sink runs inside engine calls, which only the evaluator makes.
  Server* raw = server.get();
  catalog_options.sink = [raw](std::string_view plan_id, Match&& match) {
    auto it = raw->pending_.find(plan_id);
    if (it == raw->pending_.end()) {
      it = raw->pending_.emplace(std::string(plan_id), std::vector<Match>())
               .first;
    }
    it->second.push_back(std::move(match));
  };
  SES_ASSIGN_OR_RETURN(server->engine_,
                       catalog::CatalogEngine::Create(
                           server->catalog_, std::move(catalog_options)));

  SES_ASSIGN_OR_RETURN(server->listener_,
                       ListenTcp(server->options_.port, &server->port_));
  server->evaluator_ = std::thread(&Server::EvaluatorLoop, raw);
  server->accept_thread_ = std::thread(&Server::AcceptLoop, raw);
  return server;
}

Server::~Server() { Stop(); }

int64_t Server::NowMs() const { return options_.clock_ms(); }

void Server::Stop() {
  if (stop_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  // Wake every reader blocked in poll/recv; each queues its connection's
  // teardown on the way out. Once no reader is left to queue more, the
  // evaluator drains the FIFO and exits.
  for (const auto& conn : conns) conn->sock.ShutdownBoth();
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(fifo_mu_);
    fifo_closed_ = true;
  }
  fifo_cv_.notify_one();
  if (evaluator_.joinable()) evaluator_.join();
  listener_.Reset();
}

size_t Server::num_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  size_t live = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load()) ++live;
  }
  return live;
}

size_t Server::num_plans() const { return catalog_->size(); }

void Server::AcceptLoop() {
  while (!stop_.load()) {
    Result<bool> readable = WaitReadable(listener_.fd(), kPollSliceMs);
    if (!readable.ok()) break;
    if (*readable && !stop_.load()) {
      Result<Socket> sock = Accept(listener_);
      if (sock.ok()) {
        auto conn = std::make_shared<Connection>();
        conn->sock = std::move(*sock);
        conn->last_activity_ms = NowMs();
        SetRecvTimeout(conn->sock.fd(), options_.read_timeout_ms).ok();
        SetSendTimeout(conn->sock.fd(), options_.write_timeout_ms).ok();
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          conns_.push_back(conn);
        }
        conn->reader = std::thread(&Server::ReaderLoop, this, conn);
      }
    }
    ReapFinished();
  }
}

void Server::ReapFinished() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

Result<Frame> Server::ReadFrameIdle(Connection* conn) {
  for (;;) {
    if (stop_.load()) return Status::IoError("server stopping");
    SES_ASSIGN_OR_RETURN(bool readable,
                         WaitReadable(conn->sock.fd(), kPollSliceMs));
    if (readable) {
      conn->last_activity_ms = NowMs();
      return ReadFrame(conn->sock.fd());
    }
    if (options_.idle_timeout_ms > 0 &&
        NowMs() - conn->last_activity_ms >= options_.idle_timeout_ms) {
      return Status::FailedPrecondition(
          "connection idle for " + std::to_string(options_.idle_timeout_ms) +
          "ms; closing");
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  if (Handshake(conn.get())) ServeLoop(conn);
  // Teardown goes through the FIFO, so the connection's plans are released
  // only after every slab it admitted has been evaluated.
  Item item;
  item.kind = Item::Kind::kClose;
  item.conn = std::move(conn);
  Enqueue(std::move(item));
}

bool Server::Handshake(Connection* conn) {
  Result<Frame> frame = ReadFrameIdle(conn);
  if (!frame.ok()) {
    if (frame.status().code() != StatusCode::kIoError) {
      SendError(conn, frame.status());
    }
    return false;
  }
  if (frame->type != PacketType::kHello) {
    SendError(conn, Status::FailedPrecondition(
                        "expected Hello, got " +
                        std::string(PacketTypeName(frame->type))));
    return false;
  }
  Result<HelloRequest> hello = HelloRequest::Decode(frame->payload);
  if (!hello.ok()) {
    SendError(conn, hello.status());
    return false;
  }
  if (hello->version != kProtocolVersion) {
    SendError(conn, Status::InvalidArgument(
                        "protocol version " + std::to_string(hello->version) +
                        " not supported; this server speaks version " +
                        std::to_string(kProtocolVersion)));
    return false;
  }
  conn->name = hello->client_name;
  HelloResponse ack;
  ack.version = kProtocolVersion;
  ack.schema_text = FormatSchemaText(options_.schema);
  ack.engine = options_.engine;
  return SendFrame(conn, PacketType::kHelloAck, ack.Encode()).ok();
}

void Server::ServeLoop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Result<Frame> frame = ReadFrameIdle(conn.get());
    if (!frame.ok()) {
      const StatusCode code = frame.status().code();
      if (code == StatusCode::kCorruption ||
          code == StatusCode::kInvalidArgument ||
          code == StatusCode::kFailedPrecondition) {
        // Bad frame or idle expiry: tell the peer why, then close — a
        // corrupt byte stream has no resynchronization point.
        SendError(conn.get(), frame.status());
      }
      return;
    }
    switch (frame->type) {
      case PacketType::kSubmitPlan:
        HandleSubmitPlan(conn, *frame);
        break;
      case PacketType::kRemovePlan:
        HandleRemovePlan(conn, *frame);
        break;
      case PacketType::kPushEvents:
        HandlePushEvents(conn, *frame);
        break;
      case PacketType::kFlush:
        QueueAndWait(conn, Item::Kind::kFlush);
        break;
      case PacketType::kCheckpoint:
        if (options_.checkpoint_dir.empty()) {
          SendError(conn.get(), Status::FailedPrecondition(
                                    "server started without --checkpoint-dir"));
        } else {
          QueueAndWait(conn, Item::Kind::kCheckpoint);
        }
        break;
      case PacketType::kStatsRequest:
        QueueAndWait(conn, Item::Kind::kStats);
        break;
      case PacketType::kHello:
        SendError(conn.get(), Status::FailedPrecondition(
                                  "handshake already completed"));
        break;
      default:
        // A response packet type from a client is a protocol violation.
        SendError(conn.get(),
                  Status::InvalidArgument(
                      "unexpected packet type " +
                      std::string(PacketTypeName(frame->type)) +
                      " from client"));
        return;
    }
  }
}

void Server::HandleSubmitPlan(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  Result<SubmitPlanRequest> req = SubmitPlanRequest::Decode(frame.payload);
  if (!req.ok()) {
    SendError(conn.get(), req.status());
    return;
  }
  Result<Pattern> pattern = ParsePattern(req->query, options_.schema);
  if (!pattern.ok()) {
    SendError(conn.get(),
              Status(pattern.status().code(), "plan '" + req->plan_id +
                                                  "': " +
                                                  pattern.status().message()));
    return;
  }
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(*pattern, plan::PlanOptions{});
  if (!plan.ok()) {
    SendError(conn.get(),
              Status(plan.status().code(),
                     "plan '" + req->plan_id + "': " +
                         plan.status().message()));
    return;
  }
  Status added;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    added = catalog_->Add(req->plan_id, std::move(*plan));
    if (added.ok()) {
      plan_owner_[req->plan_id] = conn;
      conn->plan_ids.push_back(req->plan_id);
    }
  }
  if (!added.ok()) {
    SendError(conn.get(), added);
    return;
  }
  SendAck(conn.get(), PacketType::kSubmitPlan, req->plan_id);
}

void Server::HandleRemovePlan(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  Result<RemovePlanRequest> req = RemovePlanRequest::Decode(frame.payload);
  if (!req.ok()) {
    SendError(conn.get(), req.status());
    return;
  }
  Status removed;
  {
    std::lock_guard<std::mutex> lock(owners_mu_);
    auto it = plan_owner_.find(req->plan_id);
    if (it == plan_owner_.end()) {
      removed = Status::NotFound("no plan '" + req->plan_id + "'");
    } else if (it->second != conn) {
      removed = Status::FailedPrecondition(
          "plan '" + req->plan_id + "' is owned by another connection");
    } else {
      removed = catalog_->Remove(req->plan_id);
      if (removed.ok()) {
        plan_owner_.erase(it);
        std::erase(conn->plan_ids, req->plan_id);
      }
    }
  }
  if (!removed.ok()) {
    SendError(conn.get(), removed);
    return;
  }
  SendAck(conn.get(), PacketType::kRemovePlan, req->plan_id);
}

void Server::HandlePushEvents(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  Result<PushEventsRequest> req =
      PushEventsRequest::Decode(frame.payload, options_.schema);
  if (!req.ok()) {
    SendError(conn.get(), req.status());
    return;
  }
  // Admission shares the FIFO's mutex with the flush flag, so a slab is
  // either ahead of a queued Flush or refused.
  Status refused;
  size_t busy_depth = 0;
  {
    std::lock_guard<std::mutex> lock(fifo_mu_);
    if (!conn->stream_status.ok()) {
      refused = conn->stream_status;
    } else if (flush_queued_) {
      refused = Status::FailedPrecondition(
          "stream already flushed; no further events accepted");
    } else if (conn->queued_slabs >= options_.queue_capacity) {
      busy_depth = conn->queued_slabs;
    } else {
      ++conn->queued_slabs;
      Item item;
      item.conn = conn;
      item.push = std::move(*req);
      fifo_.push_back(std::move(item));
    }
  }
  if (!refused.ok()) {
    SendError(conn.get(), refused);
  } else if (busy_depth > 0) {
    SendBusy(conn.get(), busy_depth);
  } else {
    fifo_cv_.notify_one();
    // Admission ack: an evaluation error surfaces as the Error reply to
    // the connection's next PushEvents or Flush.
    SendAck(conn.get(), PacketType::kPushEvents, "queued");
  }
}

void Server::Enqueue(Item item) {
  {
    std::lock_guard<std::mutex> lock(fifo_mu_);
    if (item.kind == Item::Kind::kFlush) flush_queued_ = true;
    fifo_.push_back(std::move(item));
  }
  fifo_cv_.notify_one();
}

void Server::QueueAndWait(const std::shared_ptr<Connection>& conn,
                          Item::Kind kind) {
  Item item;
  item.kind = kind;
  item.conn = conn;
  Enqueue(std::move(item));
  // The evaluator answers every queued item, also while stopping, so this
  // wait ends; it keeps each connection to one such item in the FIFO.
  conn->answered.acquire();
}

void Server::EvaluatorLoop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(fifo_mu_);
      fifo_cv_.wait(lock, [this] { return fifo_closed_ || !fifo_.empty(); });
      if (fifo_.empty()) return;
      item = std::move(fifo_.front());
      fifo_.pop_front();
      if (item.kind == Item::Kind::kPush) --item.conn->queued_slabs;
    }
    Evaluate(item);
  }
}

void Server::Evaluate(const Item& item) {
  Connection* conn = item.conn.get();
  Status status;
  switch (item.kind) {
    case Item::Kind::kPush:
      if (options_.eval_gate) options_.eval_gate();
      status = item.push.layout == PushEventsRequest::Layout::kColumnar
                   ? engine_->PushColumnar(item.push.columnar)
                   : engine_->PushBatch(item.push.events);
      DeliverPending();
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(fifo_mu_);
        if (conn->stream_status.ok()) conn->stream_status = status;
      }
      return;
    case Item::Kind::kFlush:
      if (options_.eval_gate) options_.eval_gate();
      // The engine Flush is global: it ends the stream for every plan of
      // every connection. Every slab admitted before it is already
      // evaluated, since admission closed when the Flush was queued.
      status = engine_->Flush();
      // Matches first, then the Ack: once a client sees the Flush Ack,
      // every match of the stream has been written to its socket.
      DeliverPending();
      // A slab of this connection that failed evaluation fails the Flush
      // too; otherwise the engine's idempotent-OK re-flush would mask a
      // stream with missing matches.
      if (status.ok()) {
        std::lock_guard<std::mutex> lock(fifo_mu_);
        status = conn->stream_status;
      }
      if (status.ok()) SendAck(conn, PacketType::kFlush, "");
      break;
    case Item::Kind::kStats: {
      StatsResponse stats;
      stats.catalog = engine_->stats();
      stats.plans = engine_->plan_stats();
      SendFrame(conn, PacketType::kStats, stats.Encode()).ok();
      break;
    }
    case Item::Kind::kCheckpoint: {
      storage::CheckpointWriter writer;
      status = engine_->Checkpoint(&writer);
      if (status.ok()) {
        const std::string path = options_.checkpoint_dir + "/SES_CKPT_" +
                                 std::to_string(++checkpoint_seq_) +
                                 ".sesckpt";
        status =
            storage::WriteCheckpointFile(path, std::move(writer).Finish());
        if (status.ok()) SendAck(conn, PacketType::kCheckpoint, path);
      }
      break;
    }
    case Item::Kind::kClose: {
      std::lock_guard<std::mutex> lock(owners_mu_);
      for (const std::string& id : conn->plan_ids) {
        catalog_->Remove(id).ok();  // the engine drops it at its next refresh
        plan_owner_.erase(id);
      }
      conn->plan_ids.clear();
      conn->sock.ShutdownBoth();
      conn->done.store(true);
      return;
    }
  }
  if (!status.ok()) SendError(conn, status);
  conn->answered.release();
}

void Server::DeliverPending() {
  for (auto& [plan_id, matches] : pending_) {
    std::shared_ptr<Connection> owner;
    {
      std::lock_guard<std::mutex> lock(owners_mu_);
      auto it = plan_owner_.find(plan_id);
      if (it != plan_owner_.end()) owner = it->second;
    }
    if (owner == nullptr) continue;  // plan removed or owner gone
    const std::string payload = MatchBatchResponse::Encode(
        plan_id, std::span<const Match>(matches), options_.schema);
    // A peer that stops draining its matches would hold the evaluator, and
    // so every connection, for write_timeout_ms per frame. A timed-out
    // write may also have left a partial frame, so the stream cannot be
    // resynchronized: shut it down, and its reader tears it down.
    if (!SendFrame(owner.get(), PacketType::kMatchBatch, payload).ok()) {
      owner->sock.ShutdownBoth();
    }
  }
  pending_.clear();
}

Status Server::SendFrame(Connection* conn, PacketType type,
                         std::string_view payload) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  return WriteFrame(conn->sock.fd(), type, payload);
}

void Server::SendAck(Connection* conn, PacketType request,
                     std::string_view info) {
  AckResponse ack;
  ack.request = request;
  ack.info = std::string(info);
  SendFrame(conn, PacketType::kAck, ack.Encode()).ok();
}

void Server::SendError(Connection* conn, const Status& status) {
  ErrorResponse error;
  error.code = status.code();
  error.message = status.message();
  SendFrame(conn, PacketType::kError, error.Encode()).ok();
}

void Server::SendBusy(Connection* conn, size_t queued_slabs) {
  BusyResponse busy;
  busy.queue_depth = queued_slabs;
  busy.queue_capacity = options_.queue_capacity;
  SendFrame(conn, PacketType::kBusy, busy.Encode()).ok();
}

}  // namespace ses::net
