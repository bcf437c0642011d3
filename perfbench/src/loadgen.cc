#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace perfbench {

using ses::net::Frame;
using ses::net::PacketType;

namespace {

/// Bounds every blocking read, so a wedged server fails the run instead of
/// hanging it.
constexpr int kRecvTimeoutMs = 20'000;
/// Below one millisecond to the due time the waiter polls the socket and
/// naps this long between polls (WaitReadable has millisecond resolution).
constexpr int64_t kNapNs = 200'000;

class SteadyClock final : public LoadClock {
 public:
  int64_t NowNs() override { return perfbench::NowNs(); }

  ses::Result<bool> WaitReadable(int fd, int64_t deadline_ns) override {
    for (;;) {
      const int64_t remaining = deadline_ns - NowNs();
      if (remaining <= 0) return false;
      const int timeout_ms = static_cast<int>(remaining / 1'000'000);
      SES_ASSIGN_OR_RETURN(bool readable,
                           ses::net::WaitReadable(fd, timeout_ms));
      if (readable) return true;
      if (timeout_ms == 0) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min(remaining, kNapNs)));
      }
    }
  }
};

ses::Status ErrorFrameStatus(const Frame& frame) {
  SES_ASSIGN_OR_RETURN(ses::net::ErrorResponse error,
                       ses::net::ErrorResponse::Decode(frame.payload));
  return error.ToStatus();
}

ses::Status Unexpected(const Frame& frame, const char* waiting_for) {
  if (frame.type == PacketType::kError) return ErrorFrameStatus(frame);
  return ses::Status::Internal(
      std::string("expected ") + waiting_for + ", got " +
      std::string(ses::net::PacketTypeName(frame.type)));
}

}  // namespace

LoadClock* SteadyLoadClock() {
  static SteadyClock clock;
  return &clock;
}

ses::Result<std::unique_ptr<OpenLoopConnection>> OpenLoopConnection::Connect(
    uint16_t port, const std::string& name, LoadClock* clock) {
  std::unique_ptr<OpenLoopConnection> conn(new OpenLoopConnection(clock));
  SES_ASSIGN_OR_RETURN(conn->sock_, ses::net::ConnectTcp(port));
  SES_RETURN_IF_ERROR(ses::net::SetRecvTimeout(conn->sock_.fd(),
                                               kRecvTimeoutMs));
  ses::net::HelloRequest hello;
  hello.client_name = name;
  SES_ASSIGN_OR_RETURN(Frame frame,
                       conn->Transact(PacketType::kHello, hello.Encode(),
                                      nullptr));
  if (frame.type != PacketType::kHelloAck) {
    return Unexpected(frame, "HelloAck");
  }
  SES_ASSIGN_OR_RETURN(ses::net::HelloResponse ack,
                       ses::net::HelloResponse::Decode(frame.payload));
  SES_ASSIGN_OR_RETURN(conn->schema_, ses::ParseSchemaText(ack.schema_text));
  return conn;
}

ses::Status OpenLoopConnection::SubmitPlan(const std::string& id,
                                           const std::string& query) {
  ses::net::SubmitPlanRequest request;
  request.plan_id = id;
  request.query = query;
  SES_ASSIGN_OR_RETURN(
      Frame frame,
      Transact(PacketType::kSubmitPlan, request.Encode(), nullptr));
  if (frame.type != PacketType::kAck) return Unexpected(frame, "Ack");
  return ses::Status::OK();
}

ses::Result<std::optional<Frame>> OpenLoopConnection::ReadOne(
    const Schedule* schedule, Tracer* tracer) {
  ScopedSpan span(tracer, "net.read_frame");
  SES_ASSIGN_OR_RETURN(Frame frame, ses::net::ReadFrame(sock_.fd()));
  const int64_t now = clock_->NowNs();
  if (frame.type != PacketType::kMatchBatch) return std::optional<Frame>(frame);
  ScopedSpan decode(tracer, "net.match_decode");
  SES_ASSIGN_OR_RETURN(
      ses::net::MatchBatchResponse batch,
      ses::net::MatchBatchResponse::Decode(frame.payload, schema_));
  ++log_.match_frames;
  for (const ses::Match& match : batch.matches) {
    ReceivedMatch received;
    received.hash = MatchDigest::Hash(batch.plan_id, match);
    if (schedule != nullptr) {
      received.slab = schedule->SlabOf(match.end_time());
      received.latency_ns = now - schedule->due_ns(received.slab);
    }
    log_.digest.Add(received.hash);
    log_.matches.push_back(received);
  }
  return std::optional<Frame>();
}

ses::Result<Frame> OpenLoopConnection::Transact(PacketType type,
                                                std::string_view payload,
                                                const Schedule* schedule) {
  ++log_.requests;
  SES_RETURN_IF_ERROR(ses::net::WriteFrame(sock_.fd(), type, payload));
  for (;;) {
    SES_ASSIGN_OR_RETURN(std::optional<Frame> frame,
                         ReadOne(schedule, nullptr));
    if (frame.has_value()) return std::move(*frame);
  }
}

ses::Status OpenLoopConnection::Run(const Schedule& schedule,
                                    Tracer* tracer) {
  const int fd = sock_.fd();
  size_t next = 0;
  // The slab awaiting its answer (at most one request is outstanding).
  bool outstanding = false;
  size_t slab = 0;
  int64_t first_send_ns = 0;
  auto send = [&]() -> ses::Status {
    ScopedSpan span(tracer, "net.send", static_cast<int64_t>(slab));
    ++log_.requests;
    return ses::net::WriteFrame(fd, PacketType::kPushEvents,
                                schedule.payloads[slab]);
  };
  while (next < schedule.payloads.size() || outstanding) {
    if (!outstanding) {
      const int64_t due = schedule.due_ns(next);
      const int64_t now = clock_->NowNs();
      if (now < due) {
        SES_ASSIGN_OR_RETURN(bool readable, clock_->WaitReadable(fd, due));
        if (!readable) continue;
        SES_ASSIGN_OR_RETURN(std::optional<Frame> frame,
                             ReadOne(&schedule, tracer));
        if (frame.has_value()) return Unexpected(*frame, "MatchBatch");
        continue;
      }
      slab = next++;
      log_.lag_ns.push_back(now - due);
      first_send_ns = now;
      outstanding = true;
      SES_RETURN_IF_ERROR(send());
      continue;
    }
    SES_ASSIGN_OR_RETURN(std::optional<Frame> frame,
                         ReadOne(&schedule, tracer));
    if (!frame.has_value()) continue;
    if (frame->type == PacketType::kBusy) {
      ++log_.busy;
      SES_RETURN_IF_ERROR(send());
      continue;
    }
    if (frame->type != PacketType::kAck) {
      ++log_.errors;
      return Unexpected(*frame, "Ack");
    }
    const int64_t now = clock_->NowNs();
    log_.ack_rtt_ns.push_back(now - first_send_ns);
    log_.events_acked += schedule.slab_events[slab];
    log_.last_ack_ns = now;
    outstanding = false;
  }
  return ses::Status::OK();
}

ses::Status OpenLoopConnection::Flush(const Schedule& schedule) {
  SES_ASSIGN_OR_RETURN(Frame frame,
                       Transact(PacketType::kFlush, "", &schedule));
  if (frame.type != PacketType::kAck) return Unexpected(frame, "Ack");
  return ses::Status::OK();
}

ses::Result<ses::net::StatsResponse> OpenLoopConnection::Stats(
    const Schedule& schedule) {
  SES_ASSIGN_OR_RETURN(Frame frame,
                       Transact(PacketType::kStatsRequest, "", &schedule));
  if (frame.type != PacketType::kStats) return Unexpected(frame, "Stats");
  return ses::net::StatsResponse::Decode(frame.payload);
}

}  // namespace perfbench
