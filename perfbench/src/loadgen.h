#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop load generator of the wire_catalog workload, built directly on
// net/socket.h and net/protocol.h. One OpenLoopConnection is one client
// connection driven by one thread: it sends pre-encoded PushEvents slabs at
// fixed due times whether or not the server keeps up, and between due times
// reads MatchBatch frames as they arrive (WaitReadable + ReadFrame), so a
// match is timed when it reaches the socket rather than when the next
// request happens to drain it. A match's latency runs from the due time of
// the slab carrying its last event. Busy-refused slabs count as failed and
// are re-sent at once; their matches still count from the original due
// time. Time comes from an injectable LoadClock, so the self-test can
// stall the server and check the accounting deterministically.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "event/schema.h"
#include "measure.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "trace.h"

namespace perfbench {

class LoadClock {
 public:
  virtual ~LoadClock() = default;
  virtual int64_t NowNs() = 0;
  /// Waits until `fd` is readable (true) or the clock reaches `deadline_ns`
  /// (false).
  virtual ses::Result<bool> WaitReadable(int fd, int64_t deadline_ns) = 0;
};

/// The steady clock, waiting with net::WaitReadable.
LoadClock* SteadyLoadClock();

/// One connection's pre-encoded schedule: slab k is due at
/// start_ns + k * interval_ns.
struct Schedule {
  std::vector<std::string> payloads;
  std::vector<int64_t> slab_events;
  /// Timestamp of each slab's first event, increasing.
  std::vector<ses::Timestamp> first_timestamp;
  int64_t start_ns = 0;
  int64_t interval_ns = 0;

  int64_t due_ns(size_t slab) const {
    return start_ns + static_cast<int64_t>(slab) * interval_ns;
  }
  size_t SlabOf(ses::Timestamp timestamp) const {
    return perfbench::SlabOf(first_timestamp, timestamp);
  }
};

/// One received match.
struct ReceivedMatch {
  uint64_t hash = 0;
  size_t slab = 0;
  int64_t latency_ns = 0;
};

/// What one connection saw.
struct ConnectionLog {
  int64_t requests = 0;
  int64_t busy = 0;
  int64_t errors = 0;
  int64_t events_acked = 0;
  int64_t match_frames = 0;
  /// Send time minus due time of each slab's first attempt.
  std::vector<int64_t> lag_ns;
  /// First send to Ack, per slab (Busy retries included).
  std::vector<int64_t> ack_rtt_ns;
  std::vector<ReceivedMatch> matches;
  MatchDigest digest;
  int64_t last_ack_ns = 0;
};

class OpenLoopConnection {
 public:
  /// Connects to the loopback server on `port` and performs the Hello
  /// handshake.
  static ses::Result<std::unique_ptr<OpenLoopConnection>> Connect(
      uint16_t port, const std::string& name, LoadClock* clock);

  /// Registers a standing query (a synchronous request).
  ses::Status SubmitPlan(const std::string& id, const std::string& query);

  /// Sends every slab of `schedule` at its due time, reading match frames
  /// in between, and returns once the last slab is acknowledged.
  ses::Status Run(const Schedule& schedule, Tracer* tracer);

  /// Flush barrier: sends Flush and reads frames until its Ack.
  ses::Status Flush(const Schedule& schedule);
  /// Sends StatsRequest and reads frames until the Stats answer; every
  /// match frame the server wrote before answering has been read.
  ses::Result<ses::net::StatsResponse> Stats(const Schedule& schedule);

  ConnectionLog& log() { return log_; }

 private:
  explicit OpenLoopConnection(LoadClock* clock) : clock_(clock) {}

  /// Reads one frame; MatchBatch frames are logged (and yield nullopt),
  /// anything else is returned.
  ses::Result<std::optional<ses::net::Frame>> ReadOne(const Schedule* schedule,
                                                      Tracer* tracer);
  /// Sends a request and reads until its answer.
  ses::Result<ses::net::Frame> Transact(ses::net::PacketType type,
                                        std::string_view payload,
                                        const Schedule* schedule);

  LoadClock* clock_;
  ses::net::Socket sock_;
  ses::Schema schema_;
  ConnectionLog log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
