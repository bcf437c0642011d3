#ifndef SES_METRICS_METRICS_H_
#define SES_METRICS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace ses {

/// A monotonically increasing counter.
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

/// A gauge that remembers its maximum. The matcher uses this to report the
/// maximal number of simultaneously active automaton instances — the metric
/// the paper's Experiments 1 and 2 measure.
class MaxGauge {
 public:
  void Observe(int64_t value) {
    current_ = value;
    if (value > max_) max_ = value;
  }
  int64_t current() const { return current_; }
  int64_t max() const { return max_; }
  void Reset() {
    current_ = 0;
    max_ = 0;
  }

 private:
  int64_t current_ = 0;
  int64_t max_ = 0;
};

/// A thread-safe monotonically increasing counter. Used where producer and
/// consumer threads update the same statistic (e.g. the shard queue depth
/// of the parallel partitioned runtime). Relaxed ordering: counters are
/// statistics, not synchronization.
class AtomicCounter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A thread-safe gauge that remembers its maximum (CAS max-update loop).
class AtomicMaxGauge {
 public:
  void Observe(int64_t value) {
    current_.store(value, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }
  int64_t current() const { return current_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> max_{0};
};

/// An exponentially weighted moving average gauge. The parallel runtime's
/// shard rebalancer feeds it per-shard queue-depth and busy-time samples;
/// the EWMA smooths out per-batch jitter so one bursty sample does not
/// trigger a key migration. Not thread-safe: each gauge is owned by the
/// single thread that samples it (the ingest thread).
class EwmaGauge {
 public:
  /// `alpha` is the weight of the newest sample, in (0, 1]; higher alpha
  /// reacts faster, lower alpha smooths harder.
  explicit EwmaGauge(double alpha = 0.5) : alpha_(alpha) {}

  void Observe(double sample) {
    value_ = samples_ == 0 ? sample : alpha_ * sample + (1 - alpha_) * value_;
    ++samples_;
  }

  /// Current average; 0 before the first sample.
  double value() const { return value_; }
  int64_t samples() const { return samples_; }

  void Reset() {
    value_ = 0;
    samples_ = 0;
  }

  /// Reinstates a previously observed (value, samples) pair, e.g. from a
  /// checkpoint. Subsequent Observe() calls continue the same average.
  void RestoreState(double value, int64_t samples) {
    value_ = value;
    samples_ = samples;
  }

 private:
  double alpha_;
  double value_ = 0;
  int64_t samples_ = 0;
};

/// Wall-clock stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }
  void Restart() { start_ = Clock::now(); }
  /// Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ses

#endif  // SES_METRICS_METRICS_H_
