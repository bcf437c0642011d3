#ifndef SES_EVENT_EVENT_H_
#define SES_EVENT_EVENT_H_

#include <atomic>
#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/time.h"
#include "event/schema.h"
#include "event/value.h"

namespace ses {

/// Stable identifier for an event within a relation or stream. Assigned in
/// arrival order (the paper labels events e1, e2, ...). Used to report
/// matches and to verify semantics in tests.
using EventId = int64_t;

constexpr EventId kInvalidEventId = -1;

class EventBuilder;

/// An event: a tuple of non-temporal attribute values plus an occurrence
/// timestamp (paper §3.1). The attribute layout is defined by a Schema held
/// by the enclosing EventRelation; an Event does not own a schema pointer so
/// events stay compact.
///
/// An Event is a cheap handle. The id and timestamp live inline and can be
/// changed per copy; the attribute values live in one immutable, atomically
/// reference-counted heap block built when the event is constructed. Copying
/// an Event costs a reference-count increment and no allocation, so the
/// executor's match buffers, matches, reorder and shard queues all share one
/// payload per event, on any thread, and the values outlive the relation or
/// slab the event came from.
class Event {
 public:
  /// An event with no values; allocates nothing.
  Event() = default;
  /// Moves `values` into a new payload (one allocation).
  Event(EventId id, Timestamp timestamp, std::vector<Value> values);

  Event(const Event& other) noexcept
      : id_(other.id_), timestamp_(other.timestamp_), payload_(other.payload_) {
    if (payload_ != nullptr) {
      payload_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Event(Event&& other) noexcept
      : id_(other.id_), timestamp_(other.timestamp_), payload_(other.payload_) {
    other.payload_ = nullptr;
  }
  Event& operator=(Event other) noexcept {
    id_ = other.id_;
    timestamp_ = other.timestamp_;
    std::swap(payload_, other.payload_);
    return *this;
  }
  ~Event() { Unref(payload_); }

  EventId id() const { return id_; }
  Timestamp timestamp() const { return timestamp_; }
  int num_values() const { return payload_ == nullptr ? 0 : payload_->size; }
  const Value& value(int attribute_index) const {
    return payload_->values()[attribute_index];
  }
  std::span<const Value> values() const {
    if (payload_ == nullptr) return {};
    return {payload_->values(), static_cast<size_t>(payload_->size)};
  }

  /// Change this handle only; copies keep their own id and timestamp.
  void set_id(EventId id) { id_ = id; }
  void set_timestamp(Timestamp t) { timestamp_ = t; }

  /// "e3@0+11:00:00{1, B, 84, mgl}" — id, time, values.
  std::string ToString() const;

 private:
  friend class EventBuilder;

  /// Heap block header; the `size` Values follow it in the same block.
  struct alignas(Value) Payload {
    std::atomic<int32_t> refs;
    int32_t size;  // values constructed so far

    Value* values() {
      return std::launder(reinterpret_cast<Value*>(this + 1));
    }
    const Value* values() const {
      return std::launder(reinterpret_cast<const Value*>(this + 1));
    }
  };

  /// Allocates a block with room for `capacity` values, none constructed,
  /// one reference held by the caller.
  static Payload* Allocate(int capacity);
  /// Drops one reference; the last one destroys the values and the block.
  /// A sole owner skips the atomic decrement: no other thread holds a
  /// reference it could copy, so the count cannot change under it.
  static void Unref(Payload* payload) {
    if (payload == nullptr) return;
    if (payload->refs.load(std::memory_order_acquire) == 1 ||
        payload->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Destroy(payload);
    }
  }
  static void Destroy(Payload* payload);

  EventId id_ = kInvalidEventId;
  Timestamp timestamp_ = 0;
  Payload* payload_ = nullptr;
};

/// Constructs an event's values directly in its payload, so decoders build
/// an event with exactly one allocation and no intermediate vector. Append
/// exactly `num_values` values, then Build(); a builder dropped early (a
/// decode error) frees what it built.
class EventBuilder {
 public:
  explicit EventBuilder(int num_values);
  ~EventBuilder() { Event::Unref(payload_); }

  EventBuilder(const EventBuilder&) = delete;
  EventBuilder& operator=(const EventBuilder&) = delete;

  /// Constructs the next value in place from `args` (the arguments of any
  /// Value constructor, or a Value to move or copy).
  template <typename... Args>
  void Append(Args&&... args) {
    SES_CHECK(payload_ != nullptr && payload_->size < capacity_)
        << "EventBuilder: more than " << capacity_ << " values";
    new (payload_->values() + payload_->size)
        Value(std::forward<Args>(args)...);
    ++payload_->size;
  }

  /// The finished event. Requires every value to have been appended.
  Event Build(EventId id, Timestamp timestamp) &&;

 private:
  int capacity_;
  Event::Payload* payload_;
};

}  // namespace ses

#endif  // SES_EVENT_EVENT_H_
