#ifndef SES_CORE_INSTANCE_H_
#define SES_CORE_INSTANCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/match.h"
#include "event/event.h"
#include "query/variable.h"

namespace ses {

/// Identifier of an automaton state (index into SesAutomaton's state table).
using StateId = int;

/// The match buffer β of an automaton instance (Definition 3): the variable
/// bindings collected so far.
///
/// Buffers are immutable persistent lists: Extend() shares the existing
/// nodes, so branching an instance on nondeterminism (Algorithm 2, line 5)
/// costs O(1) and memory is shared across all instances that descend from a
/// common prefix. Each node holds its Event by value: an Event is a handle
/// on a reference-counted value payload (event/event.h), so binding it costs
/// a reference-count increment, every node and every emitted Match that
/// binds the same input event shares that one payload, and the values stay
/// alive after the caller's Event goes away at the end of Push().
///
/// Buffers are private to the executor that built them: matches copy the
/// Event handles out (ToBindings) and checkpoints serialize the bindings,
/// so no node is ever shared between threads. Nodes therefore carry an
/// intrusive, non-atomic reference count (one per buffer head and one per
/// child node). Copying or destroying a buffer from two threads at once is
/// a data race; moving a whole executor to another thread is fine. Release
/// walks the parent chain in a loop, so destroying a buffer of millions of
/// bindings uses constant stack.
///
/// Bindings are appended in consumption order, so their timestamps are
/// strictly increasing (Matcher::Push enforces it for live streams,
/// SesExecutor::Restore checks it for restored buffers); the executor
/// relies on that to skip order-implied conditions (core/automaton.h).
class MatchBuffer {
 public:
  /// The empty buffer.
  MatchBuffer() = default;
  MatchBuffer(const MatchBuffer& other) noexcept
      : head_(other.head_),
        min_timestamp_(other.min_timestamp_),
        size_(other.size_) {
    if (head_ != nullptr) ++head_->refs;
  }
  MatchBuffer(MatchBuffer&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        min_timestamp_(other.min_timestamp_),
        size_(std::exchange(other.size_, 0)) {}
  MatchBuffer& operator=(MatchBuffer other) noexcept {
    std::swap(head_, other.head_);
    min_timestamp_ = other.min_timestamp_;
    size_ = other.size_;
    return *this;
  }
  ~MatchBuffer() { Release(head_); }

  bool empty() const { return head_ == nullptr; }
  int size() const { return size_; }

  /// Timestamp of the earliest (== first-added) binding. Requires !empty().
  Timestamp min_timestamp() const { return min_timestamp_; }

  /// Returns a buffer with the binding `variable`/`event` appended.
  MatchBuffer Extend(VariableId variable, const Event& event) const;

  /// Invokes fn(VariableId, const Event&) for each binding, newest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Node* node = head_; node != nullptr; node = node->parent) {
      fn(node->variable, node->event);
    }
  }

  /// Bindings in chronological (insertion) order.
  std::vector<Binding> ToBindings() const;

 private:
  struct Node {
    Node* parent;  // holds one reference; null for the first binding
    // Buffer heads plus child nodes pointing here. 32 bits cannot
    // overflow: 2^32 handles would take more than 64 GiB of buffers.
    uint32_t refs;
    VariableId variable;
    Event event;
  };

  /// Drops one reference to `node` and frees every node on its parent
  /// chain that no longer has any, iteratively.
  static void Release(Node* node);

  Node* head_ = nullptr;
  Timestamp min_timestamp_ = 0;
  int size_ = 0;
};

/// An automaton instance ~N = (qc, β) (Definition 4): the current state and
/// the match buffer collected on the way there.
struct AutomatonInstance {
  StateId state = 0;
  MatchBuffer buffer;
};

}  // namespace ses

#endif  // SES_CORE_INSTANCE_H_
