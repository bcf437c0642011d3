#ifndef SES_CORE_INSTANCE_H_
#define SES_CORE_INSTANCE_H_

#include <memory>
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
class MatchBuffer {
 public:
  /// The empty buffer.
  MatchBuffer() = default;

  bool empty() const { return head_ == nullptr; }
  int size() const { return size_; }

  /// Timestamp of the earliest (== first-added) binding. Requires !empty().
  Timestamp min_timestamp() const { return min_timestamp_; }

  /// Returns a buffer with the binding `variable`/`event` appended.
  MatchBuffer Extend(VariableId variable, const Event& event) const;

  /// Invokes fn(VariableId, const Event&) for each binding, newest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Node* node = head_.get(); node != nullptr;
         node = node->parent.get()) {
      fn(node->variable, node->event);
    }
  }

  /// Bindings in chronological (insertion) order.
  std::vector<Binding> ToBindings() const;

 private:
  struct Node {
    std::shared_ptr<const Node> parent;
    VariableId variable;
    Event event;
  };

  std::shared_ptr<const Node> head_;
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
