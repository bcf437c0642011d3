#include "core/instance.h"

namespace ses {

MatchBuffer MatchBuffer::Extend(VariableId variable,
                                const Event& event) const {
  MatchBuffer extended;
  extended.head_ = new Node{head_, 1, variable, event};
  if (head_ != nullptr) ++head_->refs;
  extended.min_timestamp_ = empty() ? event.timestamp() : min_timestamp_;
  extended.size_ = size_ + 1;
  return extended;
}

void MatchBuffer::Release(Node* node) {
  // A loop, not recursion through destructors: a group variable can bind
  // millions of events, and one stack frame per node would overflow.
  while (node != nullptr && --node->refs == 0) {
    Node* parent = node->parent;
    delete node;
    node = parent;
  }
}

std::vector<Binding> MatchBuffer::ToBindings() const {
  // ForEach walks newest first; fill from the back so the result comes out
  // chronological without a reversal pass.
  std::vector<Binding> bindings(static_cast<size_t>(size_));
  size_t next = bindings.size();
  ForEach([&bindings, &next](VariableId v, const Event& e) {
    bindings[--next] = Binding{v, e};
  });
  return bindings;
}

}  // namespace ses
