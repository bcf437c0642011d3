#include "core/instance.h"

namespace ses {

MatchBuffer MatchBuffer::Extend(VariableId variable,
                                const Event& event) const {
  MatchBuffer extended;
  extended.head_ = std::make_shared<const Node>(head_, variable, event);
  extended.min_timestamp_ = empty() ? event.timestamp() : min_timestamp_;
  extended.size_ = size_ + 1;
  return extended;
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
