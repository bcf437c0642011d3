#include "event/event.h"

#include "common/strings.h"

namespace ses {

Event::Payload* Event::Allocate(int capacity) {
  if (capacity == 0) return nullptr;
  void* block = ::operator new(sizeof(Payload) +
                               static_cast<size_t>(capacity) * sizeof(Value));
  Payload* payload = new (block) Payload;
  payload->refs.store(1, std::memory_order_relaxed);
  payload->size = 0;
  return payload;
}

void Event::Destroy(Payload* payload) {
  Value* values = payload->values();
  for (int i = 0; i < payload->size; ++i) values[i].~Value();
  payload->~Payload();
  ::operator delete(payload);
}

Event::Event(EventId id, Timestamp timestamp, std::vector<Value> values) {
  EventBuilder builder(static_cast<int>(values.size()));
  for (Value& value : values) builder.Append(std::move(value));
  *this = std::move(builder).Build(id, timestamp);
}

std::string Event::ToString() const {
  std::string out =
      strings::Format("e%lld@%s{", static_cast<long long>(id_),
                      FormatTimestamp(timestamp_).c_str());
  for (int i = 0; i < num_values(); ++i) {
    if (i > 0) out += ", ";
    out += value(i).ToString();
  }
  out += "}";
  return out;
}

EventBuilder::EventBuilder(int num_values)
    : capacity_(num_values), payload_(Event::Allocate(num_values)) {}

Event EventBuilder::Build(EventId id, Timestamp timestamp) && {
  SES_CHECK((payload_ == nullptr ? 0 : payload_->size) == capacity_)
      << "EventBuilder: built before all " << capacity_
      << " values were appended";
  Event event;
  event.id_ = id;
  event.timestamp_ = timestamp;
  event.payload_ = payload_;
  payload_ = nullptr;
  return event;
}

}  // namespace ses
