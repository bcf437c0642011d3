#include "event/relation.h"

#include <cmath>

#include "common/strings.h"

namespace ses {

Status EventRelation::Append(Event event) {
  if (event.num_values() != schema_.num_attributes()) {
    return Status::InvalidArgument(strings::Format(
        "event has %d values but schema %s has %d attributes",
        event.num_values(), schema_.ToString().c_str(),
        schema_.num_attributes()));
  }
  for (int i = 0; i < event.num_values(); ++i) {
    if (event.value(i).type() != schema_.attribute(i).type) {
      return Status::InvalidArgument(strings::Format(
          "attribute '%s' expects %s but event value is %s",
          schema_.attribute(i).name.c_str(),
          std::string(ValueTypeToString(schema_.attribute(i).type)).c_str(),
          std::string(ValueTypeToString(event.value(i).type())).c_str()));
    }
    // NaN compares false to everything, so a NaN attribute would make
    // condition evaluation silently unsatisfiable; the parsers reject the
    // spelling (common::ParseDouble) and the relation rejects the value.
    if (event.value(i).is_double() && std::isnan(event.value(i).as_double())) {
      return Status::InvalidArgument(strings::Format(
          "attribute '%s' is NaN; relation values must be finite numbers",
          schema_.attribute(i).name.c_str()));
    }
  }
  if (!events_.empty() && event.timestamp() < events_.back().timestamp()) {
    return Status::FailedPrecondition(strings::Format(
        "events must be appended in time order: %lld < %lld",
        static_cast<long long>(event.timestamp()),
        static_cast<long long>(events_.back().timestamp())));
  }
  if (event.id() == kInvalidEventId) {
    event.set_id(static_cast<EventId>(events_.size()) + 1);
  }
  events_.push_back(std::move(event));
  return Status::OK();
}

void EventRelation::AppendUnchecked(Timestamp timestamp,
                                    std::vector<Value> values) {
  events_.emplace_back(static_cast<EventId>(events_.size()) + 1, timestamp,
                       std::move(values));
}

void EventRelation::AppendUnchecked(Timestamp timestamp,
                                    std::span<const Value> values) {
  EventBuilder builder(static_cast<int>(values.size()));
  for (const Value& value : values) builder.Append(value);
  events_.push_back(std::move(builder).Build(
      static_cast<EventId>(events_.size()) + 1, timestamp));
}

Status EventRelation::ValidateTotalOrder() const {
  for (size_t i = 1; i < events_.size(); ++i) {
    if (events_[i].timestamp() <= events_[i - 1].timestamp()) {
      return Status::FailedPrecondition(strings::Format(
          "timestamps are not strictly increasing at position %zu "
          "(%lld then %lld); the matching semantics require a total order",
          i, static_cast<long long>(events_[i - 1].timestamp()),
          static_cast<long long>(events_[i].timestamp())));
    }
  }
  return Status::OK();
}

}  // namespace ses
