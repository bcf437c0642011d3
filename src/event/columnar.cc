#include "event/columnar.h"

#include <utility>

namespace ses {

ColumnarBatch::ColumnarBatch(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_attributes());
  dict_index_.resize(schema_.num_attributes());
  for (const Attribute& attr : schema_.attributes()) {
    switch (attr.type) {
      case ValueType::kInt64:
        columns_.emplace_back(Int64Column{});
        break;
      case ValueType::kDouble:
        columns_.emplace_back(DoubleColumn{});
        break;
      case ValueType::kString:
        columns_.emplace_back(StringColumn{});
        break;
    }
  }
}

ColumnarBatch ColumnarBatch::FromEvents(const Schema& schema,
                                        std::span<const Event> events) {
  ColumnarBatch batch(schema);
  batch.ids_.reserve(events.size());
  batch.timestamps_.reserve(events.size());
  for (Column& column : batch.columns_) {
    if (auto* ints = std::get_if<Int64Column>(&column)) {
      ints->reserve(events.size());
    } else if (auto* doubles = std::get_if<DoubleColumn>(&column)) {
      doubles->reserve(events.size());
    } else {
      std::get<StringColumn>(column).codes.reserve(events.size());
    }
  }
  for (const Event& event : events) {
    batch.AppendRow(event.id(), event.timestamp(), event.values());
  }
  return batch;
}

std::vector<Event> ColumnarBatch::ToEvents() const {
  std::vector<Event> events;
  events.reserve(size());
  for (size_t row = 0; row < size(); ++row) {
    events.push_back(RowEvent(row));
  }
  return events;
}

Value ColumnarBatch::ValueAt(size_t row, int attribute) const {
  const Column& column = columns_[attribute];
  if (const auto* ints = std::get_if<Int64Column>(&column)) {
    return Value((*ints)[row]);
  }
  if (const auto* doubles = std::get_if<DoubleColumn>(&column)) {
    return Value((*doubles)[row]);
  }
  const StringColumn& strings = std::get<StringColumn>(column);
  return Value(strings.dict[strings.codes[row]]);
}

Event ColumnarBatch::RowEvent(size_t row) const {
  EventBuilder values(schema_.num_attributes());
  for (int attribute = 0; attribute < schema_.num_attributes(); ++attribute) {
    values.Append(ValueAt(row, attribute));
  }
  return std::move(values).Build(ids_[row], timestamps_[row]);
}

const ColumnarBatch::Int64Column& ColumnarBatch::int64_column(
    int attribute) const {
  const auto* column = std::get_if<Int64Column>(&columns_[attribute]);
  SES_CHECK(column != nullptr)
      << "attribute " << schema_.attribute(attribute).name
      << " is not an INT64 column";
  return *column;
}

const ColumnarBatch::DoubleColumn& ColumnarBatch::double_column(
    int attribute) const {
  const auto* column = std::get_if<DoubleColumn>(&columns_[attribute]);
  SES_CHECK(column != nullptr)
      << "attribute " << schema_.attribute(attribute).name
      << " is not a DOUBLE column";
  return *column;
}

const ColumnarBatch::StringColumn& ColumnarBatch::string_column(
    int attribute) const {
  const auto* column = std::get_if<StringColumn>(&columns_[attribute]);
  SES_CHECK(column != nullptr)
      << "attribute " << schema_.attribute(attribute).name
      << " is not a STRING column";
  return *column;
}

void ColumnarBatch::AppendRow(EventId id, Timestamp timestamp,
                              std::span<const Value> values) {
  SES_CHECK(static_cast<int>(values.size()) == schema_.num_attributes())
      << "event has " << values.size() << " values, schema has "
      << schema_.num_attributes() << " attributes";
  AppendIdTimestamp(id, timestamp);
  for (int attribute = 0; attribute < schema_.num_attributes(); ++attribute) {
    const Value& value = values[attribute];
    SES_CHECK(value.type() == schema_.attribute(attribute).type)
        << "attribute " << schema_.attribute(attribute).name << " expects "
        << ValueTypeToString(schema_.attribute(attribute).type) << ", got "
        << ValueTypeToString(value.type());
    switch (value.type()) {
      case ValueType::kInt64:
        AppendInt64(attribute, value.int64());
        break;
      case ValueType::kDouble:
        AppendDouble(attribute, value.as_double());
        break;
      case ValueType::kString:
        AppendString(attribute, value.string());
        break;
    }
  }
}

void ColumnarBatch::AppendIdTimestamp(EventId id, Timestamp timestamp) {
  ids_.push_back(id);
  timestamps_.push_back(timestamp);
}

void ColumnarBatch::AppendInt64(int attribute, int64_t value) {
  std::get<Int64Column>(columns_[attribute]).push_back(value);
}

void ColumnarBatch::AppendDouble(int attribute, double value) {
  std::get<DoubleColumn>(columns_[attribute]).push_back(value);
}

void ColumnarBatch::AppendString(int attribute, std::string value) {
  std::get<StringColumn>(columns_[attribute])
      .codes.push_back(Intern(attribute, std::move(value)));
}

void ColumnarBatch::SetIds(std::vector<EventId> ids) {
  SES_CHECK(ids.size() == size())
      << "id column size " << ids.size() << " != batch size " << size();
  ids_ = std::move(ids);
}

ColumnarBatch ColumnarBatch::Slice(size_t begin, size_t count) const {
  SES_CHECK(begin <= size() && count <= size() - begin)
      << "slice [" << begin << ", " << begin + count << ") out of range for "
      << size() << " rows";
  ColumnarBatch slice(schema_);
  slice.ids_.assign(ids_.begin() + begin, ids_.begin() + begin + count);
  slice.timestamps_.assign(timestamps_.begin() + begin,
                           timestamps_.begin() + begin + count);
  for (int attribute = 0; attribute < schema_.num_attributes(); ++attribute) {
    const Column& column = columns_[attribute];
    if (const auto* ints = std::get_if<Int64Column>(&column)) {
      std::get<Int64Column>(slice.columns_[attribute])
          .assign(ints->begin() + begin, ints->begin() + begin + count);
    } else if (const auto* doubles = std::get_if<DoubleColumn>(&column)) {
      std::get<DoubleColumn>(slice.columns_[attribute])
          .assign(doubles->begin() + begin, doubles->begin() + begin + count);
    } else {
      const StringColumn& strings = std::get<StringColumn>(column);
      for (size_t row = begin; row < begin + count; ++row) {
        slice.AppendString(attribute, strings.dict[strings.codes[row]]);
      }
    }
  }
  return slice;
}

int32_t ColumnarBatch::Intern(int attribute, std::string value) {
  auto& index = dict_index_[attribute];
  auto it = index.find(value);
  if (it != index.end()) return it->second;
  StringColumn& column = std::get<StringColumn>(columns_[attribute]);
  int32_t code = static_cast<int32_t>(column.dict.size());
  index.emplace(value, code);
  column.dict.push_back(std::move(value));
  return code;
}

}  // namespace ses
