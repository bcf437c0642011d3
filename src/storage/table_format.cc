#include "storage/table_format.h"

#include <cstring>

namespace ses::storage {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);  // little-endian hosts only (x86/arm64)
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

uint32_t GetFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

const char* GetVarint64(const char* p, const char* limit, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(*p);
    ++p;
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *v = result;
      return p;
    }
  }
  return nullptr;
}

void EncodeSchema(const Schema& schema, std::string* dst) {
  PutVarint64(dst, static_cast<uint64_t>(schema.num_attributes()));
  for (const Attribute& attr : schema.attributes()) {
    PutVarint64(dst, attr.name.size());
    dst->append(attr.name);
    PutVarint64(dst, static_cast<uint64_t>(attr.type));
  }
}

Result<Schema> DecodeSchema(const char** p, const char* limit) {
  uint64_t count = 0;
  const char* cur = GetVarint64(*p, limit, &count);
  if (cur == nullptr) return Status::Corruption("truncated schema count");
  std::vector<Attribute> attributes;
  attributes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    cur = GetVarint64(cur, limit, &name_len);
    if (cur == nullptr || static_cast<uint64_t>(limit - cur) < name_len) {
      return Status::Corruption("truncated schema attribute name");
    }
    std::string name(cur, name_len);
    cur += name_len;
    uint64_t type = 0;
    cur = GetVarint64(cur, limit, &type);
    if (cur == nullptr || type > static_cast<uint64_t>(ValueType::kString)) {
      return Status::Corruption("invalid schema attribute type");
    }
    attributes.push_back(Attribute{std::move(name),
                                   static_cast<ValueType>(type)});
  }
  SES_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attributes)));
  *p = cur;
  return schema;
}

void EncodeEvent(const Event& event, const Schema& schema, std::string* dst) {
  PutVarint64(dst, ZigZagEncode(event.id()));
  PutVarint64(dst, ZigZagEncode(event.timestamp()));
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const Value& v = event.value(i);
    switch (schema.attribute(i).type) {
      case ValueType::kInt64:
        PutVarint64(dst, ZigZagEncode(v.int64()));
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        double d = v.as_double();
        std::memcpy(&bits, &d, 8);
        PutFixed64(dst, bits);
        break;
      }
      case ValueType::kString:
        PutVarint64(dst, v.string().size());
        dst->append(v.string());
        break;
    }
  }
}

Result<Event> DecodeEvent(const char** p, const char* limit,
                          const Schema& schema) {
  const char* cur = *p;
  uint64_t raw = 0;
  cur = GetVarint64(cur, limit, &raw);
  if (cur == nullptr) return Status::Corruption("truncated event id");
  EventId id = ZigZagDecode(raw);
  cur = GetVarint64(cur, limit, &raw);
  if (cur == nullptr) return Status::Corruption("truncated event timestamp");
  Timestamp timestamp = ZigZagDecode(raw);

  EventBuilder values(schema.num_attributes());
  for (int i = 0; i < schema.num_attributes(); ++i) {
    switch (schema.attribute(i).type) {
      case ValueType::kInt64: {
        cur = GetVarint64(cur, limit, &raw);
        if (cur == nullptr) return Status::Corruption("truncated int value");
        values.Append(ZigZagDecode(raw));
        break;
      }
      case ValueType::kDouble: {
        if (limit - cur < 8) return Status::Corruption("truncated double");
        uint64_t bits = GetFixed64(cur);
        cur += 8;
        double d;
        std::memcpy(&d, &bits, 8);
        values.Append(d);
        break;
      }
      case ValueType::kString: {
        uint64_t len = 0;
        cur = GetVarint64(cur, limit, &len);
        if (cur == nullptr || static_cast<uint64_t>(limit - cur) < len) {
          return Status::Corruption("truncated string value");
        }
        values.Append(std::string(cur, len));
        cur += len;
        break;
      }
    }
  }
  *p = cur;
  return std::move(values).Build(id, timestamp);
}

}  // namespace ses::storage
