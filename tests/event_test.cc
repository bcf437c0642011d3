// Unit tests for the event model: Value, Schema, Event, EventRelation, CSV.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <thread>
#include <vector>

#include "event/columnar.h"
#include "event/csv.h"
#include "event/event.h"
#include "event/relation.h"
#include "event/schema.h"
#include "event/value.h"

// Counts every heap allocation of this test binary, so the event tests can
// pin exactly how many allocations constructing and copying an Event costs.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(size_t size) {
  if (void* block = operator new(size, std::nothrow)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, size_t) noexcept { std::free(block); }

namespace ses {
namespace {

TEST(Value, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s(std::string("C"));
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.int64(), 42);
  EXPECT_DOUBLE_EQ(d.as_double(), 3.5);
  EXPECT_EQ(s.string(), "C");
  EXPECT_DOUBLE_EQ(i.AsNumber(), 42.0);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("WHO-Tox").ToString(), "WHO-Tox");
}

TEST(Value, EqualityAcrossNumericTypes) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_NE(Value(int64_t{2}), Value(2.5));
  EXPECT_EQ(Value("x"), Value(std::string("x")));
  EXPECT_NE(Value("2"), Value(int64_t{2}));  // string vs number
}

TEST(Value, CompareNumbers) {
  EXPECT_LT(Compare(Value(int64_t{1}), Value(int64_t{2})), 0);
  EXPECT_GT(Compare(Value(2.5), Value(int64_t{2})), 0);
  EXPECT_EQ(Compare(Value(int64_t{2}), Value(2.0)), 0);
}

TEST(Value, CompareStrings) {
  EXPECT_LT(Compare(Value("B"), Value("C")), 0);
  EXPECT_EQ(Compare(Value("P"), Value("P")), 0);
}

TEST(Value, TypesComparable) {
  EXPECT_TRUE(TypesComparable(ValueType::kInt64, ValueType::kDouble));
  EXPECT_TRUE(TypesComparable(ValueType::kString, ValueType::kString));
  EXPECT_FALSE(TypesComparable(ValueType::kInt64, ValueType::kString));
}

TEST(Value, TypeNames) {
  EXPECT_EQ(ValueTypeToString(ValueType::kInt64), "INT");
  EXPECT_EQ(*ValueTypeFromString("double"), ValueType::kDouble);
  EXPECT_EQ(*ValueTypeFromString("VARCHAR"), ValueType::kString);
  EXPECT_FALSE(ValueTypeFromString("blob").ok());
}

Schema TestSchema() {
  return *Schema::Create({{"ID", ValueType::kInt64},
                          {"L", ValueType::kString},
                          {"V", ValueType::kDouble}});
}

TEST(Schema, CreateValidatesNames) {
  EXPECT_FALSE(Schema::Create({{"", ValueType::kInt64}}).ok());
  EXPECT_FALSE(Schema::Create({{"T", ValueType::kInt64}}).ok());
  EXPECT_FALSE(Schema::Create({{"A", ValueType::kInt64},
                               {"A", ValueType::kString}})
                   .ok());
  EXPECT_TRUE(Schema::Create({}).ok());  // attribute-less events are legal
}

TEST(Schema, Lookup) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.num_attributes(), 3);
  EXPECT_EQ(*schema.IndexOf("L"), 1);
  EXPECT_FALSE(schema.IndexOf("missing").ok());
  EXPECT_TRUE(schema.Contains("V"));
  EXPECT_EQ(schema.ToString(), "(ID INT, L STRING, V DOUBLE)");
}

TEST(Schema, Equality) {
  EXPECT_EQ(TestSchema(), TestSchema());
  Schema other = *Schema::Create({{"ID", ValueType::kInt64}});
  EXPECT_NE(TestSchema(), other);
}

TEST(Event, AccessorsAndToString) {
  Event e(3, duration::Days(2) + duration::Hours(11),
          {Value(int64_t{1}), Value("B"), Value(84.0)});
  EXPECT_EQ(e.id(), 3);
  EXPECT_EQ(e.timestamp(), duration::Days(2) + duration::Hours(11));
  EXPECT_EQ(e.num_values(), 3);
  EXPECT_EQ(e.value(1).string(), "B");
  EXPECT_EQ(e.ToString(), "e3@2+11:00:00{1, B, 84}");
}

TEST(Event, DefaultConstructedHasNoValues) {
  Event e;
  EXPECT_EQ(e.id(), kInvalidEventId);
  EXPECT_EQ(e.timestamp(), 0);
  EXPECT_EQ(e.num_values(), 0);
  EXPECT_TRUE(e.values().empty());
  Event copy = e;
  EXPECT_EQ(copy.num_values(), 0);
  EXPECT_EQ(e.ToString(), "e-1@0+00:00:00{}");
}

TEST(Event, CopySharesValuesButOwnsIdAndTimestamp) {
  Event original(1, 100, {Value(int64_t{7}), Value("B"), Value(2.5)});
  Event copy = original;
  EXPECT_EQ(&copy.value(1), &original.value(1));  // one payload, not two
  copy.set_id(9);
  copy.set_timestamp(500);
  EXPECT_EQ(original.id(), 1);
  EXPECT_EQ(original.timestamp(), 100);
  EXPECT_EQ(copy.id(), 9);
  EXPECT_EQ(copy.timestamp(), 500);
  EXPECT_EQ(copy.value(1).string(), "B");

  // Assignment shares too; a separately constructed event does not.
  Event assigned;
  assigned = copy;
  EXPECT_EQ(&assigned.value(1), &original.value(1));
  Event same_values(1, 100, {Value(int64_t{7}), Value("B"), Value(2.5)});
  EXPECT_NE(&same_values.value(1), &original.value(1));
  EXPECT_TRUE(std::ranges::equal(same_values.values(), original.values()));

  // Moving hands the payload over without touching it.
  const Value* payload = &original.value(0);
  Event moved = std::move(original);
  EXPECT_EQ(&moved.value(0), payload);
  EXPECT_EQ(original.num_values(), 0);  // the moved-from handle is empty
}

TEST(Event, CopyAllocatesNothingAndConstructionAllocatesOnce) {
  // Short strings stay in the std::string inline buffer, so every
  // allocation counted below belongs to the event itself.
  std::vector<Value> values = {Value(int64_t{1}), Value("B"), Value(84.0)};
  int64_t before = g_allocations.load();
  Event event(1, 100, std::move(values));
  EXPECT_EQ(g_allocations.load() - before, 1);

  before = g_allocations.load();
  Event copy = event;
  Event assigned;
  assigned = copy;
  std::vector<Event> slab(4, event);  // the vector's own buffer: one
  EXPECT_EQ(g_allocations.load() - before, 1);

  before = g_allocations.load();
  EventBuilder builder(2);
  builder.Append(Value(int64_t{7}));
  builder.Append(Value("mgl"));
  Event built = std::move(builder).Build(2, 200);
  EXPECT_EQ(g_allocations.load() - before, 1);
  EXPECT_EQ(built.ToString(), "e2@0+00:03:20{7, mgl}");
}

TEST(Event, AbandonedBuilderReleasesWhatItBuilt) {
  // A decoder that fails halfway drops its builder; the values built so
  // far are destroyed (the leak checker of sanitizer builds watches this).
  EventBuilder builder(3);
  builder.Append(Value(int64_t{1}));
  builder.Append(Value(std::string(64, 'x')));  // heap-allocated string
}

TEST(Event, ValuesOutliveTheRelationAndSlabTheyCameFrom) {
  const std::string label(40, 'L');  // longer than the inline buffer
  Event from_relation;
  Event from_columns;
  {
    EventRelation relation(TestSchema());
    Event event(kInvalidEventId, 10,
                {Value(int64_t{1}), Value(label), Value(0.5)});
    ASSERT_TRUE(relation.Append(event).ok());
    std::vector<Event> slab(relation.begin(), relation.end());
    ColumnarBatch batch = ColumnarBatch::FromEvents(relation.schema(), slab);
    from_relation = slab[0];
    from_columns = batch.RowEvent(0);
  }
  EXPECT_EQ(from_relation.value(1).string(), label);
  EXPECT_EQ(from_columns.value(1).string(), label);
  EXPECT_EQ(from_columns.id(), 1);
  EXPECT_EQ(from_columns.timestamp(), 10);
}

TEST(Event, CopiesAcrossThreadsShareOnePayload) {
  // Reference counts cross threads (ingest thread to shard workers); the
  // thread-sanitizer build checks this for races.
  Event event(1, 1, {Value(int64_t{3}), Value(std::string(32, 'c'))});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([event] {
      std::vector<Event> copies;
      for (int i = 0; i < 1000; ++i) copies.push_back(event);
      for (const Event& copy : copies) {
        EXPECT_EQ(&copy.value(1), &event.value(1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(event.value(1).string(), std::string(32, 'c'));
}

TEST(EventRelation, AppendValidatesArityTypeAndOrder) {
  EventRelation r(TestSchema());
  EXPECT_TRUE(
      r.Append(Event(kInvalidEventId, 10,
                     {Value(int64_t{1}), Value("A"), Value(1.0)}))
          .ok());
  // Wrong arity.
  EXPECT_EQ(r.Append(Event(kInvalidEventId, 11, {Value(int64_t{1})}))
                .code(),
            StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(r.Append(Event(kInvalidEventId, 11,
                           {Value("x"), Value("A"), Value(1.0)}))
                .code(),
            StatusCode::kInvalidArgument);
  // Time going backwards.
  EXPECT_EQ(r.Append(Event(kInvalidEventId, 9,
                           {Value(int64_t{1}), Value("A"), Value(1.0)}))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(r.size(), 1u);
}

TEST(EventRelation, AssignsSequentialIds) {
  EventRelation r(TestSchema());
  r.AppendUnchecked(1, {Value(int64_t{1}), Value("A"), Value(1.0)});
  r.AppendUnchecked(2, {Value(int64_t{1}), Value("B"), Value(2.0)});
  EXPECT_EQ(r.event(0).id(), 1);
  EXPECT_EQ(r.event(1).id(), 2);
  EXPECT_EQ(r.min_timestamp(), 1);
  EXPECT_EQ(r.max_timestamp(), 2);
}

TEST(EventRelation, ValidateTotalOrderRejectsTies) {
  EventRelation r(TestSchema());
  r.AppendUnchecked(5, {Value(int64_t{1}), Value("A"), Value(1.0)});
  r.AppendUnchecked(5, {Value(int64_t{1}), Value("B"), Value(2.0)});
  EXPECT_EQ(r.ValidateTotalOrder().code(), StatusCode::kFailedPrecondition);
}

EventRelation CsvFixture() {
  EventRelation r(TestSchema());
  r.AppendUnchecked(9, {Value(int64_t{1}), Value("C"), Value(1672.5)});
  r.AppendUnchecked(10, {Value(int64_t{2}), Value("quoted, \"field\""),
                         Value(-0.5)});
  r.AppendUnchecked(11, {Value(int64_t{3}), Value("line\nbreak"),
                         Value(0.0)});
  return r;
}

TEST(Csv, RoundTripPreservesEverything) {
  EventRelation original = CsvFixture();
  std::string csv = WriteCsvString(original);
  Result<EventRelation> parsed = ReadCsvString(csv, original.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->event(i).timestamp(), original.event(i).timestamp());
    for (int a = 0; a < original.schema().num_attributes(); ++a) {
      EXPECT_EQ(parsed->event(i).value(a), original.event(i).value(a))
          << "row " << i << " attr " << a;
    }
  }
}

TEST(Csv, HeaderIsValidated) {
  Schema schema = TestSchema();
  EXPECT_FALSE(ReadCsvString("", schema).ok());
  EXPECT_FALSE(ReadCsvString("X,ID,L,V\n", schema).ok());
  EXPECT_FALSE(ReadCsvString("T,ID,L\n", schema).ok());      // missing column
  EXPECT_FALSE(ReadCsvString("T,ID,V,L\n", schema).ok());    // wrong order
  EXPECT_TRUE(ReadCsvString("T,ID,L,V\n", schema).ok());     // empty relation
}

TEST(Csv, ArrivalOrderReadAcceptsDisorderAndRanksIds) {
  Schema schema = TestSchema();
  // Time order 10 < 20 < 30, arriving 20, 10, 30.
  Result<std::vector<Event>> events = ReadCsvStringArrivalOrder(
      "T,ID,L,V\n20,2,B,2.0\n10,1,A,1.0\n30,3,C,3.0\n", schema);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 3u);
  // Arrival order is preserved...
  EXPECT_EQ((*events)[0].timestamp(), 20);
  EXPECT_EQ((*events)[1].timestamp(), 10);
  EXPECT_EQ((*events)[2].timestamp(), 30);
  // ...but ids are timestamp ranks: what the in-order file would assign.
  EXPECT_EQ((*events)[0].id(), 2);
  EXPECT_EQ((*events)[1].id(), 1);
  EXPECT_EQ((*events)[2].id(), 3);
  // The ordered reader still rejects the same bytes.
  EXPECT_FALSE(
      ReadCsvString("T,ID,L,V\n20,2,B,2.0\n10,1,A,1.0\n", schema).ok());
}

TEST(Csv, RejectsMalformedRows) {
  Schema schema = TestSchema();
  // Too few fields.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\n1,2,A\n", schema).ok());
  // Non-numeric timestamp.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\nxx,2,A,1.0\n", schema).ok());
  // Non-numeric int attribute.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\n1,two,A,1.0\n", schema).ok());
  // Unterminated quote.
  EXPECT_FALSE(ReadCsvString("T,ID,L,V\n1,2,\"A,1.0\n", schema).ok());
}

TEST(Csv, ErrorsNameRowAndColumn) {
  Schema schema = TestSchema();
  // Bad timestamp on the second data row: the message names the 1-based
  // data row and the timestamp column 'T'.
  Status bad_ts =
      ReadCsvString("T,ID,L,V\n1,1,A,1.0\nxx,2,B,2.0\n", schema).status();
  EXPECT_EQ(bad_ts.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_ts.message().find("CSV row 2 column 'T'"), std::string::npos)
      << bad_ts.message();
  // Bad INT64 field on row 1, column ID.
  Status bad_int = ReadCsvString("T,ID,L,V\n1,two,A,1.0\n", schema).status();
  EXPECT_NE(bad_int.message().find("CSV row 1 column 'ID'"),
            std::string::npos)
      << bad_int.message();
  // Bad DOUBLE field on row 3, column V.
  Status bad_double =
      ReadCsvString("T,ID,L,V\n1,1,A,1.0\n2,2,B,2.0\n3,3,C,nope\n", schema)
          .status();
  EXPECT_NE(bad_double.message().find("CSV row 3 column 'V'"),
            std::string::npos)
      << bad_double.message();
  // Arity mismatch keeps naming the row.
  Status bad_arity = ReadCsvString("T,ID,L,V\n1,2,A\n", schema).status();
  EXPECT_NE(bad_arity.message().find("CSV row 1"), std::string::npos)
      << bad_arity.message();
  // The arrival-order reader shares the decode path, so it reports the
  // same cell.
  Status arrival =
      ReadCsvStringArrivalOrder("T,ID,L,V\n5,x,A,1.0\n", schema).status();
  EXPECT_NE(arrival.message().find("CSV row 1 column 'ID'"),
            std::string::npos)
      << arrival.message();
}

TEST(Csv, ColumnarDecodeMatchesRowDecode) {
  EventRelation original = CsvFixture();
  std::string csv = WriteCsvString(original);
  Result<ColumnarBatch> batch =
      ReadCsvStringColumnar(csv, original.schema());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), original.size());
  std::vector<Event> rows = batch->ToEvents();
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rows[i].id(), original.event(i).id());
    EXPECT_EQ(rows[i].timestamp(), original.event(i).timestamp());
    for (int a = 0; a < original.schema().num_attributes(); ++a) {
      EXPECT_EQ(rows[i].value(a), original.event(i).value(a))
          << "row " << i << " attr " << a;
    }
  }
}

TEST(Csv, FileRoundTrip) {
  EventRelation original = CsvFixture();
  std::string path =
      (std::filesystem::temp_directory_path() / "ses_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  Result<EventRelation> parsed = ReadCsvFile(path, original.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), original.size());
  std::remove(path.c_str());
  EXPECT_FALSE(ReadCsvFile(path, original.schema()).ok());
}

}  // namespace
}  // namespace ses
