#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "columnar/column.h"
#include "columnar/schema.h"
#include "columnar/table.h"
#include "columnar/types.h"

namespace parparaw {
namespace {

TEST(TypesTest, FixedWidths) {
  EXPECT_EQ(FixedWidth(TypeId::kBool), 1);
  EXPECT_EQ(FixedWidth(TypeId::kInt32), 4);
  EXPECT_EQ(FixedWidth(TypeId::kInt64), 8);
  EXPECT_EQ(FixedWidth(TypeId::kFloat64), 8);
  EXPECT_EQ(FixedWidth(TypeId::kDate32), 4);
  EXPECT_EQ(FixedWidth(TypeId::kTimestampMicros), 8);
  EXPECT_EQ(FixedWidth(TypeId::kString), 0);
  EXPECT_TRUE(IsFixedWidth(TypeId::kInt64));
  EXPECT_FALSE(IsFixedWidth(TypeId::kString));
}

TEST(TypesTest, ToStringAndEquality) {
  EXPECT_EQ(DataType::Int64().ToString(), "int64");
  EXPECT_EQ(DataType::Decimal64(2).ToString(), "decimal64(2)");
  EXPECT_TRUE(DataType::Decimal64(2) == DataType::Decimal64(2));
  EXPECT_FALSE(DataType::Decimal64(2) == DataType::Decimal64(3));
  EXPECT_FALSE(DataType::Int64() == DataType::Int32());
}

TEST(SchemaTest, FieldLookup) {
  Schema schema;
  schema.AddField(Field("id", DataType::Int64(), false));
  schema.AddField(Field("name", DataType::String()));
  EXPECT_EQ(schema.num_fields(), 2);
  EXPECT_EQ(schema.FieldIndex("name"), 1);
  EXPECT_EQ(schema.FieldIndex("missing"), -1);
  EXPECT_EQ(schema.ToString(), "schema{id: int64 NOT NULL, name: string}");
}

TEST(ColumnTest, AppendFixedWidth) {
  Column column(DataType::Int64());
  column.AppendValue<int64_t>(10);
  column.AppendNull();
  column.AppendValue<int64_t>(-5);
  EXPECT_EQ(column.length(), 3);
  EXPECT_EQ(column.Value<int64_t>(0), 10);
  EXPECT_TRUE(column.IsNull(1));
  EXPECT_EQ(column.Value<int64_t>(2), -5);
  EXPECT_EQ(column.ValueToString(0), "10");
  EXPECT_EQ(column.ValueToString(1), "NULL");
}

TEST(ColumnTest, AppendStrings) {
  Column column(DataType::String());
  column.AppendString("hello");
  column.AppendString("");
  column.AppendNull();
  column.AppendString("world");
  EXPECT_EQ(column.length(), 4);
  EXPECT_EQ(column.StringValue(0), "hello");
  EXPECT_EQ(column.StringValue(1), "");
  EXPECT_FALSE(column.IsNull(1));  // empty string is valid
  EXPECT_TRUE(column.IsNull(2));
  EXPECT_EQ(column.StringValue(3), "world");
}

TEST(ColumnTest, PositionalWrites) {
  Column column(DataType::Float64());
  column.Allocate(3);
  column.SetValue<double>(0, 1.5);
  column.SetNull(1);
  column.SetValue<double>(2, -2.25);
  EXPECT_EQ(column.Value<double>(0), 1.5);
  EXPECT_TRUE(column.IsNull(1));
  EXPECT_EQ(column.Value<double>(2), -2.25);
}

TEST(ColumnTest, EqualsComparesValuesAndValidity) {
  Column a(DataType::Int32());
  Column b(DataType::Int32());
  a.AppendValue<int32_t>(1);
  a.AppendNull();
  b.AppendValue<int32_t>(1);
  b.AppendNull();
  EXPECT_TRUE(a.Equals(b));
  b.AppendValue<int32_t>(2);
  EXPECT_FALSE(a.Equals(b));  // length differs
  Column c(DataType::Int32());
  c.AppendValue<int32_t>(1);
  c.AppendValue<int32_t>(0);  // valid zero vs null
  EXPECT_FALSE(a.Equals(c));
}

TEST(ColumnTest, DecimalToString) {
  Column column(DataType::Decimal64(2));
  column.AppendValue<int64_t>(1250);
  column.AppendValue<int64_t>(-305);
  EXPECT_EQ(column.ValueToString(0), "12.50");
  EXPECT_EQ(column.ValueToString(1), "-3.05");
}

TEST(ColumnTest, ConcatFixedWidth) {
  Column a(DataType::Int64());
  a.AppendValue<int64_t>(1);
  a.AppendNull();
  Column b(DataType::Int64());
  b.AppendValue<int64_t>(3);
  a.Concat(b);
  EXPECT_EQ(a.length(), 3);
  EXPECT_EQ(a.Value<int64_t>(0), 1);
  EXPECT_TRUE(a.IsNull(1));
  EXPECT_EQ(a.Value<int64_t>(2), 3);
}

TEST(ColumnTest, ConcatStrings) {
  Column a(DataType::String());
  a.AppendString("x");
  a.AppendNull();
  Column b(DataType::String());
  b.AppendString("yz");
  b.AppendString("");
  a.Concat(b);
  EXPECT_EQ(a.length(), 4);
  EXPECT_EQ(a.StringValue(0), "x");
  EXPECT_TRUE(a.IsNull(1));
  EXPECT_EQ(a.StringValue(2), "yz");
  EXPECT_EQ(a.StringValue(3), "");
}

TEST(TableTest, EqualsAndConcat) {
  auto make = [](int64_t first) {
    Table t;
    t.schema.AddField(Field("v", DataType::Int64()));
    Column c(DataType::Int64());
    c.AppendValue<int64_t>(first);
    c.AppendValue<int64_t>(first + 1);
    t.columns.push_back(std::move(c));
    t.num_rows = 2;
    t.rejected.assign(2, 0);
    return t;
  };
  Table a = make(0);
  Table b = make(0);
  EXPECT_TRUE(a.Equals(b));
  Table c = make(5);
  EXPECT_FALSE(a.Equals(c));

  Table merged = ConcatTables({a, c});
  EXPECT_EQ(merged.num_rows, 4);
  EXPECT_EQ(merged.columns[0].Value<int64_t>(3), 6);
  EXPECT_EQ(merged.rejected.size(), 4u);
}

// A one-table vector passed by move is the executor's single-partition
// result: the table must be moved into the result, not deep-copied.
TEST(TableTest, ConcatOfOneMovedTableKeepsItsBuffers) {
  Table t;
  t.schema.AddField(Field("id", DataType::Int64()));
  t.schema.AddField(Field("name", DataType::String()));
  Column id(DataType::Int64());
  Column name(DataType::String());
  for (int64_t i = 0; i < 1000; ++i) {
    id.AppendValue<int64_t>(i);
    name.AppendString("name" + std::to_string(i));
  }
  t.columns.push_back(std::move(id));
  t.columns.push_back(std::move(name));
  t.num_rows = 1000;
  t.rejected.assign(1000, 0);
  const Table want = t;
  std::vector<Table> tables;
  tables.push_back(std::move(t));
  const uint8_t* id_data = tables[0].columns[0].data().data();
  const uint8_t* name_data = tables[0].columns[1].string_data().data();

  const Table merged = ConcatTables(std::move(tables));
  EXPECT_EQ(merged.columns[0].data().data(), id_data);
  EXPECT_EQ(merged.columns[1].string_data().data(), name_data);
  EXPECT_TRUE(merged.Equals(want));
  EXPECT_EQ(merged.rejected, want.rejected);
}

TEST(TableTest, RowToStringAndBufferBytes) {
  Table t;
  t.schema.AddField(Field("id", DataType::Int64()));
  t.schema.AddField(Field("name", DataType::String()));
  Column id(DataType::Int64());
  id.AppendValue<int64_t>(7);
  Column name(DataType::String());
  name.AppendString("abc");
  t.columns.push_back(std::move(id));
  t.columns.push_back(std::move(name));
  t.num_rows = 1;
  EXPECT_EQ(t.RowToString(0), "7,abc");
  EXPECT_GT(t.TotalBufferBytes(), 0);
}

}  // namespace
}  // namespace parparaw
