#include <gtest/gtest.h>

#include "baseline/sequential_parser.h"
#include "columnar/dictionary.h"
#include "core/parser.h"
#include "query/pushdown.h"
#include "query/query.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

TEST(PushdownTest, MatchesParseThenFilter) {
  const std::string csv = GenerateTaxiLike(66, 64 * 1024);
  ParseOptions options;
  options.schema = TaxiSchema();
  const Predicate predicate{6, CompareOp::kEq, "Y"};

  // Reference: parse everything, then gather matching rows.
  auto full = Parser::Parse(csv, options);
  ASSERT_TRUE(full.ok());
  auto selection = EvaluatePredicate(full->table, predicate);
  ASSERT_TRUE(selection.ok());
  auto expected = GatherRows(full->table, *selection);
  ASSERT_TRUE(expected.ok());

  PushdownStats stats;
  auto pushed = ParseWithPushdown(csv, options, predicate, &stats);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_TRUE(pushed->table.Equals(*expected));
  EXPECT_EQ(stats.records_scanned, full->table.num_rows);
  EXPECT_EQ(stats.records_selected, expected->num_rows);
  EXPECT_LT(stats.Selectivity(), 0.2);  // 'Y' is ~5% of rows
}

TEST(PushdownTest, WorksOnQuotedData) {
  const std::string csv =
      "1,\"match, with\ncomma\"\n2,\"other\"\n3,\"also match\"\n";
  ParseOptions options;
  options.schema.AddField(Field("id", DataType::Int64()));
  options.schema.AddField(Field("text", DataType::String()));
  auto pushed = ParseWithPushdown(csv, options,
                                  {1, CompareOp::kContains, "match"});
  ASSERT_TRUE(pushed.ok());
  ASSERT_EQ(pushed->table.num_rows, 2);
  EXPECT_EQ(pushed->table.columns[0].Value<int64_t>(0), 1);
  EXPECT_EQ(pushed->table.columns[0].Value<int64_t>(1), 3);
}

TEST(PushdownTest, InvalidConfigurations) {
  ParseOptions no_schema;
  EXPECT_FALSE(
      ParseWithPushdown("a\n", no_schema, {0, CompareOp::kEq, "a"}).ok());

  ParseOptions options;
  options.schema.AddField(Field("a", DataType::String()));
  EXPECT_FALSE(
      ParseWithPushdown("a\n", options, {5, CompareOp::kEq, "a"}).ok());

  options.skip_records = {1};
  EXPECT_FALSE(
      ParseWithPushdown("a\n", options, {0, CompareOp::kEq, "a"}).ok());
  options.skip_records.clear();
  options.column_count_policy = ColumnCountPolicy::kReject;
  EXPECT_FALSE(
      ParseWithPushdown("a\n", options, {0, CompareOp::kEq, "a"}).ok());
}

// Phase 2 reads phase 1's rows as record numbers, so under kSkip phase 1
// must keep a record whose predicate value is malformed.
TEST(PushdownTest, SkipPolicyKeepsRecordNumbering) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::Int64()));
  options.schema.AddField(Field("b", DataType::Int64()));
  options.error_policy = robust::ErrorPolicy::kSkip;
  PushdownStats stats;
  auto pushed = ParseWithPushdown("x,1\n2,2\n3,3\n", options,
                                  {0, CompareOp::kEq, "3"}, &stats);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_EQ(pushed->table.num_rows, 1);
  EXPECT_EQ(pushed->table.columns[0].Value<int64_t>(0), 3);
  EXPECT_EQ(pushed->table.columns[1].Value<int64_t>(0), 3);
  EXPECT_EQ(stats.records_scanned, 3);
  EXPECT_EQ(stats.records_selected, 1);
}

TEST(PushdownTest, NoMatches) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::Int64()));
  auto pushed = ParseWithPushdown("1\n2\n3\n", options,
                                  {0, CompareOp::kGt, "100"});
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(pushed->table.num_rows, 0);
}

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  Column column(DataType::String());
  column.AppendString("red");
  column.AppendString("green");
  column.AppendString("red");
  column.AppendNull();
  column.AppendString("blue");
  column.AppendString("green");
  auto encoded = DictionaryEncode(column);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->cardinality(), 3);
  EXPECT_EQ(encoded->codes,
            (std::vector<int32_t>{0, 1, 0, -1, 2, 1}));
  EXPECT_EQ(encoded->dictionary.StringValue(0), "red");
  EXPECT_EQ(encoded->dictionary.StringValue(2), "blue");
  const Column decoded = encoded->Decode();
  EXPECT_TRUE(decoded.Equals(column));
}

TEST(DictionaryTest, CompressionOnLowCardinality) {
  ParseOptions options;
  options.schema = TaxiSchema();
  const std::string csv = GenerateTaxiLike(5, 64 * 1024);
  auto parsed = Parser::Parse(csv, options);
  ASSERT_TRUE(parsed.ok());
  const Column& flags = parsed->table.columns[6];  // Y/N column
  auto encoded = DictionaryEncode(flags);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->cardinality(), 2);
  // 4 bytes/row codes beat 8-byte offsets + data? Not necessarily for
  // 1-char strings, but the dictionary itself must be tiny.
  EXPECT_LE(encoded->dictionary.TotalBufferBytes(), 64);
  EXPECT_TRUE(encoded->Decode().Equals(flags));
}

TEST(DictionaryTest, TypeAndEmptyEdgeCases) {
  Column ints(DataType::Int64());
  ints.AppendValue<int64_t>(1);
  EXPECT_FALSE(DictionaryEncode(ints).ok());

  Column empty(DataType::String());
  empty.Allocate(0);
  auto encoded = DictionaryEncode(empty);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->num_rows(), 0);
  EXPECT_EQ(encoded->cardinality(), 0);
  EXPECT_EQ(encoded->Decode().length(), 0);
}

TEST(LineitemTest, ParsesUnderPipeDsv) {
  DsvOptions dsv;
  dsv.field_delimiter = '|';
  dsv.quote = 0;
  auto format = DsvFormat(dsv);
  ASSERT_TRUE(format.ok());
  ParseOptions options;
  options.format = *format;
  options.schema = LineitemSchema();
  options.validate = true;
  const std::string data = GenerateLineitemLike(3, 64 * 1024);
  auto result = Parser::Parse(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_columns(), 16);
  EXPECT_GT(result->table.num_rows, 100);
  EXPECT_EQ(result->table.NumRejected(), 0);
  // Parity with the sequential reference.
  auto expected = SequentialParser::Parse(data, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(result->table.Equals(expected->table));
  // TPC-H Q1-style sanity: aggregate by returnflag+linestatus.
  QuerySpec spec;
  spec.group_by = 8;
  spec.aggregates = {Aggregate(AggKind::kCountAll),
                     Aggregate(AggKind::kSum, 4)};
  auto q1 = RunQuery(result->table, spec);
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->num_rows, 3);  // R, N, A
}

}  // namespace
}  // namespace parparaw
