#include <gtest/gtest.h>

#include "baseline/sequential_parser.h"
#include "core/parser.h"
#include "json/json_lines.h"

namespace parparaw {
namespace {

TEST(JsonDfaTest, RecordBoundariesIgnoreQuotedBraces) {
  auto format = JsonLinesFormat();
  ASSERT_TRUE(format.ok());
  ParseOptions options;
  options.format = *format;
  // The string contains \" and a raw newline — neither may split records.
  const std::string input =
      "{\"a\":1}\n"
      "{\"t\":\"brace } quote \\\" and\nnewline\"}\n"
      "{\"b\":2}\n";
  auto result = Parser::Parse(input, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 3);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "{\"a\":1}");
  EXPECT_EQ(result->table.columns[0].StringValue(1),
            "{\"t\":\"brace } quote \\\" and\nnewline\"}");
}

TEST(JsonDfaTest, EmptyLinesSkippedAndTrailingRecordKept) {
  auto format = JsonLinesFormat();
  ASSERT_TRUE(format.ok());
  ParseOptions options;
  options.format = *format;
  auto result = Parser::Parse("\n\n{\"a\":1}\n\n{\"b\":2}", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[0].StringValue(1), "{\"b\":2}");
}

TEST(JsonDfaTest, ChunkSizeInvariance) {
  auto format = JsonLinesFormat();
  ASSERT_TRUE(format.ok());
  const std::string input =
      "{\"k\":\"long \\\\ string with \\\" inside\"}\n{\"k\":null}\n";
  ParseOptions reference_options;
  reference_options.format = *format;
  auto reference = SequentialParser::Parse(input, reference_options);
  ASSERT_TRUE(reference.ok());
  for (size_t chunk : {1u, 2u, 3u, 5u, 17u}) {
    ParseOptions options;
    options.format = *format;
    options.chunk_size = chunk;
    auto result = Parser::Parse(input, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->table.Equals(reference->table)) << chunk;
  }
}

TEST(ExtractJsonFieldTest, ScalarsAndStrings) {
  const std::string obj =
      "{\"i\": 42, \"f\": -1.5, \"b\": true, \"n\": null, "
      "\"s\": \"he\\\"llo\\n\", \"u\": \"\\u00e9\\uD83D\\uDE00\"}";
  auto i = ExtractJsonField(obj, "i");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(**i, "42");
  auto f = ExtractJsonField(obj, "f");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(**f, "-1.5");
  auto b = ExtractJsonField(obj, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(**b, "true");
  auto n = ExtractJsonField(obj, "n");
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n->has_value());  // JSON null
  auto s = ExtractJsonField(obj, "s");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(**s, "he\"llo\n");
  auto u = ExtractJsonField(obj, "u");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(**u, "\xC3\xA9\xF0\x9F\x98\x80");  // é😀
}

TEST(ExtractJsonFieldTest, MissingKeyAndNesting) {
  const std::string obj =
      "{\"skip\": {\"inner\": [1, \"}]\", 2]}, \"hit\": 7}";
  auto missing = ExtractJsonField(obj, "nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
  auto hit = ExtractJsonField(obj, "hit");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(**hit, "7");
  // Requesting the nested value itself is NotImplemented, not a crash.
  auto nested = ExtractJsonField(obj, "skip");
  EXPECT_FALSE(nested.ok());
}

TEST(ExtractJsonFieldTest, Malformed) {
  EXPECT_FALSE(ExtractJsonField("not json", "k").ok());
  EXPECT_FALSE(ExtractJsonField("{\"k\" 1}", "k").ok());
  EXPECT_FALSE(ExtractJsonField("{\"k\": \"unterminated", "k").ok());
  EXPECT_FALSE(ExtractJsonField("{\"k\": 1", "k").ok());
  auto empty = ExtractJsonField("{}", "k");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
}

TEST(ParseJsonLinesTest, TypedColumns) {
  const std::string input =
      "{\"user\": \"alice\", \"age\": 31, \"score\": 9.5, \"ok\": true, "
      "\"when\": \"2021-03-04 05:06:07\"}\n"
      "{\"user\": \"bob\", \"age\": null, \"extra\": [1,2]}\n"
      "{\"age\": 7}\n";
  std::vector<JsonField> fields = {
      {"user", DataType::String()},
      {"age", DataType::Int64()},
      {"score", DataType::Float64()},
      {"ok", DataType::Bool()},
      {"when", DataType::TimestampMicros()},
  };
  auto result = ParseJsonLines(input, fields);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& table = result->table;
  ASSERT_EQ(table.num_rows, 3);
  ASSERT_EQ(table.num_columns(), 5);
  EXPECT_EQ(table.columns[0].StringValue(0), "alice");
  EXPECT_EQ(table.columns[1].Value<int64_t>(0), 31);
  EXPECT_DOUBLE_EQ(table.columns[2].Value<double>(0), 9.5);
  EXPECT_EQ(table.columns[3].Value<uint8_t>(0), 1);
  EXPECT_FALSE(table.columns[4].IsNull(0));
  // Row 1: age null, other requested fields absent.
  EXPECT_EQ(table.columns[0].StringValue(1), "bob");
  EXPECT_TRUE(table.columns[1].IsNull(1));
  EXPECT_TRUE(table.columns[2].IsNull(1));
  // Row 2: user missing entirely.
  EXPECT_TRUE(table.columns[0].IsNull(2));
  EXPECT_EQ(table.columns[1].Value<int64_t>(2), 7);
}

TEST(ParseJsonLinesTest, MalformedRecordsAreRejected) {
  const std::string input =
      "{\"a\": 1}\nTHIS IS NOT JSON\n{\"a\": 3}\n";
  auto result = ParseJsonLines(input, {{"a", DataType::Int64()}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 3);
  EXPECT_EQ(result->table.rejected[0], 0);
  EXPECT_EQ(result->table.rejected[1], 1);
  EXPECT_TRUE(result->table.columns[0].IsNull(1));
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(2), 3);
}

TEST(ParseJsonLinesTest, Int32AndDecimal64ColumnsParse) {
  // JSON Lines converts through the value rule's ParseSlot, so every
  // fixed-width type parses, not only the ones a private switch listed.
  const std::string input =
      "{\"a\": 7, \"b\": \"1.25\", \"c\": 9}\n"
      "{\"a\": -3, \"b\": 2.5, \"c\": 1}\n";
  auto result = ParseJsonLines(input, {{"a", DataType::Int32()},
                                       {"b", DataType::Decimal64(2)},
                                       {"c", DataType::Int64()}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& table = result->table;
  ASSERT_EQ(table.num_rows, 2);
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(table.rejected[r], 0) << r;
    for (int c = 0; c < 3; ++c) EXPECT_FALSE(table.columns[c].IsNull(r)) << r;
  }
  EXPECT_EQ(table.columns[0].Value<int32_t>(0), 7);
  EXPECT_EQ(table.columns[0].Value<int32_t>(1), -3);
  EXPECT_EQ(table.columns[1].Value<int64_t>(0), 125);
  EXPECT_EQ(table.columns[1].Value<int64_t>(1), 250);
  EXPECT_EQ(table.columns[2].Value<int64_t>(0), 9);
  EXPECT_EQ(table.columns[2].Value<int64_t>(1), 1);
}

TEST(ParseJsonLinesTest, EmptyInput) {
  auto result = ParseJsonLines("", {{"a", DataType::Int64()}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows, 0);
  EXPECT_EQ(result->table.num_columns(), 1);
}

}  // namespace
}  // namespace parparaw
