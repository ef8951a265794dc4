#include <gtest/gtest.h>

#include "baseline/sequential_parser.h"
#include "core/parser.h"
#include "json_lines_format.h"

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

}  // namespace
}  // namespace parparaw
