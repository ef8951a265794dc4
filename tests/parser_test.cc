#include <gtest/gtest.h>

#include "core/parser.h"
#include "dfa/formats.h"

namespace parparaw {
namespace {

ParseOptions TypedOptions() {
  ParseOptions options;
  options.schema.AddField(Field("id", DataType::Int64()));
  options.schema.AddField(Field("price", DataType::Float64()));
  options.schema.AddField(Field("name", DataType::String()));
  return options;
}

TEST(ParserTest, PaperRunningExample) {
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", "
      "black\"\n";
  auto result = Parser::Parse(input, TypedOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& table = result->table;
  ASSERT_EQ(table.num_rows, 2);
  ASSERT_EQ(table.num_columns(), 3);
  EXPECT_EQ(table.columns[0].Value<int64_t>(0), 1941);
  EXPECT_EQ(table.columns[0].Value<int64_t>(1), 1938);
  EXPECT_DOUBLE_EQ(table.columns[1].Value<double>(0), 199.99);
  EXPECT_DOUBLE_EQ(table.columns[1].Value<double>(1), 19.99);
  EXPECT_EQ(table.columns[2].StringValue(0), "Bookcase");
  EXPECT_EQ(table.columns[2].StringValue(1), "Frame\n\"Ribba\", black");
  EXPECT_EQ(table.NumRejected(), 0);
}

TEST(ParserTest, EmptyInput) {
  auto result = Parser::Parse("", TypedOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows, 0);
  EXPECT_EQ(result->table.num_columns(), 3);
}

TEST(ParserTest, SingleFieldNoNewline) {
  ParseOptions options;
  options.schema.AddField(Field("v", DataType::String()));
  auto result = Parser::Parse("solo", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 1);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "solo");
}

TEST(ParserTest, TrailingRecordWithoutNewline) {
  auto result = Parser::Parse("1,2.5,a\n2,3.5,b", TypedOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[2].StringValue(1), "b");
}

TEST(ParserTest, MalformedNumericYieldsNullAndReject) {
  auto result = Parser::Parse("1,notanumber,a\n", TypedOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->table.columns[1].IsNull(0));
  EXPECT_EQ(result->table.rejected[0], 1);
  EXPECT_EQ(result->table.NumRejected(), 1);
}

TEST(ParserTest, EmptyNumericFieldIsNullWithoutReject) {
  auto result = Parser::Parse("1,,a\n", TypedOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->table.columns[1].IsNull(0));
  EXPECT_EQ(result->table.NumRejected(), 0);
}

TEST(ParserTest, ShortRecordYieldsNullsRobustMode) {
  auto result = Parser::Parse("1,2.5,a\n7\n", TypedOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(1), 7);
  EXPECT_TRUE(result->table.columns[1].IsNull(1));
  EXPECT_TRUE(result->table.columns[2].IsNull(1));
  EXPECT_EQ(result->min_columns, 1u);
  EXPECT_EQ(result->max_columns, 3u);
}

TEST(ParserTest, ExtraFieldsIgnoredRobustMode) {
  auto result = Parser::Parse("1,2.5,a,EXTRA,MORE\n", TypedOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 1);
  EXPECT_EQ(result->table.num_columns(), 3);
  EXPECT_EQ(result->table.columns[2].StringValue(0), "a");
}

TEST(ParserTest, SchemalessColumnsAreStringsWithGeneratedNames) {
  ParseOptions options;
  auto result = Parser::Parse("x,y\nz,w\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_columns(), 2);
  EXPECT_EQ(result->table.schema.field(0).name, "f0");
  EXPECT_TRUE(result->table.schema.field(0).type == DataType::String());
  EXPECT_EQ(result->table.columns[1].StringValue(1), "w");
}

TEST(ParserTest, ValidateRejectsBadInput) {
  ParseOptions options = TypedOptions();
  options.validate = true;
  EXPECT_FALSE(Parser::Parse("a\"b,1,2\n", options).ok());
  EXPECT_FALSE(Parser::Parse("1,2,\"open\n", options).ok());
  EXPECT_TRUE(Parser::Parse("1,2.5,ok\n", options).ok());
}

class ChunkSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkSizeSweep, TableInvariantUnderChunkSize) {
  const std::string input =
      "1941,199.99,\"Bookcase\"\n"
      "1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n"
      ",,\n"
      "3,0.5,\"trailing\"";
  auto reference = Parser::Parse(input, TypedOptions());
  ASSERT_TRUE(reference.ok());
  ParseOptions options = TypedOptions();
  options.chunk_size = GetParam();
  auto result = Parser::Parse(input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->table.Equals(reference->table))
      << "chunk size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 31, 32,
                                           64, 4096));

TEST(ParserTest, TaggingModesProduceIdenticalTables) {
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame X\"\n,,\n";
  ParseOptions base = TypedOptions();
  auto tagged = Parser::Parse(input, base);
  ASSERT_TRUE(tagged.ok());

  base.tagging_mode = TaggingMode::kInlineTerminated;
  auto inline_mode = Parser::Parse(input, base);
  ASSERT_TRUE(inline_mode.ok()) << inline_mode.status().ToString();
  EXPECT_TRUE(inline_mode->table.Equals(tagged->table));

  base.tagging_mode = TaggingMode::kVectorDelimited;
  auto vector_mode = Parser::Parse(input, base);
  ASSERT_TRUE(vector_mode.ok());
  EXPECT_TRUE(vector_mode->table.Equals(tagged->table));
}

TEST(ParserTest, CustomDsvFormatTabSeparated) {
  DsvOptions dsv;
  dsv.field_delimiter = '\t';
  auto format = DsvFormat(dsv);
  ASSERT_TRUE(format.ok());
  ParseOptions options;
  options.format = *format;
  options.schema.AddField(Field("a", DataType::Int64()));
  options.schema.AddField(Field("b", DataType::String()));
  auto result = Parser::Parse("1\tx,y\n2\tz\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[1].StringValue(0), "x,y");
}

TEST(ParserTest, CommentsAreSkipped) {
  DsvOptions dsv;
  dsv.comment = '#';
  auto format = DsvFormat(dsv);
  ASSERT_TRUE(format.ok());
  ParseOptions options;
  options.format = *format;
  auto result =
      Parser::Parse("# a comment, with \"quotes\n1,x\n#another\n2,y\n",
                    options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "1");
  EXPECT_EQ(result->table.columns[0].StringValue(1), "2");
}

TEST(ParserTest, DefaultValuesForEmptyFields) {
  ParseOptions options;
  Field id("id", DataType::Int64());
  id.default_value = "-1";
  Field name("name", DataType::String());
  name.default_value = "unknown";
  options.schema.AddField(id);
  options.schema.AddField(name);
  auto result = Parser::Parse(",\n5,x\n,\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 3);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(0), -1);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(1), 5);
  EXPECT_EQ(result->table.columns[1].StringValue(0), "unknown");
  EXPECT_EQ(result->table.columns[1].StringValue(2), "unknown");
  EXPECT_EQ(result->table.NumRejected(), 0);
}

TEST(ParserTest, TrailingEmptyFieldsOfLastRecordRoundTripToDefaults) {
  // Regression: the trailing empty field of the LAST record — whether the
  // record ends with the final newline or at EOF with no newline at all —
  // must behave like any interior empty field and pick up the column
  // default, in both transpose modes.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    ParseOptions options;
    options.transpose_mode = mode;
    options.schema.AddField(Field("a", DataType::String()));
    options.schema.AddField(Field("b", DataType::String()));
    Field c("c", DataType::String());
    c.default_value = "dflt";
    options.schema.AddField(c);
    for (const char* input : {"a,b,\n", "a,b,"}) {
      auto result = Parser::Parse(input, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->table.num_rows, 1) << input;
      EXPECT_EQ(result->table.columns[0].StringValue(0), "a");
      EXPECT_EQ(result->table.columns[1].StringValue(0), "b");
      EXPECT_EQ(result->table.columns[2].StringValue(0), "dflt") << input;
      EXPECT_EQ(result->table.NumRejected(), 0);
    }
  }
}

TEST(ParserTest, LoneDelimiterRecordYieldsAllDefaults) {
  // A record that is nothing but a field delimiter has two empty fields;
  // as the last (or only) record it must still produce one row of
  // defaults, with or without a closing newline.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    ParseOptions options;
    options.transpose_mode = mode;
    Field a("a", DataType::String());
    a.default_value = "left";
    Field b("b", DataType::String());
    b.default_value = "right";
    options.schema.AddField(a);
    options.schema.AddField(b);
    for (const char* input : {",\n", ","}) {
      auto result = Parser::Parse(input, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->table.num_rows, 1) << input;
      EXPECT_EQ(result->table.columns[0].StringValue(0), "left") << input;
      EXPECT_EQ(result->table.columns[1].StringValue(0), "right") << input;
      EXPECT_EQ(result->table.NumRejected(), 0);
    }
  }
}

TEST(ParserTest, InvalidDefaultValueFailsParse) {
  ParseOptions options;
  Field id("id", DataType::Int64());
  id.default_value = "not-a-number";
  options.schema.AddField(id);
  EXPECT_FALSE(Parser::Parse(",\n", options).ok());
}

TEST(ParserTest, RemainderOffsetForStreaming) {
  ParseOptions options;
  options.exclude_trailing_record = true;
  {
    auto result = Parser::Parse("a,b\nc,d\npartial", options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.num_rows, 2);
    EXPECT_EQ(result->remainder_offset, 8);  // after "a,b\nc,d\n"
  }
  {
    auto result = Parser::Parse("a,b\nc,d\n", options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.num_rows, 2);
    EXPECT_EQ(result->remainder_offset, 8);  // ends on a boundary
  }
  {
    // Quoted newline must not be mistaken for a boundary.
    auto result = Parser::Parse("a,\"x\ny\nz", options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->table.num_rows, 0);
    EXPECT_EQ(result->remainder_offset, 0);
  }
}

TEST(ParserTest, Utf8MultiByteContent) {
  ParseOptions options;
  options.chunk_size = 3;  // boundaries inside multi-byte sequences
  auto result = Parser::Parse("héllo,wörld\n€42,日本語\n", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "héllo");
  EXPECT_EQ(result->table.columns[1].StringValue(0), "wörld");
  EXPECT_EQ(result->table.columns[0].StringValue(1), "€42");
  EXPECT_EQ(result->table.columns[1].StringValue(1), "日本語");
}

TEST(ParserTest, Utf16InputTranscodedAndParsed) {
  // "1,a\n2,b\n" as UTF-16LE bytes.
  const std::string utf8 = "1,a\n2,b\n";
  std::string utf16;
  for (char c : utf8) {
    utf16.push_back(c);
    utf16.push_back('\0');
  }
  ParseOptions options;
  options.encoding = TextEncoding::kUtf16Le;
  auto result = Parser::Parse(utf16, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[1].StringValue(1), "b");
}

TEST(ParserTest, Utf16SurrogatePairsInQuotedFields) {
  // "id,😀text\n" in UTF-16LE, with the emoji inside a quoted field that
  // also contains a delimiter.
  auto unit = [](std::string* out, uint16_t u) {
    out->push_back(static_cast<char>(u & 0xFF));
    out->push_back(static_cast<char>(u >> 8));
  };
  std::string utf16;
  for (char c : std::string("7,\"")) unit(&utf16, static_cast<uint8_t>(c));
  unit(&utf16, 0xD83D);  // 😀 high surrogate
  unit(&utf16, 0xDE00);  // 😀 low surrogate
  for (char c : std::string(",x\"\n")) unit(&utf16, static_cast<uint8_t>(c));
  ParseOptions options;
  options.encoding = TextEncoding::kUtf16Le;
  options.chunk_size = 3;  // boundaries inside the transcoded sequence
  auto result = Parser::Parse(utf16, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows, 1);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "7");
  EXPECT_EQ(result->table.columns[1].StringValue(0),
            "\xF0\x9F\x98\x80,x");
}

TEST(ParserTest, CollapsedSymbolGroupsViaBuilder) {
  // Table 1 collapses symbols with identical transitions into one group:
  // both ';' and '|' delimit fields here through a shared group.
  DfaBuilder b;
  const int rec = b.AddState("REC", true);
  const int g_nl = b.AddSymbol('\n');
  const int g_delim = b.AddSymbol(';');
  b.AddSymbolToGroup('|', g_delim);
  b.SetTransition(rec, g_nl, rec, kSymbolRecordDelimiter | kSymbolControl);
  b.SetTransition(rec, g_delim, rec,
                  kSymbolFieldDelimiter | kSymbolControl);
  b.SetDefaultTransition(rec, rec, kSymbolData);
  auto dfa = b.Build();
  ASSERT_TRUE(dfa.ok()) << dfa.status().ToString();
  EXPECT_EQ(dfa->SymbolGroup(';'), dfa->SymbolGroup('|'));

  Format format;
  format.dfa = *dfa;
  format.record_delimiter = '\n';
  format.field_delimiter = ';';
  format.MarkMidRecordState(rec);
  ParseOptions options;
  options.format = format;
  // No trailing newline: the single-state DFA cannot distinguish "just
  // after a delimiter" from "mid-record", so a trailing '\n' would add an
  // empty trailing record under the coarse mid-record set above.
  auto result = Parser::Parse("a;b|c\nd|e;f", options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_columns(), 3);
  EXPECT_EQ(result->table.columns[1].StringValue(0), "b");
  EXPECT_EQ(result->table.columns[2].StringValue(1), "f");
}

TEST(ParserTest, WorkCountersPopulated) {
  auto result = Parser::Parse("1,2.5,a\n", TypedOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->work.input_bytes, 8);
  EXPECT_EQ(result->work.dfa_transitions, 8 * 6);
  EXPECT_GT(result->work.output_bytes, 0);
  EXPECT_GE(result->work.sort_passes, 1);
}

}  // namespace
}  // namespace parparaw
