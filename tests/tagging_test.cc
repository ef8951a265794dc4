#include <gtest/gtest.h>

#include <map>

#include "test_util.h"

namespace parparaw {
namespace {

// Reconstructs (column, row) -> value from the tag step's outputs for the
// record-tag mode.
std::map<std::pair<uint32_t, uint32_t>, std::string> FieldsFromTags(
    const PipelineState& state) {
  std::map<std::pair<uint32_t, uint32_t>, std::string> fields;
  for (size_t i = 0; i < state.css.size(); ++i) {
    fields[{state.col_tags[i], state.rec_tags[i]}] +=
        static_cast<char>(state.css[i]);
  }
  return fields;
}

TEST(TagStepTest, Figure4Example) {
  // The running example of Figs. 3-5. Inspects the per-symbol tag
  // sidebands, so it pins the symbol-sort transposition explicitly.
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", "
      "black\"\n";
  ParseOptions options;
  options.chunk_size = 10;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->RunThroughTagging().ok());

  EXPECT_EQ(h->state.num_records, 2);
  EXPECT_EQ(h->state.num_out_rows, 2);
  EXPECT_EQ(h->state.num_partitions, 3u);
  EXPECT_EQ(h->state.min_columns, 3u);
  EXPECT_EQ(h->state.max_columns, 3u);

  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.at({0, 0}), "1941");
  EXPECT_EQ(fields.at({1, 0}), "199.99");
  EXPECT_EQ(fields.at({2, 0}), "Bookcase");
  EXPECT_EQ(fields.at({0, 1}), "1938");
  EXPECT_EQ(fields.at({1, 1}), "19.99");
  // Escaped quotes unescape to single quotes; the quoted newline stays.
  EXPECT_EQ(fields.at({2, 1}), "Frame\n\"Ribba\", black");
}

class TaggingChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TaggingChunkSweep, TagsAreChunkSizeInvariant) {
  const std::string input =
      "a,\"b,\n\",c\n,,\nx,\"\"\"q\"\"\",z\ntrailing,1,2";
  ParseOptions base;
  base.chunk_size = 1 << 20;
  base.transpose_mode = TransposeMode::kSymbolSort;
  auto reference = StepHarness::Make(input, base);
  ASSERT_TRUE(reference->RunThroughTagging().ok());

  ParseOptions options;
  options.chunk_size = GetParam();
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());

  EXPECT_EQ(h->state.num_out_rows, reference->state.num_out_rows);
  EXPECT_EQ(h->state.css, reference->state.css);
  EXPECT_EQ(h->state.col_tags, reference->state.col_tags);
  EXPECT_EQ(h->state.rec_tags, reference->state.rec_tags);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, TaggingChunkSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 11, 31, 64));

TEST(TagStepTest, InlineTerminatedModeFigure6) {
  // Fig. 6's sample: 0,"Apples"\n1,\n2,"Pears"\n — column 1's CSS is
  // Apples\x1F\x1FPears\x1F (empty field = bare terminator). Only the
  // symbol sort builds a CSS.
  const std::string input = "0,\"Apples\"\n1,\n2,\"Pears\"\n";
  ParseOptions options;
  options.chunk_size = 5;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  const int64_t begin = h->state.column_css_offsets[1];
  const int64_t end = h->state.column_css_offsets[2];
  std::string css(h->state.css.begin() + begin, h->state.css.begin() + end);
  EXPECT_EQ(css, "Apples\x1F\x1FPears\x1F");
}

TEST(TagStepTest, VectorDelimitedModeKeepsDelimiterBytes) {
  const std::string input = "0,\"Apples\"\n1,\n2,\"Pears\"\n";
  ParseOptions options;
  options.chunk_size = 6;
  options.tagging_mode = TaggingMode::kVectorDelimited;
  options.transpose_mode = TransposeMode::kSymbolSort;  // reads field_end
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  const int64_t begin = h->state.column_css_offsets[1];
  const int64_t end = h->state.column_css_offsets[2];
  std::string css(h->state.css.begin() + begin, h->state.css.begin() + end);
  EXPECT_EQ(css, "Apples\n\nPears\n");
  // Field-end marks sit exactly on the delimiter slots.
  int marks = 0;
  for (int64_t i = begin; i < end; ++i) {
    if (h->state.field_end[i]) {
      ++marks;
      EXPECT_EQ(h->state.css[i], static_cast<uint8_t>('\n'));
    }
  }
  EXPECT_EQ(marks, 3);
}

TEST(TagStepTest, InlineModeDetectsTerminatorCollision) {
  std::string input = "a,b\n";
  input[0] = 0x1F;  // the default terminator as field data
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  auto h = StepHarness::Make(input, options);
  const Status st = h->RunThroughTagging();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(TagStepTest, RaggedRecordsCountsAndPartitions) {
  const std::string input = "1,Apples\n2\n3,Pears,extra\n";
  ParseOptions options;
  options.chunk_size = 4;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  ASSERT_EQ(h->state.num_records, 3);
  EXPECT_EQ(h->state.record_column_counts[0], 2u);
  EXPECT_EQ(h->state.record_column_counts[1], 1u);
  EXPECT_EQ(h->state.record_column_counts[2], 3u);
  EXPECT_EQ(h->state.min_columns, 1u);
  EXPECT_EQ(h->state.max_columns, 3u);
  EXPECT_EQ(h->state.num_partitions, 3u);
}

TEST(TagStepTest, RejectPolicyDropsInconsistentRecords) {
  const std::string input = "1,Apples\n2\n3,Pears\n";
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.num_out_rows, 2);
  EXPECT_EQ(h->state.record_dropped[1], 1);
  // Dropped records leave no tagged symbols.
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.at({0, 0}), "1");
  EXPECT_EQ(fields.at({0, 1}), "3");  // row remapped from record 2
}

TEST(TagStepTest, ValidatePolicyErrorsOnInconsistency) {
  const std::string input = "1,Apples\n2\n";
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kValidate;
  auto h = StepHarness::Make(input, options);
  const Status st = h->RunThroughTagging();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("record 1"), std::string::npos)
      << st.message();
}

TEST(TagStepTest, SkipRecordsDropsRequestedIndices) {
  const std::string input = "r0,a\nr1,b\nr2,c\nr3,d\n";
  ParseOptions options;
  options.skip_records = {1, 3};
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.num_out_rows, 2);
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.at({0, 0}), "r0");
  EXPECT_EQ(fields.at({0, 1}), "r2");
}

TEST(TagStepTest, SkipColumnsDropsSymbols) {
  const std::string input = "a,bb,c\nd,ee,f\n";
  ParseOptions options;
  options.skip_columns = {1};
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.count({1, 0}), 0u);
  EXPECT_EQ(fields.count({1, 1}), 0u);
  EXPECT_EQ(fields.at({0, 0}), "a");
  EXPECT_EQ(fields.at({2, 1}), "f");
}

TEST(TagStepTest, ExcludeTrailingRecordForStreaming) {
  const std::string input = "a,b\npartial,rec";
  ParseOptions options;
  options.exclude_trailing_record = true;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.num_records, 2);
  EXPECT_EQ(h->state.num_out_rows, 1);
  const auto fields = FieldsFromTags(h->state);
  EXPECT_EQ(fields.count({0, 1}), 0u);
}

TEST(PartitionStepTest, SymbolsGroupedByColumnInRecordOrder) {
  const std::string input = "a1,b1\na2,b2\na3,b3\n";
  ParseOptions options;
  options.chunk_size = 3;
  options.transpose_mode = TransposeMode::kSymbolSort;  // reads rec_tags
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  ASSERT_EQ(h->state.column_histogram.size(), 2u);
  EXPECT_EQ(h->state.column_histogram[0], 6u);
  EXPECT_EQ(h->state.column_histogram[1], 6u);
  std::string col0(h->state.css.begin(), h->state.css.begin() + 6);
  std::string col1(h->state.css.begin() + 6, h->state.css.end());
  EXPECT_EQ(col0, "a1a2a3");
  EXPECT_EQ(col1, "b1b2b3");
  // Record tags stay aligned with their symbols.
  EXPECT_EQ(h->state.rec_tags[0], 0u);
  EXPECT_EQ(h->state.rec_tags[2], 1u);
  EXPECT_EQ(h->state.rec_tags[4], 2u);
}

TEST(PartitionStepTest, EmptyInputProducesEmptyPartitions) {
  ParseOptions options;
  auto h = StepHarness::Make("\n", options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  // One empty record: no symbols at all, one partition from max col 0.
  EXPECT_EQ(h->state.css.size(), 0u);
}

// --- TransposeMode::kFieldGather step-level tests. The differential suite
// (transpose_differential_test.cc) proves whole-table equivalence; these
// pin the columns the gather's walk writes in the partition step. ---

// Runs the same input through both transpose modes. In the record-tag mode
// the symbol sort's CSS holds exactly each column's non-empty values in row
// order, which is what a string column's bytes are: the gather's string
// columns must hold that CSS slice byte for byte. Then both convert steps
// must produce the same table.
void ExpectGatherMatchesSymbolSort(const std::string& input,
                                   ParseOptions options) {
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto symbol = StepHarness::Make(input, options);
  ASSERT_NE(symbol, nullptr);
  ASSERT_TRUE(symbol->RunThroughPartition().ok());

  options.transpose_mode = TransposeMode::kFieldGather;
  auto gather = StepHarness::Make(input, options);
  ASSERT_NE(gather, nullptr);
  ASSERT_TRUE(gather->RunThroughPartition().ok());

  EXPECT_EQ(gather->state.num_partitions, symbol->state.num_partitions);
  EXPECT_TRUE(gather->state.css.empty());
  const std::vector<ColumnPlan>& plans = gather->state.column_plans;
  ASSERT_EQ(gather->state.gathered_columns.size(), plans.size());
  if (gather->options.tagging_mode == TaggingMode::kRecordTags) {
    for (size_t p = 0; p < plans.size(); ++p) {
      const uint32_t j = plans[p].source;
      std::vector<uint8_t> slice;
      if (j < symbol->state.num_partitions) {
        slice.assign(
            symbol->state.css.begin() + symbol->state.column_css_offsets[j],
            symbol->state.css.begin() +
                symbol->state.column_css_offsets[j + 1]);
      }
      EXPECT_EQ(gather->state.gathered_columns[p].string_data(), slice)
          << "column " << j;
    }
  }

  ParseOutput want;
  ParseOutput got;
  ASSERT_TRUE(ConvertStep::Run(&symbol->state, &symbol->timings,
                               &symbol->work, &want)
                  .ok());
  ASSERT_TRUE(
      ConvertStep::Run(&gather->state, &gather->timings, &gather->work, &got)
          .ok());
  EXPECT_TRUE(want.table.Equals(got.table));
  EXPECT_EQ(want.table.rejected, got.table.rejected);
}

TEST(FieldGatherTest, CssMatchesSymbolSortOnFigure4) {
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", "
      "black\"\n";
  ParseOptions options;
  options.chunk_size = 10;
  ExpectGatherMatchesSymbolSort(input, options);
}

TEST(FieldGatherTest, CssMatchesSymbolSortAcrossTaggingModes) {
  const std::string input = "0,\"Apples\"\n1,\n2,\"Pears\"\n";
  for (TaggingMode mode :
       {TaggingMode::kRecordTags, TaggingMode::kInlineTerminated,
        TaggingMode::kVectorDelimited}) {
    ParseOptions options;
    options.chunk_size = 5;
    options.tagging_mode = mode;
    ExpectGatherMatchesSymbolSort(input, options);
  }
}

TEST(FieldGatherTest, CssMatchesSymbolSortWithDropsAndSkips) {
  const std::string input = "r0,a,x\nr1,b,y\nr2\nr3,d,z\npartial,rec";
  ParseOptions options;
  options.chunk_size = 7;
  options.skip_records = {1};
  options.skip_columns = {1};
  options.column_count_policy = ColumnCountPolicy::kReject;
  options.exclude_trailing_record = true;
  ExpectGatherMatchesSymbolSort(input, options);
}

TEST(FieldGatherTest, EntriesGroupByColumnInRecordOrder) {
  // The walk writes each column's values in record order, each string
  // value at its column's cursor, which is the row's offset.
  const std::string input = "a1,b1\na2,b2\na3,b3\n";
  ParseOptions options;
  options.chunk_size = 3;
  options.transpose_mode = TransposeMode::kFieldGather;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  ASSERT_EQ(h->state.gathered_columns.size(), 2u);
  const Column& col0 = h->state.gathered_columns[0];
  const Column& col1 = h->state.gathered_columns[1];
  EXPECT_EQ(std::string(col0.string_data().begin(), col0.string_data().end()),
            "a1a2a3");
  EXPECT_EQ(std::string(col1.string_data().begin(), col1.string_data().end()),
            "b1b2b3");
  EXPECT_EQ(col0.offsets(), (std::vector<int64_t>{0, 2, 4, 6}));
  EXPECT_EQ(col1.offsets(), (std::vector<int64_t>{0, 2, 4, 6}));
  for (int64_t row = 0; row < 3; ++row) {
    EXPECT_TRUE(col0.IsValid(row));
    EXPECT_EQ(col1.StringValue(row), "b" + std::to_string(row + 1));
  }
}

TEST(FieldGatherTest, ChunkSizeInvariant) {
  const std::string input =
      "a,\"b,\n\",c\n,,\nx,\"\"\"q\"\"\",z\ntrailing,1,2";
  ParseOptions base;
  base.chunk_size = 1 << 20;
  base.transpose_mode = TransposeMode::kFieldGather;
  auto reference = StepHarness::Make(input, base);
  ASSERT_TRUE(reference->RunThroughPartition().ok());
  for (size_t chunk : {1u, 2u, 3u, 5u, 7u, 11u, 31u, 64u}) {
    ParseOptions options;
    options.chunk_size = chunk;
    options.transpose_mode = TransposeMode::kFieldGather;
    auto h = StepHarness::Make(input, options);
    ASSERT_TRUE(h->RunThroughPartition().ok()) << "chunk=" << chunk;
    ASSERT_EQ(h->state.gathered_columns.size(),
              reference->state.gathered_columns.size())
        << "chunk=" << chunk;
    for (size_t p = 0; p < h->state.gathered_columns.size(); ++p) {
      const Column& got = h->state.gathered_columns[p];
      const Column& want = reference->state.gathered_columns[p];
      EXPECT_EQ(got.string_data(), want.string_data())
          << "chunk=" << chunk << " column " << p;
      EXPECT_EQ(got.offsets(), want.offsets())
          << "chunk=" << chunk << " column " << p;
      EXPECT_TRUE(got.Equals(want)) << "chunk=" << chunk << " column " << p;
    }
  }
}

TEST(FieldGatherTest, InlineModeDetectsTerminatorCollision) {
  std::string input = "a,b\n";
  input[0] = 0x1F;  // the default terminator as field data
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  options.transpose_mode = TransposeMode::kFieldGather;
  auto h = StepHarness::Make(input, options);
  const Status st = h->RunThroughTagging();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

// Satellite: adversarial delimiter-dense records must fail with a bounded
// ParseError instead of growing per-column tables without limit.
TEST(TagStepTest, MaxRecordColumnsRejectsAdversarialRow) {
  ParseOptions options;
  options.max_record_columns = 8;
  const std::string input = "ok,row\n" + std::string(63, ',') + "\nnext,r\n";
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    options.transpose_mode = mode;
    auto h = StepHarness::Make(input, options);
    const Status st = h->RunThroughTagging();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    // The error names the offending record and its byte span.
    EXPECT_NE(st.message().find("record 1"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("bytes 7..70"), std::string::npos)
        << st.message();
  }
}

TEST(TagStepTest, MaxRecordColumnsAllowsLimitExactly) {
  ParseOptions options;
  options.max_record_columns = 4;
  auto h = StepHarness::Make("a,b,c,d\n", options);
  ASSERT_TRUE(h->RunThroughTagging().ok());
  EXPECT_EQ(h->state.max_columns, 4u);
}

}  // namespace
}  // namespace parparaw
