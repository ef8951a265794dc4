#include <gtest/gtest.h>

#include "core/css_index.h"
#include "test_util.h"

namespace parparaw {
namespace {

TEST(CssIndexTest, RecordTagModeRunsAndOffsets) {
  // Figure 5's index: column 1 (decimals) has fields 199.99 and 19.99.
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\"\n";
  ParseOptions options;
  options.chunk_size = 7;
  options.transpose_mode = TransposeMode::kSymbolSort;  // builds the CSS
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());

  ScratchVector<FieldEntry> fields;
  ASSERT_TRUE(BuildCssIndex(h->state, 1, &fields).ok());
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].row, 0);
  EXPECT_EQ(fields[0].length, 6);  // "199.99"
  EXPECT_EQ(fields[1].row, 1);
  EXPECT_EQ(fields[1].length, 5);  // "19.99"
  // Offsets are consecutive within the column's CSS.
  EXPECT_EQ(fields[1].offset, fields[0].offset + 6);
  const std::string v0(
      h->state.css.begin() + fields[0].offset,
      h->state.css.begin() + fields[0].offset + fields[0].length);
  EXPECT_EQ(v0, "199.99");
}

TEST(CssIndexTest, RecordTagModeSkipsEmptyFields) {
  const std::string input = "a,1\nb,\nc,3\n";
  ParseOptions options;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  ScratchVector<FieldEntry> fields;
  ASSERT_TRUE(BuildCssIndex(h->state, 1, &fields).ok());
  // The empty field of row 1 produces no run.
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].row, 0);
  EXPECT_EQ(fields[1].row, 2);
}

TEST(CssIndexTest, RecordTagModeTrailingEmptyFieldOfLastRecord) {
  // Regression: `a,b,` — the last record's trailing empty field ends at the
  // final newline or at the virtual record end (EOF with no newline). The
  // record must still count three columns while the empty field produces no
  // run, so conversion falls back to the column default. The field gather
  // builds no index: its string columns must hold what the runs would, no
  // bytes for column 2 and column 0's one, with the empty field valid.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    for (const char* input : {"a,b,\n", "a,b,"}) {
      ParseOptions options;
      options.transpose_mode = mode;
      auto h = StepHarness::Make(input, options);
      ASSERT_TRUE(h->RunThroughPartition().ok());
      ASSERT_EQ(h->state.record_column_counts.size(), 1u) << input;
      EXPECT_EQ(h->state.record_column_counts[0], 3u) << input;
      if (mode == TransposeMode::kFieldGather) {
        const std::vector<Column>& columns = h->state.gathered_columns;
        ASSERT_EQ(columns.size(), 3u) << input;
        EXPECT_TRUE(columns[2].string_data().empty()) << input;
        EXPECT_TRUE(columns[2].IsValid(0)) << input;
        ASSERT_EQ(columns[0].string_data().size(), 1u) << input;
        EXPECT_EQ(columns[0].StringValue(0), "a") << input;
        continue;
      }
      ScratchVector<FieldEntry> fields;
      ASSERT_TRUE(BuildCssIndex(h->state, 2, &fields).ok());
      EXPECT_TRUE(fields.empty()) << input;
      // The non-empty sibling columns are unaffected.
      ASSERT_TRUE(BuildCssIndex(h->state, 0, &fields).ok());
      ASSERT_EQ(fields.size(), 1u) << input;
      EXPECT_EQ(fields[0].length, 1) << input;
    }
  }
}

TEST(CssIndexTest, LoneDelimiterRecordHasNoRuns) {
  // `,` as the only record: two empty fields, zero kept symbols. Both
  // transpose modes agree that no column has a partition (num_partitions
  // is 0 when the CSS is empty) and every index lookup is empty.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    for (const char* input : {",\n", ","}) {
      ParseOptions options;
      options.transpose_mode = mode;
      auto h = StepHarness::Make(input, options);
      ASSERT_TRUE(h->RunThroughPartition().ok());
      ASSERT_EQ(h->state.record_column_counts.size(), 1u) << input;
      EXPECT_EQ(h->state.record_column_counts[0], 2u) << input;
      EXPECT_EQ(h->state.num_partitions, 0u) << input;
      if (mode == TransposeMode::kFieldGather) {
        // No value bytes in either gathered column.
        ASSERT_EQ(h->state.gathered_columns.size(), 2u) << input;
        for (const Column& column : h->state.gathered_columns) {
          EXPECT_TRUE(column.string_data().empty()) << input;
        }
        continue;
      }
      ScratchVector<FieldEntry> fields;
      for (uint32_t col = 0; col < 2; ++col) {
        ASSERT_TRUE(BuildCssIndex(h->state, col, &fields).ok());
        EXPECT_TRUE(fields.empty()) << input << " col " << col;
      }
    }
  }
}

TEST(CssIndexTest, InlineModeIncludesEmptyFields) {
  const std::string input = "a,1\nb,\nc,3\n";
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  ScratchVector<FieldEntry> fields;
  ASSERT_TRUE(BuildCssIndex(h->state, 1, &fields).ok());
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1].row, 1);
  EXPECT_EQ(fields[1].length, 0);  // empty field present with zero symbols
}

TEST(CssIndexTest, InlineModeInconsistentColumnsError) {
  // Field k of an inline-mode column is row k, so a record missing the
  // column fails the parse. The tag step's column check (CheckColumnPlans)
  // raises it for both transpose modes, before any index is built.
  const std::string input = "a,1\nonlyone\nc,3\n";
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    ParseOptions options;
    options.tagging_mode = TaggingMode::kInlineTerminated;
    options.transpose_mode = mode;
    auto h = StepHarness::Make(input, options);
    const Status st = h->RunThroughTagging();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find("column 1 has 2 fields for 3 records"),
              std::string::npos)
        << st.message();
  }
}

TEST(CssIndexTest, VectorModeMatchesInlineMode) {
  const std::string input = "aa,bb\ncc,dd\nee,ff\n";
  ParseOptions inline_options;
  inline_options.tagging_mode = TaggingMode::kInlineTerminated;
  inline_options.transpose_mode = TransposeMode::kSymbolSort;
  auto hi = StepHarness::Make(input, inline_options);
  ASSERT_TRUE(hi->RunThroughPartition().ok());

  ParseOptions vector_options;
  vector_options.tagging_mode = TaggingMode::kVectorDelimited;
  vector_options.transpose_mode = TransposeMode::kSymbolSort;
  auto hv = StepHarness::Make(input, vector_options);
  ASSERT_TRUE(hv->RunThroughPartition().ok());

  for (uint32_t col = 0; col < 2; ++col) {
    ScratchVector<FieldEntry> fi, fv;
    ASSERT_TRUE(BuildCssIndex(hi->state, col, &fi).ok());
    ASSERT_TRUE(BuildCssIndex(hv->state, col, &fv).ok());
    ASSERT_EQ(fi.size(), fv.size());
    for (size_t k = 0; k < fi.size(); ++k) {
      EXPECT_EQ(fi[k].row, fv[k].row);
      EXPECT_EQ(fi[k].length, fv[k].length);
    }
  }
}

TEST(CssIndexTest, ColumnBeyondPartitionsIsEmpty) {
  ParseOptions options;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto h = StepHarness::Make("a,b\n", options);
  ASSERT_TRUE(h->RunThroughPartition().ok());
  ScratchVector<FieldEntry> fields;
  ASSERT_TRUE(BuildCssIndex(h->state, 7, &fields).ok());
  EXPECT_TRUE(fields.empty());
}

TEST(CollectPositionsTest, MatchesSequentialFilter) {
  ThreadPool pool(4);
  const int64_t n = 100000;
  std::vector<int64_t> got;
  CollectPositions(&pool, n, [](int64_t i) { return i % 7 == 3; }, &got);
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 7 == 3) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);
}

TEST(CollectPositionsTest, EmptyAndAll) {
  ThreadPool pool(2);
  std::vector<int64_t> got;
  CollectPositions(&pool, 0, [](int64_t) { return true; }, &got);
  EXPECT_TRUE(got.empty());
  CollectPositions(&pool, 5, [](int64_t) { return true; }, &got);
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  CollectPositions(&pool, 5, [](int64_t) { return false; }, &got);
  EXPECT_TRUE(got.empty());
}

class PartitionChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionChunkSweep, HistogramInvariantUnderChunkSize) {
  // The sort's histogram counts each column's symbols; the field gather's
  // string columns hold the same bytes.
  const std::string input =
      "aaa,b,cc\ndddd,ee,f\n,gg,\nhh,i,jjjj\n";
  const std::vector<uint64_t> want = {3u + 4u + 0u + 2u, 1u + 2u + 2u + 1u,
                                      2u + 1u + 0u + 4u};
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    ParseOptions options;
    options.chunk_size = GetParam();
    options.transpose_mode = mode;
    auto h = StepHarness::Make(input, options);
    ASSERT_TRUE(h->RunThroughPartition().ok());
    if (mode == TransposeMode::kSymbolSort) {
      EXPECT_EQ(h->state.column_histogram, want);
      continue;
    }
    ASSERT_EQ(h->state.gathered_columns.size(), 3u);
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(h->state.gathered_columns[p].string_data().size(), want[p])
          << "column " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, PartitionChunkSweep,
                         ::testing::Values(1, 3, 5, 9, 31));

}  // namespace
}  // namespace parparaw
