// Tests of the benchmark's own helpers: order statistics, the peak-RSS
// reset, and the output check.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "baseline/sequential_parser.h"
#include "checks.h"
#include "harness.h"
#include "workload/generators.h"

namespace parparaw::perfbench {
namespace {

TEST(OrderStatistics, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(OrderStatistics, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> values = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(values, 1), 50);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 30);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.9), 46);
  EXPECT_DOUBLE_EQ(Percentile({50, 10, 40, 20, 30}, 0.25), 20);
}

TEST(PeakRss, ResetDropsTheMarkOfFreedMemory) {
  ASSERT_TRUE(ResetPeakRss()) << "kernel refused /proc/self/clear_refs";
  {
    // Touch 128 MiB so the peak mark rises, then free it.
    std::vector<char> big(128u << 20);
    std::memset(big.data(), 1, big.size());
    EXPECT_GE(PeakRssKib(), 128 * 1024);
  }
  const int64_t peak_with_buffer = PeakRssKib();
  ASSERT_TRUE(ResetPeakRss());
  const int64_t after_reset = PeakRssKib();
  EXPECT_LT(after_reset, peak_with_buffer - 64 * 1024);
  EXPECT_LE(CurrentRssKib(), after_reset + 1024);
}

class OutputCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    ParseOptions options;
    options.schema = TaxiSchema();
    Result<ParseOutput> parsed = SequentialParser::Parse(
        GenerateTaxiLike(7, 64 * 1024), options);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    table_ = std::move(parsed->table);
    ASSERT_GT(table_.num_rows, 100);
  }
  Table table_;
};

TEST_F(OutputCheck, IdenticalTablesMatch) {
  EXPECT_EQ(CompareDigests(DigestTable(table_), DigestTable(table_)), "");
  EXPECT_EQ(CheckShape(table_, table_.num_rows, table_.num_columns()), "");
}

TEST_F(OutputCheck, OneFlippedByteInANumericColumnIsCaught) {
  Table flipped = table_;
  // Column 4 is trip_distance (float64); flip one bit of row 50's value.
  ASSERT_FALSE(flipped.columns[4].IsNull(50));
  (*flipped.columns[4].mutable_data())[50 * 8 + 3] ^= 0x01;
  const std::string diff =
      CompareDigests(DigestTable(flipped), DigestTable(table_));
  EXPECT_NE(diff.find("column 4"), std::string::npos) << diff;
}

TEST_F(OutputCheck, OneFlippedByteInAStringColumnIsCaught) {
  Table flipped = table_;
  std::vector<uint8_t>* bytes = flipped.columns[6].mutable_string_data();
  ASSERT_FALSE(bytes->empty());
  (*bytes)[bytes->size() / 2] ^= 0x20;
  const std::string diff =
      CompareDigests(DigestTable(flipped), DigestTable(table_));
  EXPECT_NE(diff.find("column 6"), std::string::npos) << diff;
}

TEST_F(OutputCheck, ANullFlipIsCaught) {
  Table flipped = table_;
  flipped.columns[0].SetNull(10);
  EXPECT_NE(CompareDigests(DigestTable(flipped), DigestTable(table_)), "");
}

TEST_F(OutputCheck, PartitionsDigestLikeTheWholeTable) {
  const int64_t half = table_.num_rows / 2;
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < table_.num_rows; ++r) {
    (r < half ? head : tail).push_back(r);
  }
  TableDigester digester;
  digester.Add(TakeRows(table_, head));
  digester.Add(TakeRows(table_, tail));
  EXPECT_EQ(CompareDigests(digester.Finish(), DigestTable(table_)), "");

  TableDigester reordered;
  reordered.Add(TakeRows(table_, tail));
  reordered.Add(TakeRows(table_, head));
  EXPECT_NE(CompareDigests(reordered.Finish(), DigestTable(table_)), "");
}

TEST_F(OutputCheck, ShapeMismatchIsReported) {
  EXPECT_NE(CheckShape(table_, table_.num_rows + 1, table_.num_columns()), "");
  EXPECT_NE(CheckShape(table_, table_.num_rows, table_.num_columns() - 1), "");
}

TEST(ResultLine, HasExactlyTheFourKeys) {
  const std::string line =
      ResultJson(true, 12, 0, {{"gibps", 1.25, "GiB/s"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"gibps\": {\"value\": 1.25, \"unit\": \"GiB/s\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanRecorder spans(true);
  {
    SpanRecorder::Scope parent(&spans, "parent", 1);
    SpanRecorder::Scope child(&spans, "child", 1);
  }
  const std::vector<SpanRecorder::Span> recorded = spans.Spans();
  ASSERT_EQ(recorded.size(), 2u);
  EXPECT_EQ(recorded[0].parent, -1);
  EXPECT_EQ(recorded[1].parent, 0);
  double parent_self = -1;
  for (const auto& [name, seconds] : spans.SelfSeconds()) {
    if (name == "parent") parent_self = seconds;
  }
  const double parent_total = spans.TotalSeconds("parent");
  const double child_total = spans.TotalSeconds("child");
  EXPECT_NEAR(parent_self, parent_total - child_total, 1e-9);
  EXPECT_NE(spans.ChromeTraceJson().find("\"parent\":0"), std::string::npos);

  SpanRecorder off(false);
  { SpanRecorder::Scope ignored(&off, "x", 0); }
  EXPECT_TRUE(off.Spans().empty());
}

}  // namespace
}  // namespace parparaw::perfbench
