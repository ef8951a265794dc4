#include <gtest/gtest.h>

#include "test_util.h"

namespace parparaw {
namespace {

TEST(ColumnOffsetOpTest, PaperDefinition) {
  // a ⊕ b = b if b absolute; {a.value + b.value, a.absolute} if b relative.
  const ColumnOffset rel2{2, false};
  const ColumnOffset rel3{3, false};
  const ColumnOffset abs1{1, true};
  EXPECT_EQ(CombineColumnOffsets(rel2, rel3).value, 5u);
  EXPECT_FALSE(CombineColumnOffsets(rel2, rel3).absolute);
  EXPECT_EQ(CombineColumnOffsets(rel2, abs1).value, 1u);
  EXPECT_TRUE(CombineColumnOffsets(rel2, abs1).absolute);
  EXPECT_EQ(CombineColumnOffsets(abs1, rel3).value, 4u);
  EXPECT_TRUE(CombineColumnOffsets(abs1, rel3).absolute);
}

TEST(ColumnOffsetOpTest, Associativity) {
  const ColumnOffset cases[] = {
      {0, false}, {1, false}, {5, false}, {0, true}, {2, true}, {7, true}};
  for (const auto& a : cases) {
    for (const auto& b : cases) {
      for (const auto& c : cases) {
        const ColumnOffset left =
            CombineColumnOffsets(CombineColumnOffsets(a, b), c);
        const ColumnOffset right =
            CombineColumnOffsets(a, CombineColumnOffsets(b, c));
        EXPECT_EQ(left.value, right.value);
        EXPECT_EQ(left.absolute, right.absolute);
      }
    }
  }
}

class OffsetStepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OffsetStepTest, RecordAndColumnOffsetsMatchSequential) {
  const std::string input =
      "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", "
      "black\"\nlast,row,z\n";
  ParseOptions options;
  options.chunk_size = GetParam();
  auto h = StepHarness::Make(input, options);
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->RunThroughOffsets().ok());

  // Sequential ground truth: replay the DFA tracking records and columns.
  const Dfa& dfa = h->options.format.dfa;
  int state = dfa.start_state();
  int64_t records = 0;
  uint32_t column = 0;
  size_t pos = 0;
  for (int64_t c = 0; c < h->state.num_chunks; ++c) {
    EXPECT_EQ(h->state.record_offsets[c], records) << "chunk " << c;
    EXPECT_EQ(h->state.entry_columns[c], column) << "chunk " << c;
    const size_t end = std::min(pos + GetParam(), input.size());
    for (; pos < end; ++pos) {
      const int group = dfa.SymbolGroup(static_cast<uint8_t>(input[pos]));
      const uint8_t flags = dfa.Flags(state, group);
      if (flags & kSymbolRecordDelimiter) {
        ++records;
        column = 0;
      } else if (flags & kSymbolFieldDelimiter) {
        ++column;
      }
      state = dfa.NextState(state, group);
    }
  }
  EXPECT_EQ(h->state.num_records, records);  // trailing newline present
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, OffsetStepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 31, 1024));

TEST(OffsetStepTest, TrailingRecordCountsOnceMore) {
  ParseOptions options;
  options.chunk_size = 4;
  auto h = StepHarness::Make("a,b\nc,d", options);
  ASSERT_TRUE(h->RunThroughOffsets().ok());
  EXPECT_EQ(h->state.num_records, 2);
}

TEST(OffsetStepTest, EmptyLinesMakeEmptyRecords) {
  ParseOptions options;
  options.chunk_size = 3;
  auto h = StepHarness::Make("\n\na\n", options);
  ASSERT_TRUE(h->RunThroughOffsets().ok());
  EXPECT_EQ(h->state.num_records, 3);
}

TEST(BitmapStepTest, FlagsMatchSequentialDfa) {
  const std::string input = "x,\"a,\n\"\"q\"\ny\n";
  ParseOptions options;
  options.chunk_size = 2;
  auto h = StepHarness::Make(input, options);
  ASSERT_TRUE(h->RunThroughBitmaps().ok());

  const Dfa& dfa = h->options.format.dfa;
  int state = dfa.start_state();
  for (size_t i = 0; i < input.size(); ++i) {
    const int group = dfa.SymbolGroup(static_cast<uint8_t>(input[i]));
    EXPECT_EQ(FlagsAt(h->state.symbol_index, i), dfa.Flags(state, group))
        << "byte " << i << " '" << input[i] << "'";
    state = dfa.NextState(state, group);
  }
}

TEST(BitmapStepTest, ValidationFailsOnInvalidSymbol) {
  ParseOptions options;
  options.chunk_size = 4;
  options.validate = true;
  auto h = StepHarness::Make("ab\"cd\n", options);  // quote in bare field
  const Status st = h->RunThroughBitmaps();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("offset 2"), std::string::npos)
      << st.message();
}

TEST(BitmapStepTest, ValidationFailsOnNonAcceptingEnd) {
  ParseOptions options;
  options.validate = true;
  auto h = StepHarness::Make("a,\"unterminated", options);
  const Status st = h->RunThroughBitmaps();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ENC"), std::string::npos) << st.message();
}

TEST(BitmapStepTest, NoValidationPassesOnInvalidInput) {
  ParseOptions options;
  options.validate = false;
  auto h = StepHarness::Make("ab\"cd\n", options);
  EXPECT_TRUE(h->RunThroughBitmaps().ok());
  EXPECT_GE(h->state.first_invalid_offset, 0);
}

}  // namespace
}  // namespace parparaw
