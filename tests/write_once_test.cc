#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dfa/formats.h"
#include "simd/dispatch.h"
#include "test_util.h"
#include "util/huge_pages.h"

// The write-once rule of the parse scratch buffers (core/pipeline_state.h,
// ScratchAllocator): the symbol index and the symbol sort's CSS grow
// without a zero fill, so every element must be written by the pass that
// produces it. The field gather writes the output columns instead, which
// the table comparison covers. A PipelineState that already parsed a
// larger input holds non-zero junk in all of them; pointing it at a
// smaller input must still give the state and table of a fresh parse, bit
// for bit. Sanitizer builds poison fresh scratch storage, so there the
// fresh side catches an element no pass wrote as well.

namespace parparaw {
namespace {

using simd::KernelLevel;

class ScopedKernelLevel {
 public:
  explicit ScopedKernelLevel(KernelLevel level) {
    simd::SetForcedKernelLevel(level);
  }
  ~ScopedKernelLevel() { simd::SetForcedKernelLevel(std::nullopt); }
};

/// Scalar reference, portable SWAR, and the best vector level of this CPU.
std::vector<KernelLevel> Levels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar, KernelLevel::kSwar};
  const KernelLevel best = simd::DetectBestKernelLevel();
  if (best != KernelLevel::kSwar) levels.push_back(best);
  return levels;
}

/// Dense, delimiter-heavy input of `records` records: leaves non-zero mask
/// bits and CSS bytes everywhere in the scratch buffers.
/// `salt` shifts the field widths, so two salts lay their bytes out
/// differently.
std::string DenseInput(int records, int salt) {
  std::string csv;
  for (int i = 0; i < records; ++i) {
    csv += "\"big, \xC3\xA9" + std::to_string(i) + "\n\",\"" +
           std::string(static_cast<size_t>((i + salt) % 13), 'x') +
           "\"\"y\"," + std::to_string(i * 31 + salt) + "\n";
  }
  return csv;
}

/// A leading UTF-8 continuation byte (outside every chunk), quoted field and
/// record delimiters crossing chunk boundaries, multibyte values, empty
/// fields, and an unterminated trailing record. Three fields per record, so
/// every tagging mode accepts it.
std::string SmallInput() {
  std::string csv = "\xA9";
  for (int i = 0; i < 24; ++i) {
    switch (i % 4) {
      case 0:
        csv += "a" + std::to_string(i) + ",\"b,\nc\xC3\xBC\",d\n";
        break;
      case 1:
        csv += ",,\n";
        break;
      case 2:
        csv += "\"\xE6\xB1\x89,\xF0\x9F\x9A\x80\"," + std::to_string(i) +
               ",\"y\"\"z\"\n";
        break;
      default:
        csv += "plain" + std::to_string(i) + ",,\"quoted, "
               "and long enough to span a chunk\"\n";
        break;
    }
  }
  csv += "tail,\"q,\n\",end";
  return csv;
}

/// Points `h` at `input`, keeping every buffer the previous parse left in
/// its PipelineState.
void Retarget(StepHarness* h, const std::string& input) {
  h->input = input;
  h->state.data = reinterpret_cast<const uint8_t*>(h->input.data());
  h->state.size = h->input.size();
  h->state.num_chunks = static_cast<int64_t>(
      bit_util::CeilDiv(h->input.size(), h->options.chunk_size));
}

/// Runs every step, converting into `out`. With `mis_speculate`, every
/// converged or speculated chunk's verification token is corrupted after
/// the context step, so the bitmap step must detect it and re-walk the
/// suffix.
void RunSteps(StepHarness* h, bool mis_speculate, ParseOutput* out,
              int64_t* corrupted) {
  ASSERT_TRUE(h->RunContext().ok());
  if (mis_speculate) *corrupted += CorruptSpeculationTokens(&h->state);
  ASSERT_TRUE(BitmapStep::Run(&h->state, &h->timings).ok());
  ASSERT_TRUE(OffsetStep::Run(&h->state, &h->timings).ok());
  const Status tagged = TagStep::Run(&h->state, &h->timings);
  ASSERT_TRUE(tagged.ok()) << tagged.ToString();
  ASSERT_TRUE(PartitionStep::Run(&h->state, &h->timings, &h->work).ok());
  const Status converted =
      ConvertStep::Run(&h->state, &h->timings, &h->work, out);
  ASSERT_TRUE(converted.ok()) << converted.ToString();
}

/// Parses `junk` on a harness, points it at `input`, and checks that the
/// reused state and table match those of a fresh harness on `input`, bit
/// for bit. The fresh harness is left in `*fresh_out`.
void ExpectReusedMatchesFresh(const std::string& junk, const std::string& input,
                              const ParseOptions& options,
                              const std::string& context, int64_t rows,
                              int64_t* corrupted,
                              std::unique_ptr<StepHarness>* fresh_out) {
  auto reused = StepHarness::Make(junk, options);
  ASSERT_NE(reused, nullptr);
  ParseOutput junk_out;
  int64_t ignored = 0;
  ASSERT_NO_FATAL_FAILURE(RunSteps(reused.get(), false, &junk_out, &ignored));
  Retarget(reused.get(), input);
  ParseOutput reused_out;
  ASSERT_NO_FATAL_FAILURE(
      RunSteps(reused.get(), true, &reused_out, corrupted));
  // The buffers were reused, not reallocated: the junk was there.
  ASSERT_GE(reused->state.symbol_index.capacity(),
            simd::MaskWordsFor(junk.size()))
      << context;

  auto fresh = StepHarness::Make(input, options);
  ASSERT_NE(fresh, nullptr);
  ParseOutput fresh_out_table;
  int64_t fresh_corrupted = 0;
  ASSERT_NO_FATAL_FAILURE(
      RunSteps(fresh.get(), true, &fresh_out_table, &fresh_corrupted));

  EXPECT_EQ(reused->state.symbol_index, fresh->state.symbol_index) << context;
  EXPECT_EQ(reused->state.css, fresh->state.css) << context;
  EXPECT_TRUE(reused_out.table.Equals(fresh_out_table.table)) << context;
  EXPECT_EQ(reused_out.table.rejected, fresh_out_table.table.rejected)
      << context;
  EXPECT_EQ(fresh_out_table.table.num_rows, rows) << context;
  *fresh_out = std::move(fresh);
}

std::string Context(KernelLevel level, const ParseOptions& options) {
  return std::string(simd::KernelLevelName(level)) + " transpose=" +
         std::to_string(static_cast<int>(options.transpose_mode)) +
         " tagging=" + std::to_string(static_cast<int>(options.tagging_mode)) +
         " chunk=" + std::to_string(options.chunk_size);
}

TEST(WriteOnceTest, ReusedStateMatchesFreshHarness) {
  const std::string large = DenseInput(3000, 0);
  const std::string small = SmallInput();
  for (KernelLevel level : Levels()) {
    ScopedKernelLevel force(level);
    int64_t corrupted = 0;
    for (TransposeMode transpose :
         {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
      for (TaggingMode tagging :
           {TaggingMode::kRecordTags, TaggingMode::kInlineTerminated,
            TaggingMode::kVectorDelimited}) {
        for (size_t chunk_size : {size_t{7}, size_t{64}}) {
          ParseOptions options;
          options.transpose_mode = transpose;
          options.tagging_mode = tagging;
          options.chunk_size = chunk_size;
          std::unique_ptr<StepHarness> fresh;
          ASSERT_NO_FATAL_FAILURE(
              ExpectReusedMatchesFresh(large, small, options,
                                       Context(level, options), 25,
                                       &corrupted, &fresh));
        }
      }
    }
    // The vector levels converged somewhere, so the corrupted tokens
    // really forced mis-speculations on the reused state.
    if (level != KernelLevel::kScalar) {
      EXPECT_GT(corrupted, 0) << simd::KernelLevelName(level);
    }
  }
}

TEST(WriteOnceTest, ReusedMappedStateMatchesFreshHarness) {
  // Large enough that the symbol index (3/8 byte per input byte) exceeds
  // 2 MiB on both sides, so outside ASan builds it comes from
  // ScratchAllocator's own mapping; the field gather allocates no other
  // scratch buffer. One transpose mode and two kernel levels (the scalar
  // reference and the best vector level, which mis-speculates here) keep
  // it to seconds under TSan.
  constexpr int kRecords = 180000;
  const std::string junk = DenseInput(kRecords + kRecords / 8, 0);
  const std::string input = DenseInput(kRecords, 5);
  for (KernelLevel level :
       {KernelLevel::kScalar, simd::DetectBestKernelLevel()}) {
    ScopedKernelLevel force(level);
    ParseOptions options;
    options.transpose_mode = TransposeMode::kFieldGather;
    options.chunk_size = 4096;
    const std::string context = Context(level, options);
    int64_t corrupted = 0;
    std::unique_ptr<StepHarness> fresh;
    ASSERT_NO_FATAL_FAILURE(ExpectReusedMatchesFresh(
        junk, input, options, context, kRecords, &corrupted, &fresh));
    const PipelineState& state = fresh->state;
    EXPECT_GE(state.symbol_index.size() * sizeof(simd::SymbolMasks),
              huge_pages::kHugePageBytes)
        << context;
    EXPECT_TRUE(state.css.empty()) << context;
    if (level != KernelLevel::kScalar) {
      EXPECT_GT(corrupted, 0) << context;
    }
  }
}

}  // namespace
}  // namespace parparaw
