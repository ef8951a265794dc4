#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baseline/sequential_parser.h"
#include "core/parser.h"
#include "dfa/formats.h"
#include "simd/dispatch.h"
#include "text/unicode.h"
#include "test_util.h"

// Chunk-boundary behaviour for multibyte UTF-8 input (§4.2): every chunked
// pass adjusts its begin offset to the next code-point start, and the
// adjustment must be applied identically by the scalar pipeline and every
// src/simd kernel level — a disagreement would make the context and bitmap
// steps disagree about chunk extents and silently corrupt the bitmaps.

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

std::vector<KernelLevel> AllLevels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar, KernelLevel::kSwar};
  for (KernelLevel level :
       {KernelLevel::kSse42, KernelLevel::kAvx2, KernelLevel::kNeon}) {
    if (simd::KernelLevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

/// Reference implementation: smallest boundary >= pos, giving up after the
/// three continuation bytes a valid lead can be followed by (mirrors the
/// documented contract on invalid sequences).
size_t NaiveAdjust(const uint8_t* data, size_t size, size_t pos) {
  if (pos > size) return size;
  const size_t limit = pos + 3;
  while (pos < size && pos < limit && IsUtf8ContinuationByte(data[pos])) ++pos;
  return pos;
}

// One-, two-, three-, and four-byte code points in one string; the
// adjustment is checked at every byte position.
TEST(Utf8BoundaryTest, AdjustChunkBeginAtEveryPosition) {
  // "a é ț 汉 𝛑 🚀 z" without the spaces, covering lengths 1-4.
  const std::string input = "a\xC3\xA9\xC8\x9B\xE6\xB1\x89\xF0\x9D\x9B\x91\xF0\x9F\x9A\x80z";
  const uint8_t* data = reinterpret_cast<const uint8_t*>(input.data());
  for (size_t pos = 0; pos <= input.size() + 2; ++pos) {
    EXPECT_EQ(AdjustChunkBeginUtf8(data, input.size(), pos),
              NaiveAdjust(data, input.size(), std::min(pos, input.size())))
        << "pos " << pos;
  }
}

// Sequences synthesised from code points at the encoding-length breakpoints.
TEST(Utf8BoundaryTest, EncodeAndAdjustAtLengthBreakpoints) {
  const struct {
    uint32_t code_point;
    int expected_length;
  } kCases[] = {
      {0x7F, 1},    {0x80, 2},     {0x7FF, 2},    {0x800, 3},
      {0xFFFF, 3},  {0x10000, 4},  {0x10FFFF, 4},
  };
  for (const auto& c : kCases) {
    uint8_t buf[8] = {};
    const int n = EncodeUtf8(c.code_point, buf);
    ASSERT_EQ(n, c.expected_length) << std::hex << c.code_point;
    EXPECT_EQ(Utf8SequenceLength(buf[0]), n) << std::hex << c.code_point;
    // From any offset inside the sequence, the next boundary is its end.
    for (int pos = 1; pos < n; ++pos) {
      EXPECT_EQ(AdjustChunkBeginUtf8(buf, static_cast<size_t>(n),
                                     static_cast<size_t>(pos)),
                static_cast<size_t>(n))
          << std::hex << c.code_point << " pos " << pos;
    }
    EXPECT_EQ(AdjustChunkBeginUtf8(buf, static_cast<size_t>(n), 0), 0u);
  }
}

std::string MultibyteCsv() {
  // Fields mixing all sequence lengths with quoting, embedded delimiters,
  // and multibyte symbols straddling arbitrary chunk boundaries.
  std::string input;
  input += "caf\xC3\xA9,\xE6\xB1\x89\xE5\xAD\x97,plain\n";
  input += "\"\xF0\x9D\x9B\x91,\xF0\x9F\x9A\x80\",x\xC8\x9By,\"q\"\"\xC3\x9F\"\n";
  input += "\xE2\x86\x92\xE2\x86\x92,,end\xF0\x9F\x9A\x80\n";
  return input;
}

// Chunk sizes 1-8 place a boundary inside every multibyte sequence at some
// point; the chunked parse must match the sequential baseline and be
// identical across all kernel levels, including the intermediate bitmaps.
TEST(Utf8BoundaryTest, ChunkedParsesMatchSequentialAtTinyChunkSizes) {
  const std::string input = MultibyteCsv();
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());

  ParseOptions sequential_options;
  sequential_options.format = *format;
  Result<ParseOutput> baseline =
      SequentialParser::Parse(input, sequential_options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (size_t chunk_size = 1; chunk_size <= 8; ++chunk_size) {
    for (KernelLevel level : AllLevels()) {
      ScopedKernelLevel force(level);
      ParseOptions options;
      options.format = *format;
      options.chunk_size = chunk_size;
      options.encoding = TextEncoding::kUtf8;
      Result<ParseOutput> got = Parser::Parse(input, options);
      const std::string context = std::string("chunk_size ") +
                                  std::to_string(chunk_size) + " level " +
                                  simd::KernelLevelName(level);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
      EXPECT_TRUE(baseline->table.Equals(got->table)) << context;
    }
  }
}

// The context and bitmap steps must agree on the adjusted chunk ranges for
// every level: identical per-chunk transition vectors and bitmap masks
// even when a chunk's nominal begin lands mid-sequence and the chunk
// becomes empty after adjustment.
TEST(Utf8BoundaryTest, StepsAgreeOnAdjustedChunksAcrossLevels) {
  const std::string input = MultibyteCsv();
  for (size_t chunk_size = 1; chunk_size <= 4; ++chunk_size) {
    ParseOptions options;
    options.chunk_size = chunk_size;
    options.encoding = TextEncoding::kUtf8;

    simd::SetForcedKernelLevel(KernelLevel::kScalar);
    auto scalar = StepHarness::Make(input, options);
    ASSERT_NE(scalar, nullptr);
    ASSERT_TRUE(scalar->RunThroughBitmaps().ok());
    simd::SetForcedKernelLevel(std::nullopt);

    for (KernelLevel level : AllLevels()) {
      ScopedKernelLevel force(level);
      auto harness = StepHarness::Make(input, options);
      ASSERT_NE(harness, nullptr);
      ASSERT_TRUE(harness->RunThroughBitmaps().ok());
      const std::string context = std::string("chunk_size ") +
                                  std::to_string(chunk_size) + " level " +
                                  simd::KernelLevelName(level);
      ASSERT_EQ(scalar->state.entry_states, harness->state.entry_states)
          << context;
      ASSERT_EQ(scalar->state.symbol_index, harness->state.symbol_index)
          << context;
      ASSERT_EQ(scalar->state.record_counts, harness->state.record_counts)
          << context;
    }
  }
}

}  // namespace
}  // namespace parparaw
