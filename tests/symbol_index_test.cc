#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dfa/formats.h"
#include "parallel/thread_pool.h"
#include "simd/dispatch.h"
#include "test_util.h"

// The word-ownership rule of the bitmap indexes (SymbolIndex,
// core/pipeline_state.h): chunk edges are not word-aligned, so chunks
// share mask words, the word holding a chunk's spec_offset is written by
// two steps, and a mis-speculation re-walk rewrites part of a word. Every
// bit must still end up exactly what a sequential Dfa::Flags walk gives,
// whatever the chunk size, kernel level and schedule. The index starts
// full of set bits, so a bit no writer owns shows up as a mismatch.

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

constexpr size_t kChunkSizes[] = {7, 31, 63, 64, 65, 77, 4096};

/// Word boundaries that are also chunk starts for the chunk sizes above:
/// 64 x 7, 31, 63, 64 (and 7), 65 and 77.
constexpr size_t kStraddled[] = {448, 1984, 4032, 4096, 4160, 4928};

/// A 4-byte UTF-8 sequence (U+1F680).
const char kRocket[] = "\xF0\x9F\x9A\x80";

/// An RFC 4180 input laid out against the 64-bit words:
///   - record and field delimiters at bits 0 and 63 of words 0-3;
///   - a 4-byte UTF-8 sequence straddling each position of kStraddled, so
///     those chunk starts move two bytes into a word (some inside a quoted
///     field, some in an unquoted one);
///   - quoted fields holding delimiters and escaped quotes that cross chunk
///     edges of every size, one of them 4096 bytes long;
///   - an unterminated last record, and a size that is not a multiple of
///     64.
std::string WordLayoutInput() {
  std::string s = "a,b\n";
  const auto pad_to = [&s](size_t pos) {
    EXPECT_LE(s.size(), pos);
    if (s.size() < pos) s.append(pos - s.size(), 'x');
  };
  pad_to(63);
  s += '\n';  // record delimiter at bit 63 of word 0
  s += ',';   // field delimiter at bit 0 of word 1
  pad_to(127);
  s += ',';   // field delimiter at bit 63 of word 1
  s += '\n';  // record delimiter at bit 0 of word 2
  s += "\"q,\n\"\"";
  pad_to(191);
  s += "\"";  // a closing quote (control) at bit 63 of word 2
  s += ',';   // field delimiter at bit 0 of word 3
  pad_to(255);
  s += '\n';  // record delimiter at bit 63 of word 3
  for (size_t k = 0; k < std::size(kStraddled); ++k) {
    // Alternate: the sequence sits in a quoted field, then in a bare one.
    const bool in_quotes = k % 2 == 0;
    s += in_quotes ? "r,\"in, \"\"q\"\"\n" : "r,";
    pad_to(kStraddled[k] - 2);
    s += kRocket;
    s += in_quotes ? "\",tail\n" : ",tail\n";
  }
  // A quoted field longer than the largest chunk, crossing every edge.
  s += "\"";
  for (int i = 0; s.size() < 9000; ++i) {
    s += i % 3 == 0 ? "x,\n" : i % 3 == 1 ? "\"\"y" : "zz";
  }
  s += "\",last,unterminated";
  if (s.size() % 64 == 0) s += 'x';
  return s;
}

/// The three masks of a sequential Dfa::Flags walk over the whole input,
/// bits past the end zero.
std::vector<simd::SymbolMasks> SequentialMasks(const std::string& input,
                                               const Dfa& dfa) {
  std::vector<simd::SymbolMasks> masks(simd::MaskWordsFor(input.size()));
  int state = dfa.start_state();
  for (size_t i = 0; i < input.size(); ++i) {
    const int group = dfa.SymbolGroup(static_cast<uint8_t>(input[i]));
    const uint8_t flags = dfa.Flags(state, group);
    const uint64_t bit = uint64_t{1} << (i % 64);
    if (flags & kSymbolRecordDelimiter) masks[i / 64].record |= bit;
    if (flags & kSymbolFieldDelimiter) masks[i / 64].field |= bit;
    if (flags & kSymbolControl) masks[i / 64].control |= bit;
    state = dfa.NextState(state, group);
  }
  return masks;
}

/// Runs the context and bitmap steps over `input` on a 4-worker pool,
/// starting from an index whose every bit is set. With `mis_speculate`,
/// every converged chunk's verification token is corrupted, so the bitmap
/// step re-walks each speculative suffix.
std::unique_ptr<StepHarness> RunIndex(const std::string& input,
                                      size_t chunk_size, ThreadPool* pool,
                                      bool mis_speculate, int64_t* corrupted) {
  ParseOptions options;
  options.chunk_size = chunk_size;
  options.pool = pool;
  auto h = StepHarness::Make(input, options);
  EXPECT_NE(h, nullptr);
  if (h == nullptr) return h;
  constexpr uint64_t kAll = ~uint64_t{0};
  h->state.symbol_index.assign(simd::MaskWordsFor(input.size()) + 4,
                               simd::SymbolMasks{kAll, kAll, kAll});
  EXPECT_TRUE(h->RunContext().ok());
  if (mis_speculate) {
    for (size_t c = 0; c < h->state.spec_offsets.size(); ++c) {
      if (h->state.spec_offsets[c] < 0) continue;
      h->state.spec_states[c] = h->state.spec_states[c] == rfc4180::kEsc
                                    ? rfc4180::kEof
                                    : rfc4180::kEsc;
      ++*corrupted;
    }
  }
  EXPECT_TRUE(BitmapStep::Run(&h->state, &h->timings).ok());
  return h;
}

TEST(SymbolIndexTest, MasksMatchSequentialDfaWalk) {
  const std::string input = WordLayoutInput();
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());
  const std::vector<simd::SymbolMasks> want =
      SequentialMasks(input, format->dfa);
  // The input holds the shared-word cases it was laid out for.
  ASSERT_NE(input.size() % 64, 0u);
  for (size_t pos : kStraddled) {
    // The chunk start is a continuation byte two bytes into the sequence.
    ASSERT_EQ(input.compare(pos - 2, 4, kRocket), 0) << pos;
  }
  ASSERT_EQ(want[0].record >> 63, 1u);
  ASSERT_EQ(want[1].field & 1, 1u);
  ASSERT_EQ(want[1].field >> 63, 1u);
  ASSERT_EQ(want[2].record & 1, 1u);
  ASSERT_EQ(want[2].control >> 63, 1u);
  ASSERT_EQ(want[3].field & 1, 1u);
  ASSERT_EQ(want[3].record >> 63, 1u);
  ThreadPool pool(4);
  for (KernelLevel level : Levels()) {
    ScopedKernelLevel force(level);
    int64_t corrupted = 0;
    for (bool mis_speculate : {false, true}) {
      for (size_t chunk_size : kChunkSizes) {
        const std::string context =
            std::string(simd::KernelLevelName(level)) +
            " chunk=" + std::to_string(chunk_size) +
            (mis_speculate ? " mis-speculated" : "");
        auto h = RunIndex(input, chunk_size, &pool, mis_speculate, &corrupted);
        ASSERT_NE(h, nullptr) << context;
        const SymbolIndex& got = h->state.symbol_index;
        ASSERT_EQ(got.size(), want.size()) << context;
        for (size_t w = 0; w < want.size(); ++w) {
          ASSERT_EQ(got[w].record, want[w].record) << context << " word " << w;
          ASSERT_EQ(got[w].field, want[w].field) << context << " word " << w;
          ASSERT_EQ(got[w].control, want[w].control)
              << context << " word " << w;
        }
        // Bits past the end stay zero (the expected masks have none).
        const uint64_t padding = ~uint64_t{0} << (input.size() % 64);
        const simd::SymbolMasks& last = got.back();
        EXPECT_EQ((last.record | last.field | last.control) & padding, 0u)
            << context;
      }
    }
    // The vector levels converged somewhere, so the corrupted tokens really
    // forced re-walks.
    if (level != KernelLevel::kScalar) {
      EXPECT_GT(corrupted, 0) << simd::KernelLevelName(level);
    }
  }
}

}  // namespace
}  // namespace parparaw
