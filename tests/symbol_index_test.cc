#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dfa/formats.h"
#include "dialect/dialect.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "simd/dispatch.h"
#include "simd/simd_kernels.h"
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

/// Runs the context and bitmap steps over `input` under `format` on a
/// 4-worker pool, starting from an index whose every bit is set. With
/// `mis_speculate`, every converged or speculated chunk's verification
/// token is corrupted, so the bitmap step re-walks each suffix the kernel
/// wrote.
std::unique_ptr<StepHarness> RunIndex(const std::string& input,
                                      const Format& format, size_t chunk_size,
                                      ThreadPool* pool, bool mis_speculate,
                                      int64_t* corrupted,
                                      obs::MetricsRegistry* metrics) {
  ParseOptions options;
  options.format = format;
  options.chunk_size = chunk_size;
  options.pool = pool;
  options.metrics = metrics;
  auto h = StepHarness::Make(input, options);
  EXPECT_NE(h, nullptr);
  if (h == nullptr) return h;
  constexpr uint64_t kAll = ~uint64_t{0};
  h->state.symbol_index.assign(simd::MaskWordsFor(input.size()) + 4,
                               simd::SymbolMasks{kAll, kAll, kAll});
  EXPECT_TRUE(h->RunContext().ok());
  if (mis_speculate) *corrupted += CorruptSpeculationTokens(&h->state);
  EXPECT_TRUE(BitmapStep::Run(&h->state, &h->timings).ok());
  return h;
}

/// How the vector levels' chunk kernels ended at one chunk size, summed
/// over levels (simd.chunks_* counters).
struct KernelOutcomes {
  int64_t converged = 0;
  int64_t speculated = 0;
  int64_t unconverged = 0;
};

/// Checks, at every level and chunk size and with and without corrupted
/// tokens, that the index equals a sequential walk of `format`'s DFA bit
/// for bit (padding bits zero), and that the record counts, entry states
/// and first invalid offset equal the scalar level's. Every token a vector
/// level wrote must have been corrupted, and with `kernels_write` there
/// must be some at each level. Returns the vector levels' outcomes per
/// chunk size.
std::map<size_t, KernelOutcomes> ExpectIndexMatchesSequentialWalk(
    const std::string& input, const Format& format, bool kernels_write = true) {
  std::map<size_t, KernelOutcomes> outcomes;
  const std::vector<simd::SymbolMasks> want =
      SequentialMasks(input, format.dfa);
  ThreadPool pool(4);
  std::map<size_t, std::unique_ptr<StepHarness>> scalar;
  for (KernelLevel level : Levels()) {
    ScopedKernelLevel force(level);
    int64_t corrupted = 0;
    int64_t written = 0;
    for (bool mis_speculate : {false, true}) {
      for (size_t chunk_size : kChunkSizes) {
        const std::string context =
            std::string(simd::KernelLevelName(level)) +
            " chunk=" + std::to_string(chunk_size) +
            (mis_speculate ? " mis-speculated" : "");
        obs::MetricsRegistry metrics;
        auto h = RunIndex(input, format, chunk_size, &pool, mis_speculate,
                          &corrupted, &metrics);
        if (h == nullptr) {
          ADD_FAILURE() << context;
          return outcomes;
        }
        const SymbolIndex& got = h->state.symbol_index;
        EXPECT_EQ(got.size(), want.size()) << context;
        if (got.size() != want.size()) return outcomes;
        for (size_t w = 0; w < want.size(); ++w) {
          EXPECT_EQ(got[w].record, want[w].record) << context << " word " << w;
          EXPECT_EQ(got[w].field, want[w].field) << context << " word " << w;
          EXPECT_EQ(got[w].control, want[w].control)
              << context << " word " << w;
          if (got[w] != want[w]) return outcomes;
        }
        // Bits past the end stay zero (the expected masks have none).
        if (input.size() % 64 != 0) {
          const uint64_t padding = ~uint64_t{0} << (input.size() % 64);
          const simd::SymbolMasks& last = got.back();
          EXPECT_EQ((last.record | last.field | last.control) & padding, 0u)
              << context;
        }
        if (level == KernelLevel::kScalar) {
          if (!mis_speculate) scalar[chunk_size] = std::move(h);
          continue;
        }
        const PipelineState& ref = scalar.at(chunk_size)->state;
        EXPECT_EQ(h->state.record_counts, ref.record_counts) << context;
        EXPECT_EQ(h->state.first_invalid_offset, ref.first_invalid_offset)
            << context;
        EXPECT_EQ(h->state.entry_states, ref.entry_states) << context;
        EXPECT_EQ(h->state.final_state, ref.final_state) << context;
        if (!mis_speculate) {
          KernelOutcomes& o = outcomes[chunk_size];
          const int64_t converged =
              metrics.GetCounter("simd.chunks_converged")->Value();
          const int64_t speculated =
              metrics.GetCounter("simd.chunks_speculated")->Value();
          o.converged += converged;
          o.speculated += speculated;
          o.unconverged +=
              metrics.GetCounter("simd.chunks_unconverged")->Value();
          written += converged + speculated;
        }
      }
    }
    // The corrupted tokens really forced re-walks.
    if (level != KernelLevel::kScalar) {
      EXPECT_EQ(corrupted, written) << simd::KernelLevelName(level);
      if (kernels_write) {
        EXPECT_GT(corrupted, 0) << simd::KernelLevelName(level);
      }
    }
  }
  return outcomes;
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
  ExpectIndexMatchesSequentialWalk(input, *format);
}

/// Unquoted CSV laid out so that every 64-byte block has a delimiter at
/// bits 0 and 63, with a tail that is not a multiple of 64.
std::string DelimitersAtBlockEdges(size_t blocks) {
  std::string s;
  for (size_t w = 0; w < blocks; ++w) {
    s += w % 3 == 0 ? '\n' : ',';
    for (int i = 1; i < 63; ++i) {
      s += i % 5 == 0 ? ',' : static_cast<char>('a' + i % 26);
    }
    s += w % 2 == 0 ? ',' : '\n';
  }
  s += "tail,x\n12";
  return s;
}

// Unquoted data under RFC 4180 leaves two live states in every chunk (FLD's
// family and ENC), so every chunk that leaves a block after its first is
// speculated; the walks take runs that start and stop at bits 0 and 63 of
// a block.
TEST(SymbolIndexTest, SpeculatedChunksMatchAtBlockEdges) {
  const std::string input = DelimitersAtBlockEdges(200);
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());
  const std::vector<simd::SymbolMasks> want =
      SequentialMasks(input, format->dfa);
  ASSERT_EQ(want[0].record & 1, 1u);
  ASSERT_EQ(want[0].field >> 63, 1u);
  ASSERT_EQ(want[1].field & 1, 1u);
  ASSERT_EQ(want[1].record >> 63, 1u);
  const auto outcomes = ExpectIndexMatchesSequentialWalk(input, *format);
  ASSERT_TRUE(outcomes.contains(4096));
  EXPECT_GT(outcomes.at(4096).speculated, 0);
  EXPECT_EQ(outcomes.at(4096).unconverged, 0);
  EXPECT_EQ(outcomes.at(4096).converged, 0);
  // A 7- or 31-byte chunk never leaves a block after its first.
  EXPECT_EQ(outcomes.at(7).speculated + outcomes.at(31).speculated, 0);
}

// ESC and INV take no run over data symbols the way FLD and ENC do: after a
// closing quote a data byte enters INV (the first invalid transition,
// found inside ESC's one-byte run), and INV then marks every byte as
// control. The invalid transition sits at bit 0, bit 63 and mid-block.
TEST(SymbolIndexTest, EscapeAndInvalidStatesMatch) {
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());
  for (size_t bad : {size_t{64 * 40}, size_t{64 * 40 + 63}, size_t{3000}}) {
    std::string input;
    while (input.size() + 15 < bad) input += "\"a,\"\"b\"\"\",c,\n";
    input.append(bad - 1 - input.size(), 'q');
    // A closing quote, then the data byte at `bad` enters INV.
    input[input.rfind('\n') + 1] = '"';
    input += "\"z";
    input += DelimitersAtBlockEdges(100);
    SCOPED_TRACE("invalid at " + std::to_string(bad));
    ExpectIndexMatchesSequentialWalk(input, *format);
  }
}

// A CRLF record delimiter: the compiled dialect has a state for a pending
// '\r', and quoted fields hold bare CRs and LFs.
TEST(SymbolIndexTest, CrlfDialectMatches) {
  dialect::DialectSpec spec;
  spec.record_delimiter = "\r\n";
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE(compiled->format.dfa.fits_register_budget());
  std::string input;
  for (int r = 0; input.size() < 9000; ++r) {
    input += r % 7 == 0 ? "\"in\r\nquotes, \"\"x\"\"\"" : "plain";
    input += ",12,abc" + std::to_string(r) + "\r\n";
  }
  ExpectIndexMatchesSequentialWalk(input, compiled->format);
}

// An in-budget fixed-width layout: every state advances on every byte, so
// no state has a uniform run and the walks step each byte. A malformed
// stretch sends the walk to INV.
TEST(SymbolIndexTest, FixedWidthDialectMatches) {
  dialect::DialectSpec spec;
  spec.fixed_widths = {3, 2, 4};
  spec.quote = 0;
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE(compiled->format.dfa.fits_register_budget());
  std::string input;
  for (int r = 0; input.size() < 9000; ++r) input += "abcdefghi\n";
  ExpectIndexMatchesSequentialWalk(input, compiled->format);
  input.insert(5000, "0123456789abcdef");
  ExpectIndexMatchesSequentialWalk(input, compiled->format);
}

/// A DFA of `n` states that permutes its states on every symbol, so its
/// lanes never merge: data bytes advance a cycle, '|' is a field delimiter
/// and '\n' a record delimiter that both keep or shift the state.
Format PermutationFormat(int n) {
  DfaBuilder b;
  for (int s = 0; s < n; ++s) b.AddState("S" + std::to_string(s), true);
  const int pipe = b.AddSymbol('|');
  const int newline = b.AddSymbol('\n');
  for (int s = 0; s < n; ++s) {
    b.SetTransition(s, pipe, s, kSymbolFieldDelimiter | kSymbolControl);
    b.SetTransition(s, newline, (s + 1) % n,
                    kSymbolRecordDelimiter | kSymbolControl);
    b.SetDefaultTransition(s, (s + 1) % n,
                           s == 0 ? kSymbolControl : kSymbolData);
  }
  Format format;
  auto dfa = b.Build();
  EXPECT_TRUE(dfa.ok());
  if (dfa.ok()) format.dfa = *std::move(dfa);
  for (int s = 0; s < n; ++s) format.MarkMidRecordState(s);
  return format;
}

// Lanes that never merge: with at most kMaxSpeculatedStates of them the
// kernel walks each on its own (stepping every byte, since no state has a
// uniform run); with more, every chunk keeps the |S|-lane path and leaves
// its masks to the bitmap step.
TEST(SymbolIndexTest, LiveStatesAroundTheBound) {
  std::string input;
  for (int r = 0; input.size() < 9000; ++r) {
    input += "ab|cde|f" + std::to_string(r % 10) + "\n";
  }
  for (int n : {simd::kMaxSpeculatedStates, simd::kMaxSpeculatedStates + 2}) {
    SCOPED_TRACE(std::to_string(n) + " states");
    const Format format = PermutationFormat(n);
    ASSERT_EQ(format.dfa.num_states(), n);
    const auto outcomes = ExpectIndexMatchesSequentialWalk(
        input, format, /*kernels_write=*/n <= simd::kMaxSpeculatedStates);
    ASSERT_TRUE(outcomes.contains(4096));
    const KernelOutcomes& big = outcomes.at(4096);
    EXPECT_EQ(big.converged, 0);
    if (n <= simd::kMaxSpeculatedStates) {
      EXPECT_GT(big.speculated, 0);
      EXPECT_EQ(big.unconverged, 0);
    } else {
      EXPECT_EQ(big.speculated, 0);
      EXPECT_GT(big.unconverged, 0);
    }
  }
}

}  // namespace
}  // namespace parparaw
