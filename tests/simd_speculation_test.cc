#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/parser.h"
#include "dfa/formats.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"
#include "simd/simd_kernels.h"
#include "test_util.h"
#include "workload/generators.h"

// Properties of the speculation in the fused context+bitmap kernels
// (src/simd):
//
//  - Chunks whose state lanes never collapse to one live state (the
//    in-quote / out-of-quote ambiguity of unquoted data under a quoting
//    DFA) are speculated: the kernel walks each live state on its own and
//    writes the masks from the start lane's state, and they still match
//    the scalar pipeline bit for bit. Chunks too short to leave a block
//    after the first, and unterminated quotes spanning chunks, take the
//    non-speculative path.
//  - The bitmap step's verification token always detects a speculation
//    whose assumed entry arrival state is wrong, falls back to the exact
//    re-walk, and reports the event through simd.mis_speculations; a
//    chunk costs at most one re-walk however wrong the guess.
//  - The fused operator's per-chunk summaries obey the monoid laws the
//    paper's scan (§3.1/§3.2) depends on: associativity, identity, and
//    homomorphism over input concatenation.

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

std::vector<KernelLevel> AvailableVectorLevels() {
  std::vector<KernelLevel> levels = {KernelLevel::kSwar};
  for (KernelLevel level :
       {KernelLevel::kSse42, KernelLevel::kAvx2, KernelLevel::kNeon}) {
    if (simd::KernelLevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

ParseOptions Rfc4180Options(size_t chunk_size) {
  ParseOptions options;
  auto format = Rfc4180Format();
  EXPECT_TRUE(format.ok());
  if (format.ok()) options.format = *std::move(format);
  options.chunk_size = chunk_size;
  return options;
}

void ExpectBitmapsMatchScalar(const std::string& input,
                              const ParseOptions& options,
                              KernelLevel level) {
  simd::SetForcedKernelLevel(KernelLevel::kScalar);
  auto scalar = StepHarness::Make(input, options);
  ASSERT_NE(scalar, nullptr);
  ASSERT_TRUE(scalar->RunThroughBitmaps().ok());
  simd::SetForcedKernelLevel(level);
  auto vectorized = StepHarness::Make(input, options);
  ASSERT_NE(vectorized, nullptr);
  ASSERT_TRUE(vectorized->RunThroughBitmaps().ok());
  simd::SetForcedKernelLevel(std::nullopt);

  ASSERT_EQ(scalar->state.symbol_index, vectorized->state.symbol_index);
  ASSERT_EQ(scalar->state.record_counts, vectorized->state.record_counts);
  ASSERT_EQ(scalar->state.first_invalid_offset,
            vectorized->state.first_invalid_offset);
  ASSERT_EQ(scalar->state.final_state, vectorized->state.final_state);
}

// Unquoted data under the quoting RFC 4180 DFA never converges: the lane
// that entered the chunk inside a quoted field stays in ENC on plain data
// forever, and ENC is not the trap state. Once a chunk leaves at least a
// block after its first, the kernel speculates: it walks the two live
// states (FLD's family and ENC) on their own, and the start lane's guess,
// outside quotes, is right. Every such chunk counts as speculated, none
// mis-speculates, and the bitmaps match scalar exactly. At the paper's
// 31-byte chunks no chunk leaves a block, so every chunk keeps the
// non-speculative path.
TEST(SimdSpeculationTest, UnquotedDataNeverConverges) {
  std::string input;
  for (int r = 0; r < 200; ++r) {
    input += "alpha,beta,gamma,delta\n";
  }
  for (KernelLevel level : AvailableVectorLevels()) {
    for (size_t chunk_size : {size_t{31}, size_t{256}, size_t{4096}}) {
      const std::string context = std::string(simd::KernelLevelName(level)) +
                                  " chunk=" + std::to_string(chunk_size);
      const bool speculates = chunk_size > 31;
      obs::MetricsRegistry metrics;
      ParseOptions options = Rfc4180Options(chunk_size);
      options.metrics = &metrics;
      {
        ScopedKernelLevel force(level);
        auto harness = StepHarness::Make(input, options);
        ASSERT_NE(harness, nullptr);
        ASSERT_TRUE(harness->RunThroughBitmaps().ok());
        const int64_t chunks = harness->state.num_chunks;
        for (int64_t c = 0; c < chunks; ++c) {
          EXPECT_EQ(harness->state.spec_offsets[c] >= 0, speculates)
              << context << " chunk " << c;
        }
        EXPECT_EQ(metrics.GetCounter("simd.chunks_speculated")->Value(),
                  speculates ? chunks : 0)
            << context;
        EXPECT_EQ(metrics.GetCounter("simd.chunks_unconverged")->Value(),
                  speculates ? 0 : chunks)
            << context;
        EXPECT_EQ(metrics.GetCounter("simd.chunks_converged")->Value(), 0)
            << context;
        EXPECT_EQ(metrics.GetCounter("simd.mis_speculations")->Value(), 0)
            << context;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectBitmapsMatchScalar(input, options, level))
          << context;
    }
  }
}

/// An input whose every chunk after the first starts inside a quoted field
/// and closes it with its first byte: the start lane takes that quote for
/// an opening one and guesses ENC for the unquoted fields that follow,
/// while the true path is outside quotes. Each chunk then reopens a quote;
/// with `keep_guess_alive` the quote is followed by doubled quotes only, so
/// the wrong walk never traps and every guess survives to the bitmap step;
/// without, quoted text follows and the wrong walk traps in the chunk's
/// last block.
std::string QuoteAfterEveryChunkStart(size_t chunk_size, int chunks,
                                      bool keep_guess_alive) {
  // Chunk 0 ends inside a quoted field: "xx,\"" and doubled quotes.
  std::string input = "xx,\"";
  while (input.size() < chunk_size) input += "\"\"";
  EXPECT_EQ(input.size(), chunk_size);
  for (int c = 1; c < chunks; ++c) {
    std::string chunk = "\",";
    const size_t tail = keep_guess_alive ? 2 + 2 * 20 : 2 + 40;
    for (int f = 0; chunk.size() < chunk_size - tail; ++f) {
      chunk += f % 4 == 3 ? '\n' : f % 2 == 0 ? ',' : 'a';
      chunk += "bcd";
    }
    chunk.resize(chunk_size - tail, 'x');
    chunk += ",\"";
    while (chunk.size() < chunk_size) {
      chunk += keep_guess_alive ? "\"\"" : "tt";
    }
    EXPECT_EQ(chunk.size(), chunk_size);
    input += chunk;
  }
  return input;
}

// Adversarial input for the start lane's guess: a quote right after every
// chunk start. Where the wrong walk stays live, every chunk after the
// first is speculated wrongly, is caught by the token check and costs
// exactly one re-walk; where it traps, the surviving walk writes the masks
// from the start of that block on, the token is right and nothing is
// re-walked. Both stay bit-identical to scalar.
TEST(SimdSpeculationTest, QuoteAfterEveryChunkStartCostsOneReWalk) {
  constexpr size_t kChunk = 256;
  constexpr int kChunks = 40;
  for (bool keep_guess_alive : {true, false}) {
    const std::string input =
        QuoteAfterEveryChunkStart(kChunk, kChunks, keep_guess_alive);
    for (KernelLevel level : AvailableVectorLevels()) {
      const std::string context =
          std::string(simd::KernelLevelName(level)) +
          (keep_guess_alive ? " guess alive" : " guess traps");
      obs::MetricsRegistry metrics;
      ParseOptions options = Rfc4180Options(kChunk);
      options.metrics = &metrics;
      {
        ScopedKernelLevel force(level);
        auto harness = StepHarness::Make(input, options);
        ASSERT_NE(harness, nullptr);
        ASSERT_TRUE(harness->RunThroughBitmaps().ok());
        ASSERT_EQ(harness->state.num_chunks, kChunks);
        for (int64_t c = 1; c < kChunks; ++c) {
          ASSERT_EQ(harness->state.entry_states[c], rfc4180::kEnc)
              << context << " chunk " << c;
          ASSERT_GE(harness->state.spec_offsets[c], 0)
              << context << " chunk " << c;
          if (!keep_guess_alive) {
            // The writer moved past the chunk's first block.
            EXPECT_GE(harness->state.spec_offsets[c],
                      static_cast<int64_t>(kChunk * c + 128))
                << context << " chunk " << c;
          }
        }
        EXPECT_EQ(metrics.GetCounter("simd.chunks_speculated")->Value(),
                  kChunks)
            << context;
        EXPECT_EQ(metrics.GetCounter("simd.mis_speculations")->Value(),
                  keep_guess_alive ? kChunks - 1 : 0)
            << context;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectBitmapsMatchScalar(input, options, level))
          << context;
    }
  }
}

// Under a DSV format with lenient quotes, a quote in an unquoted field is
// data, so the out-of-quote walk does not trap where the in-quote one
// closes its field: the two merge at the next delimiter. Every chunk after
// the first starts inside quoted text, where the start lane guesses wrong;
// once its walk merges with the right one, the written region restarts
// after that block from the merged state, so no chunk is re-walked and
// each counts as converged there.
TEST(SimdSpeculationTest, MergedGuessRestartsAfterTheMerge) {
  DsvOptions dsv;
  dsv.strict_quotes = false;
  auto format = DsvFormat(dsv);
  ASSERT_TRUE(format.ok());
  constexpr size_t kChunk = 256;
  constexpr int kChunks = 24;
  // Chunk 0 opens a quoted field; every later chunk closes it 150 bytes
  // in (past its first block), holds two fields and reopens one.
  std::string input = "a,\"";
  for (int c = 0; c < kChunks; ++c) {
    const size_t start = kChunk * c;
    while (input.size() < start + kChunk) input += "quoted text ";
    input.resize(start + kChunk);
    if (c > 0) input.replace(start + 150, 9, "\",\"x\",y,\"");
  }
  for (KernelLevel level : AvailableVectorLevels()) {
    obs::MetricsRegistry metrics;
    ParseOptions options;
    options.format = *format;
    options.chunk_size = kChunk;
    options.metrics = &metrics;
    {
      ScopedKernelLevel force(level);
      auto harness = StepHarness::Make(input, options);
      ASSERT_NE(harness, nullptr);
      ASSERT_TRUE(harness->RunThroughBitmaps().ok());
      ASSERT_EQ(harness->state.num_chunks, kChunks);
      for (int64_t c = 1; c < kChunks; ++c) {
        ASSERT_EQ(format->dfa.state_name(harness->state.entry_states[c]),
                  "ENC")
            << simd::KernelLevelName(level) << " chunk " << c;
        EXPECT_GE(harness->state.spec_offsets[c],
                  static_cast<int64_t>(kChunk * c + 150))
            << simd::KernelLevelName(level) << " chunk " << c;
      }
      EXPECT_EQ(metrics.GetCounter("simd.chunks_converged")->Value(), kChunks)
          << simd::KernelLevelName(level);
      EXPECT_EQ(metrics.GetCounter("simd.mis_speculations")->Value(), 0)
          << simd::KernelLevelName(level);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectBitmapsMatchScalar(input, options, level));
  }
}

// An unterminated quote spanning many chunks: the opening chunk converges
// (the stray-quote parity dies in the trap state), every following chunk
// is plain data inside the quote and must not converge, and the parse
// still matches scalar — including the trailing-record state.
TEST(SimdSpeculationTest, UnterminatedQuoteSpanningChunks) {
  std::string input = "\"";
  input.append(1000, 'a');  // never closed
  for (KernelLevel level : AvailableVectorLevels()) {
    obs::MetricsRegistry metrics;
    ParseOptions options = Rfc4180Options(31);
    options.metrics = &metrics;
    {
      ScopedKernelLevel force(level);
      auto harness = StepHarness::Make(input, options);
      ASSERT_NE(harness, nullptr);
      ASSERT_TRUE(harness->RunContext().ok());
      ASSERT_GE(harness->state.num_chunks, 4);
      EXPECT_GE(harness->state.spec_offsets[0], 0)
          << "opening chunk should converge once the quote kills the "
             "out-of-quote lanes";
      EXPECT_EQ(harness->state.spec_states[0],
                static_cast<uint8_t>(rfc4180::kEnc));
      for (int64_t c = 1; c < harness->state.num_chunks; ++c) {
        EXPECT_EQ(harness->state.spec_offsets[c], -1) << "chunk " << c;
      }
      EXPECT_EQ(metrics.GetCounter("simd.chunks_converged")->Value(), 1);
      EXPECT_EQ(metrics.GetCounter("simd.chunks_speculated")->Value(), 0);
      EXPECT_EQ(metrics.GetCounter("simd.chunks_unconverged")->Value(),
                harness->state.num_chunks - 1);
      EXPECT_GT(
          metrics.GetHistogram("simd.fastpath_bytes")->Snapshot().count, 0);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectBitmapsMatchScalar(input, options, level));
  }
}

// Genuine mis-speculation: the input goes invalid in an early chunk, so the
// true entry state of later chunks is the trap state, while their kernels
// speculated from the converged live state. The bitmap step's token check
// must catch every such chunk, re-walk it exactly, and count the events.
TEST(SimdSpeculationTest, TrappedEntryStateIsDetected) {
  // Byte 1's quote is invalid after field data; everything after is parsed
  // from the trap state. Quoted records make the later chunks converge.
  std::string input = "x\"";
  for (int r = 0; r < 40; ++r) {
    input += "\"quoted field\",\"another\"\n";
  }
  for (KernelLevel level : AvailableVectorLevels()) {
    obs::MetricsRegistry metrics;
    ParseOptions options = Rfc4180Options(31);
    options.metrics = &metrics;
    int64_t converged = 0;
    {
      ScopedKernelLevel force(level);
      auto harness = StepHarness::Make(input, options);
      ASSERT_NE(harness, nullptr);
      ASSERT_TRUE(harness->RunThroughBitmaps().ok());
      converged = metrics.GetCounter("simd.chunks_converged")->Value();
      ASSERT_GT(converged, 0) << simd::KernelLevelName(level);
      // Converged chunks after the invalid byte speculated from a live
      // state while the true path sits in the trap: exactly those whose
      // true entry is the trap but whose token is a live state must have
      // been detected and re-walked.
      int64_t expected_mis = 0;
      for (int64_t c = 0; c < harness->state.num_chunks; ++c) {
        if (harness->state.spec_offsets[c] >= 0 &&
            harness->state.entry_states[c] == rfc4180::kInv &&
            harness->state.spec_states[c] != rfc4180::kInv) {
          ++expected_mis;
        }
      }
      ASSERT_GT(expected_mis, 0) << simd::KernelLevelName(level);
      EXPECT_EQ(metrics.GetCounter("simd.mis_speculations")->Value(),
                expected_mis)
          << simd::KernelLevelName(level);
      EXPECT_EQ(harness->state.first_invalid_offset, 1);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectBitmapsMatchScalar(input, options, level));
  }
}

// Forced mis-speculation: corrupt every verification token after the
// context pass and let the bitmap step run. Every converged chunk must be
// detected, re-walked, and produce bit-identical results anyway.
TEST(SimdSpeculationTest, CorruptedTokensAlwaysDetected) {
  std::string input;
  for (int r = 0; r < 60; ++r) {
    input += "\"field one\",\"field two\",\"field three\"\n";
  }
  for (KernelLevel level : AvailableVectorLevels()) {
    // Scalar reference bitmaps.
    simd::SetForcedKernelLevel(KernelLevel::kScalar);
    ParseOptions scalar_options = Rfc4180Options(64);
    auto scalar = StepHarness::Make(input, scalar_options);
    ASSERT_NE(scalar, nullptr);
    ASSERT_TRUE(scalar->RunThroughBitmaps().ok());
    simd::SetForcedKernelLevel(std::nullopt);

    obs::MetricsRegistry metrics;
    ParseOptions options = Rfc4180Options(64);
    options.metrics = &metrics;
    ScopedKernelLevel force(level);
    auto harness = StepHarness::Make(input, options);
    ASSERT_NE(harness, nullptr);
    ASSERT_TRUE(harness->RunContext().ok());
    const int64_t corrupted = CorruptSpeculationTokens(&harness->state);
    ASSERT_GT(corrupted, 0) << simd::KernelLevelName(level);
    ASSERT_TRUE(BitmapStep::Run(&harness->state, &harness->timings).ok());
    EXPECT_EQ(metrics.GetCounter("simd.mis_speculations")->Value(), corrupted);

    // Despite every token being wrong, the fallback re-walk restores the
    // exact scalar results.
    EXPECT_EQ(scalar->state.symbol_index, harness->state.symbol_index);
    EXPECT_EQ(scalar->state.record_counts, harness->state.record_counts);
    EXPECT_EQ(scalar->state.first_invalid_offset,
              harness->state.first_invalid_offset);
  }
}

// --- Monoid laws for the fused operator -------------------------------
//
// The fused kernel's per-chunk summary, evaluated for every possible entry
// state, is (end state, record count, column-offset contribution). Under
// segment concatenation these compose as
//   (a . b)(e) = (b.end[a.end(e)],
//                 a.records(e) + b.records(a.end(e)),
//                 a.col(e) (+) b.col(a.end(e)))
// with (+) the paper's column-offset operator. The scan's correctness rests
// on this being a monoid action; check associativity, identity, and that
// summarising a concatenation equals composing the summaries.

struct SegmentSummary {
  uint8_t end_state[kMaxDfaStates] = {};
  uint32_t records[kMaxDfaStates] = {};
  ColumnOffset col[kMaxDfaStates] = {};
};

SegmentSummary Summarise(const simd::KernelPlan& plan,
                         const std::string& segment, int num_states) {
  SegmentSummary s;
  std::vector<simd::SymbolMasks> scratch(simd::MaskWordsFor(segment.size()));
  for (int e = 0; e < num_states; ++e) {
    const simd::FlagWalkResult walk = simd::WalkEmitFlags(
        plan, reinterpret_cast<const uint8_t*>(segment.data()), 0,
        segment.size(), static_cast<uint8_t>(e), scratch.data());
    s.end_state[e] = walk.end_state;
    s.records[e] = walk.records;
    s.col[e] =
        ColumnOffset{walk.fields_since_record, walk.saw_record_delimiter};
  }
  return s;
}

SegmentSummary IdentitySummary(int num_states) {
  SegmentSummary s;
  for (int e = 0; e < num_states; ++e) {
    s.end_state[e] = static_cast<uint8_t>(e);
  }
  return s;
}

SegmentSummary Combine(const SegmentSummary& a, const SegmentSummary& b,
                       int num_states) {
  SegmentSummary r;
  for (int e = 0; e < num_states; ++e) {
    const uint8_t mid = a.end_state[e];
    r.end_state[e] = b.end_state[mid];
    r.records[e] = a.records[e] + b.records[mid];
    r.col[e] = CombineColumnOffsets(a.col[e], b.col[mid]);
  }
  return r;
}

void ExpectSummariesEqual(const SegmentSummary& x, const SegmentSummary& y,
                          int num_states, const std::string& context) {
  for (int e = 0; e < num_states; ++e) {
    ASSERT_EQ(x.end_state[e], y.end_state[e]) << context << " entry " << e;
    ASSERT_EQ(x.records[e], y.records[e]) << context << " entry " << e;
    ASSERT_EQ(x.col[e].value, y.col[e].value) << context << " entry " << e;
    ASSERT_EQ(x.col[e].absolute, y.col[e].absolute)
        << context << " entry " << e;
  }
}

TEST(SimdSpeculationTest, FusedOperatorMonoidLaws) {
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());
  const simd::KernelPlan plan = simd::BuildKernelPlan(format->dfa);
  const int n = format->dfa.num_states();

  RandomCsvOptions gen;
  gen.quote_probability = 0.5;
  gen.embedded_delimiter_probability = 0.5;
  gen.trailing_newline = false;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    gen.num_records = 2 + static_cast<int>(seed % 6);
    const std::string input = GenerateRandomCsv(seed, gen);
    if (input.size() < 3) continue;
    const size_t cut1 = input.size() / 3;
    const size_t cut2 = 2 * input.size() / 3;
    const std::string sa = input.substr(0, cut1);
    const std::string sb = input.substr(cut1, cut2 - cut1);
    const std::string sc = input.substr(cut2);
    const SegmentSummary a = Summarise(plan, sa, n);
    const SegmentSummary b = Summarise(plan, sb, n);
    const SegmentSummary c = Summarise(plan, sc, n);
    const std::string context = "seed " + std::to_string(seed);

    // Associativity: (a.b).c == a.(b.c).
    ASSERT_NO_FATAL_FAILURE(ExpectSummariesEqual(
        Combine(Combine(a, b, n), c, n), Combine(a, Combine(b, c, n), n), n,
        context + " assoc"));
    // Identity on both sides.
    const SegmentSummary id = IdentitySummary(n);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSummariesEqual(Combine(id, a, n), a, n, context + " left id"));
    ASSERT_NO_FATAL_FAILURE(
        ExpectSummariesEqual(Combine(a, id, n), a, n, context + " right id"));
    // Homomorphism: summarising the concatenation equals composing the
    // segment summaries — the property that lets the bitmap step trust a
    // per-chunk decomposition at any chunk size.
    ASSERT_NO_FATAL_FAILURE(
        ExpectSummariesEqual(Summarise(plan, input, n),
                             Combine(Combine(a, b, n), c, n), n,
                             context + " homomorphism"));
  }
}

// End-to-end sanity on the speculative path: a fully-quoted workload (the
// yelp-like shape, which converges in nearly every chunk) parses to the
// same table at every level.
TEST(SimdSpeculationTest, QuotedWorkloadParsesIdenticallyAtEveryLevel) {
  const std::string input = GenerateYelpLike(7, 64 * 1024);
  ParseOptions options = Rfc4180Options(256);
  simd::SetForcedKernelLevel(KernelLevel::kScalar);
  Result<ParseOutput> reference = Parser::Parse(input, options);
  simd::SetForcedKernelLevel(std::nullopt);
  ASSERT_TRUE(reference.ok());
  for (KernelLevel level : AvailableVectorLevels()) {
    ScopedKernelLevel force(level);
    Result<ParseOutput> got = Parser::Parse(input, options);
    ASSERT_TRUE(got.ok()) << simd::KernelLevelName(level);
    EXPECT_TRUE(reference->table.Equals(got->table))
        << simd::KernelLevelName(level);
  }
}

}  // namespace
}  // namespace parparaw
