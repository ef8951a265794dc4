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

// Properties of the convergence speculation in the fused context+bitmap
// kernels (src/simd):
//
//  - Chunks whose state lanes never converge (the in-quote / out-of-quote
//    ambiguity of unquoted data under a quoting DFA, unterminated quotes
//    spanning chunks) take the non-speculative path and still match the
//    scalar pipeline bit for bit.
//  - The bitmap step's verification token always detects a speculation
//    whose assumed entry arrival state is wrong, falls back to the exact
//    re-walk, and reports the event through simd.mis_speculations.
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
// forever, and ENC is not the trap state. Every chunk must report
// spec_offset == -1, count as unconverged, and the non-speculative path
// must still match scalar exactly.
TEST(SimdSpeculationTest, UnquotedDataNeverConverges) {
  std::string input;
  for (int r = 0; r < 200; ++r) {
    input += "alpha,beta,gamma,delta\n";
  }
  for (KernelLevel level : AvailableVectorLevels()) {
    obs::MetricsRegistry metrics;
    ParseOptions options = Rfc4180Options(31);
    options.metrics = &metrics;
    {
      ScopedKernelLevel force(level);
      auto harness = StepHarness::Make(input, options);
      ASSERT_NE(harness, nullptr);
      ASSERT_TRUE(harness->RunContext().ok());
      for (int64_t c = 0; c < harness->state.num_chunks; ++c) {
        EXPECT_EQ(harness->state.spec_offsets[c], -1)
            << "chunk " << c << " level " << simd::KernelLevelName(level);
      }
      EXPECT_EQ(metrics.GetCounter("simd.chunks_unconverged")->Value(),
                harness->state.num_chunks);
      EXPECT_EQ(metrics.GetCounter("simd.chunks_converged")->Value(), 0);
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
    int64_t corrupted = 0;
    for (int64_t c = 0; c < harness->state.num_chunks; ++c) {
      if (harness->state.spec_offsets[c] < 0) continue;
      // A state the true walk cannot arrive in at the convergence point.
      harness->state.spec_states[c] =
          harness->state.spec_states[c] == rfc4180::kEsc ? rfc4180::kEof
                                                         : rfc4180::kEsc;
      ++corrupted;
    }
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
