#include "plan/planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/parser.h"
#include "dfa/formats.h"
#include "dialect/dialect.h"
#include "obs/metrics.h"
#include "plan/tuning.h"
#include "robust/failpoint.h"
#include "simd/dispatch.h"
#include "workload/generators.h"

// The adaptive runtime planner (src/plan): deterministic sampling-based
// knob resolution, the Tuning contradiction taxonomy, the centralized
// environment-variable grammar, and the failpoint-driven fallback to the
// static defaults. The planner's bit-identity with the static
// configurations it replaces is covered by the planner axes of
// simd_differential_test and transpose_differential_test; this file covers
// the decision layer itself.

namespace parparaw {
namespace {

using plan::ParsePlan;
using simd::KernelLevel;

class ScopedKernelLevel {
 public:
  explicit ScopedKernelLevel(KernelLevel level) {
    simd::SetForcedKernelLevel(level);
  }
  ~ScopedKernelLevel() { simd::SetForcedKernelLevel(std::nullopt); }
};

/// Arms a failpoint for the current scope; always disarms on destruction so
/// a failing ASSERT cannot leak an armed site into later tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(const std::string& name, robust::FailpointTrigger trigger)
      : name_(name) {
    robust::FailpointRegistry::Instance().Arm(name_, std::move(trigger));
  }
  ~ScopedFailpoint() { robust::FailpointRegistry::Instance().Disarm(name_); }

 private:
  std::string name_;
};

Format PipeFormatNoQuotes() {
  DsvOptions dsv;
  dsv.field_delimiter = '|';
  dsv.quote = 0;
  auto format = DsvFormat(dsv);
  EXPECT_TRUE(format.ok()) << format.status().ToString();
  return *std::move(format);
}

void ExpectPlansEqual(const ParsePlan& a, const ParsePlan& b) {
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.kernel_level, b.kernel_level);
  EXPECT_EQ(a.chunk_size, b.chunk_size);
  EXPECT_EQ(a.tagging_mode, b.tagging_mode);
  EXPECT_EQ(a.transpose_mode, b.transpose_mode);
  EXPECT_EQ(a.partition_size, b.partition_size);
  EXPECT_EQ(a.planned, b.planned);
  EXPECT_EQ(a.fallback, b.fallback);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.stats.sample_bytes, b.stats.sample_bytes);
  EXPECT_EQ(a.stats.probe_chunks, b.stats.probe_chunks);
  EXPECT_EQ(a.stats.converged_chunks, b.stats.converged_chunks);
  EXPECT_EQ(a.stats.convergence_fraction, b.stats.convergence_fraction);
  EXPECT_EQ(a.stats.special_density, b.stats.special_density);
  EXPECT_EQ(a.stats.records, b.stats.records);
  EXPECT_EQ(a.stats.fields, b.stats.fields);
  EXPECT_EQ(a.stats.min_columns, b.stats.min_columns);
  EXPECT_EQ(a.stats.max_columns, b.stats.max_columns);
  EXPECT_EQ(a.stats.uniform_columns, b.stats.uniform_columns);
}

// --- determinism -----------------------------------------------------------

TEST(PlannerTest, SameBytesSamePlan) {
  for (uint64_t seed : {uint64_t{7}, uint64_t{41}}) {
    const std::string input = GenerateYelpLike(seed, 128 * 1024);
    ParseOptions options;
    auto first = plan::PlanParse(input, /*sample_truncated=*/false, options);
    auto second = plan::PlanParse(input, /*sample_truncated=*/false, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ExpectPlansEqual(*first, *second);
    EXPECT_TRUE(first->planned);
    EXPECT_FALSE(first->fallback);
  }
}

TEST(PlannerTest, SamplingClipsToBudgetDeterministically) {
  const std::string input = GenerateTaxiLike(3, 64 * 1024);
  ParseOptions options;
  options.sample_budget = 8 * 1024;
  auto clipped = plan::PlanParse(input, false, options);
  auto prefix =
      plan::PlanParse(std::string_view(input).substr(0, 8 * 1024), true,
                      options);
  ASSERT_TRUE(clipped.ok());
  ASSERT_TRUE(prefix.ok());
  // Planning the full input under an 8 KB budget is planning its 8 KB
  // prefix: the clipped bytes must never influence a decision.
  ExpectPlansEqual(*clipped, *prefix);
  EXPECT_EQ(clipped->stats.sample_bytes, 8 * 1024);
  EXPECT_TRUE(clipped->stats.truncated);
}

// --- decision quality ------------------------------------------------------

TEST(PlannerTest, ConvergentCorpusGetsLargeChunks) {
  // A quote-free DSV automaton collapses every speculative lane at the
  // first delimiter, so lineitem-like data is the paper's best case for
  // speculation: expect near-total convergence and the 4096-byte chunk.
  // Pinned to the best vector level: a forced scalar kernel has no
  // speculation to price and would take the scalar chunk step instead.
  ScopedKernelLevel force(simd::DetectBestKernelLevel());
  const std::string input = GenerateLineitemLike(11, 128 * 1024);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  auto planned = plan::PlanParse(input, false, options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GE(planned->stats.convergence_fraction, 0.9);
  EXPECT_EQ(planned->chunk_size, 4096u);
  EXPECT_EQ(planned->kernel, simd::KernelKind::kSimd);
  EXPECT_GT(planned->stats.records, 0);
}

TEST(PlannerTest, NonConvergentCorpusStepsChunksDown) {
  // Taxi-like data under RFC 4180 contains no quote bytes, so a lane
  // started inside a hypothetical quoted field never exits it and the
  // state vector never fully converges — each chunk's prefix gets
  // re-simulated, so the planner stays one step below the free-speculation
  // chunk while still amortising the per-chunk scan overhead. Pinned to
  // the best vector level for the same reason as the convergent case.
  ScopedKernelLevel force(simd::DetectBestKernelLevel());
  const std::string input = GenerateTaxiLike(5, 128 * 1024);
  ParseOptions options;
  auto planned = plan::PlanParse(input, false, options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_LT(planned->stats.convergence_fraction, 0.5);
  EXPECT_EQ(planned->chunk_size, 2048u);
  EXPECT_GT(planned->stats.records, 0);
}

TEST(PlannerTest, ScalarPipelineIgnoresConvergence) {
  // With the kernel resolved to the scalar reference there is no
  // speculation to price; the chunk choice must ignore the (here perfect)
  // convergence signal and pick the scalar amortisation step.
  ScopedKernelLevel force(KernelLevel::kScalar);
  const std::string input = GenerateLineitemLike(11, 64 * 1024);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  auto planned = plan::PlanParse(input, false, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->kernel_level, KernelLevel::kScalar);
  EXPECT_EQ(planned->chunk_size, 1024u);
}

TEST(PlannerTest, ShortSampleKeepsPaperChunk) {
  // Fewer bytes than one probe chunk: no convergence evidence, so the
  // planner must not extrapolate.
  ParseOptions options;
  auto planned = plan::PlanParse("a,b\nc,d\n", false, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->stats.probe_chunks, 0);
  EXPECT_EQ(planned->chunk_size, 31u);
}

TEST(PlannerTest, OverBudgetDfaPlansTheSequentialWalk) {
  // A DFA over the register budget: the planner takes the context step's
  // predicate, plans the scalar level even with a vector level forced,
  // runs no convergence probe, and still measures the record structure.
  ScopedKernelLevel force(KernelLevel::kAvx2);
  dialect::DialectSpec spec;
  spec.name = "fixed-wide";
  spec.fixed_widths = {10, 10};
  spec.quote = 0;
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_FALSE(compiled->format.dfa.fits_register_budget());
  std::string input;
  for (int i = 0; i < 200; ++i) input += "0123456789abcdefghij\n";
  ParseOptions options;
  options.format = compiled->format;
  auto planned = plan::PlanParse(input, false, options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->kernel, simd::KernelKind::kScalar);
  EXPECT_EQ(planned->kernel_level, KernelLevel::kScalar);
  EXPECT_EQ(planned->chunk_size, 1024u);
  EXPECT_EQ(planned->stats.probe_chunks, 0);
  EXPECT_EQ(planned->stats.records, 200);
  EXPECT_EQ(planned->stats.max_columns, 2u);
  EXPECT_TRUE(planned->stats.uniform_columns);
  EXPECT_EQ(plan::StaticPlan(options).kernel_level, KernelLevel::kScalar);
}

TEST(PlannerTest, PinnedKnobsAreRespected) {
  const std::string input = GenerateLineitemLike(2, 64 * 1024);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  options.chunk_size = 77;
  options.tagging_mode = TaggingMode::kRecordTags;
  auto planned = plan::PlanParse(input, false, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->chunk_size, 77u);
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kRecordTags);
}

// --- tagging upgrade -------------------------------------------------------

std::string UniformCsv(int records) {
  std::string csv;
  for (int i = 0; i < records; ++i) {
    csv += "a" + std::to_string(i) + ",b,c\n";
  }
  return csv;
}

TEST(PlannerTest, UniformColumnsUnderRejectUpgradeTagging) {
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  auto planned = plan::PlanParse(UniformCsv(32), false, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(planned->stats.uniform_columns);
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kVectorDelimited);
}

TEST(PlannerTest, RobustPolicyNeverUpgradesTagging) {
  // kRobust keeps ragged records, so the cheaper uniform-count encoding is
  // unsafe no matter what the sample shows.
  ParseOptions options;
  auto planned = plan::PlanParse(UniformCsv(32), false, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(planned->stats.uniform_columns);
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kRecordTags);
}

TEST(PlannerTest, RaggedSampleNeverUpgradesTagging) {
  std::string csv = UniformCsv(32);
  csv += "only,two\n";
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  auto planned = plan::PlanParse(csv, false, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_FALSE(planned->stats.uniform_columns);
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kRecordTags);
}

TEST(PlannerTest, TooFewRecordsNeverUpgradeTagging) {
  // min == max over 3 records proves nothing; uniformity needs at least 8.
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  auto planned = plan::PlanParse(UniformCsv(3), false, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_FALSE(planned->stats.uniform_columns);
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kRecordTags);
}

// --- static resolution and plan application --------------------------------

TEST(PlannerTest, StaticPlanResolvesEveryAutoSentinel) {
  ParseOptions options;
  ParsePlan plan = plan::StaticPlan(options);
  EXPECT_EQ(plan.kernel, simd::KernelKind::kSimd);
  EXPECT_EQ(plan.chunk_size, 31u);
  EXPECT_EQ(plan.tagging_mode, TaggingMode::kRecordTags);
  EXPECT_NE(plan.transpose_mode, TransposeMode::kAuto);
  EXPECT_FALSE(plan.planned);
  EXPECT_FALSE(plan.fallback);
}

TEST(PlannerTest, StaticPlanPassesPinsThrough) {
  // A forced kernel level outranks the option; pin the one it asserts.
  ScopedKernelLevel force(KernelLevel::kScalar);
  ParseOptions options;
  options.kernel = simd::KernelKind::kScalar;
  options.chunk_size = 77;
  options.tagging_mode = TaggingMode::kVectorDelimited;
  options.transpose_mode = TransposeMode::kSymbolSort;
  options.partition_size = 1 << 20;
  ParsePlan plan = plan::StaticPlan(options);
  EXPECT_EQ(plan.kernel, simd::KernelKind::kScalar);
  EXPECT_EQ(plan.kernel_level, KernelLevel::kScalar);
  EXPECT_EQ(plan.chunk_size, 77u);
  EXPECT_EQ(plan.tagging_mode, TaggingMode::kVectorDelimited);
  EXPECT_EQ(plan.transpose_mode, TransposeMode::kSymbolSort);
  EXPECT_EQ(plan.partition_size, size_t{1} << 20);
}

TEST(PlannerTest, ApplyPlanPinsEveryKnobAndDisablesReplanning) {
  ParsePlan plan;
  plan.kernel = simd::KernelKind::kScalar;
  plan.chunk_size = 1024;
  plan.tagging_mode = TaggingMode::kVectorDelimited;
  plan.transpose_mode = TransposeMode::kSymbolSort;
  plan.partition_size = 4096;
  ParseOptions options;
  plan::ApplyPlan(plan, &options);
  EXPECT_EQ(options.kernel, simd::KernelKind::kScalar);
  EXPECT_EQ(options.chunk_size, 1024u);
  EXPECT_EQ(options.tagging_mode, TaggingMode::kVectorDelimited);
  EXPECT_EQ(options.transpose_mode, TransposeMode::kSymbolSort);
  EXPECT_EQ(options.partition_size, 4096u);
  EXPECT_EQ(options.planner, PlannerMode::kDisabled);
}

TEST(PlannerTest, PlanStreamDisabledLeavesOptionsUntouched) {
  ParseOptions options;
  options.planner = PlannerMode::kDisabled;
  auto planned = plan::PlanStream("a,b\n", false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_FALSE(planned->planned);
  EXPECT_EQ(options.chunk_size, 0u);
  EXPECT_EQ(options.kernel, simd::KernelKind::kAuto);
  EXPECT_EQ(options.planner, PlannerMode::kDisabled);
}

TEST(PlannerTest, PlanStreamSkipsSamplingWhenEverythingIsPinned) {
  ParseOptions options;
  options.kernel = simd::KernelKind::kScalar;
  options.chunk_size = 31;
  options.tagging_mode = TaggingMode::kRecordTags;
  options.transpose_mode = TransposeMode::kFieldGather;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  auto planned = plan::PlanStream(UniformCsv(16), false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_FALSE(planned->planned);
  EXPECT_EQ(metrics.GetCounter("plan.runs")->Value(), 0);
}

TEST(PlannerTest, PlanStreamAppliesThePlanAndCountsTheRun) {
  const std::string input = GenerateLineitemLike(9, 64 * 1024);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  auto planned = plan::PlanStream(input, false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(planned->planned);
  EXPECT_EQ(options.chunk_size, planned->chunk_size);
  EXPECT_EQ(options.tagging_mode, planned->tagging_mode);
  EXPECT_EQ(options.planner, PlannerMode::kDisabled);
  EXPECT_EQ(metrics.GetCounter("plan.runs")->Value(), 1);
  EXPECT_EQ(metrics.GetCounter("plan.fallback")->Value(), 0);
  EXPECT_GT(metrics.GetCounter("plan.sampled_bytes")->Value(), 0);
}

// --- the Tuning contradiction taxonomy -------------------------------------

TEST(PlannerTest, DefaultOptionsValidate) {
  EXPECT_TRUE(ParseOptions().Validate().ok());
  ParseOptions forced;
  forced.planner = PlannerMode::kForce;
  EXPECT_TRUE(forced.Validate().ok());
}

TEST(PlannerTest, ForcedPlannerRejectsEveryPin) {
  const auto expect_invalid = [](const ParseOptions& options,
                                 const char* what) {
    Status status = options.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
  };
  ParseOptions kernel_pin;
  kernel_pin.planner = PlannerMode::kForce;
  kernel_pin.kernel = simd::KernelKind::kScalar;
  expect_invalid(kernel_pin, "kernel");

  ParseOptions chunk_pin;
  chunk_pin.planner = PlannerMode::kForce;
  chunk_pin.chunk_size = 31;
  expect_invalid(chunk_pin, "chunk_size");

  ParseOptions tagging_pin;
  tagging_pin.planner = PlannerMode::kForce;
  tagging_pin.tagging_mode = TaggingMode::kRecordTags;
  expect_invalid(tagging_pin, "tagging_mode");

  ParseOptions transpose_pin;
  transpose_pin.planner = PlannerMode::kForce;
  transpose_pin.transpose_mode = TransposeMode::kFieldGather;
  expect_invalid(transpose_pin, "transpose_mode");

  ParseOptions partition_pin;
  partition_pin.planner = PlannerMode::kForce;
  partition_pin.partition_size = 1 << 20;
  expect_invalid(partition_pin, "partition_size");
}

TEST(PlannerTest, AutoPlannerAcceptsPins) {
  // kAuto respects pins (they just shrink what the sampler decides), so
  // the same combinations validate.
  ParseOptions options;
  options.kernel = simd::KernelKind::kScalar;
  options.chunk_size = 31;
  options.tagging_mode = TaggingMode::kRecordTags;
  options.transpose_mode = TransposeMode::kFieldGather;
  options.partition_size = 1 << 20;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(PlannerTest, SampleBudgetBounds) {
  ParseOptions zero;
  zero.sample_budget = 0;
  EXPECT_EQ(zero.Validate().code(), StatusCode::kInvalidArgument);
  zero.planner = PlannerMode::kDisabled;
  EXPECT_TRUE(zero.Validate().ok());

  ParseOptions huge;
  huge.sample_budget = size_t{32} << 20;
  EXPECT_EQ(huge.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerTest, ChunkSizeUpperBound) {
  ParseOptions options;
  options.planner = PlannerMode::kDisabled;
  options.chunk_size = (size_t{1} << 24) + 1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.chunk_size = size_t{1} << 24;
  EXPECT_TRUE(options.Validate().ok());
}

// --- environment grammar ---------------------------------------------------

TEST(PlannerTest, KernelEnvVocabulary) {
  using plan::internal::ParseKernelEnvValue;
  EXPECT_EQ(ParseKernelEnvValue("scalar"), KernelLevel::kScalar);
  EXPECT_EQ(ParseKernelEnvValue("swar"), KernelLevel::kSwar);
  EXPECT_EQ(ParseKernelEnvValue("sse42"), KernelLevel::kSse42);
  EXPECT_EQ(ParseKernelEnvValue("avx2"), KernelLevel::kAvx2);
  EXPECT_EQ(ParseKernelEnvValue("neon"), KernelLevel::kNeon);
  EXPECT_EQ(ParseKernelEnvValue("simd"), simd::DetectBestKernelLevel());
  EXPECT_EQ(ParseKernelEnvValue(nullptr), std::nullopt);
  EXPECT_EQ(ParseKernelEnvValue(""), std::nullopt);
  EXPECT_EQ(ParseKernelEnvValue("AVX2"), std::nullopt);
  EXPECT_EQ(ParseKernelEnvValue("warp"), std::nullopt);
}

TEST(PlannerTest, TransposeEnvVocabulary) {
  using plan::internal::ParseTransposeEnvValue;
  EXPECT_EQ(ParseTransposeEnvValue("field_gather"),
            TransposeMode::kFieldGather);
  EXPECT_EQ(ParseTransposeEnvValue("symbol_sort"), TransposeMode::kSymbolSort);
  EXPECT_EQ(ParseTransposeEnvValue(nullptr), std::nullopt);
  EXPECT_EQ(ParseTransposeEnvValue(""), std::nullopt);
  EXPECT_EQ(ParseTransposeEnvValue("auto"), std::nullopt);
}

TEST(PlannerTest, SimdDisabledEnvVocabulary) {
  using plan::internal::ParseSimdDisabledValue;
  EXPECT_FALSE(ParseSimdDisabledValue(nullptr));
  EXPECT_FALSE(ParseSimdDisabledValue(""));
  EXPECT_FALSE(ParseSimdDisabledValue("0"));
  EXPECT_TRUE(ParseSimdDisabledValue("1"));
  EXPECT_TRUE(ParseSimdDisabledValue("yes"));
}

// --- failpoint fallback ----------------------------------------------------

TEST(PlannerTest, SampleFaultFallsBackBitIdentically) {
  const std::string input = GenerateLineitemLike(13, 32 * 1024);
  ParseOptions reference_options;
  reference_options.format = PipeFormatNoQuotes();
  reference_options.planner = PlannerMode::kDisabled;
  auto reference = Parser::Parse(input, reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const char* site : {"plan.sample", "plan.decide"}) {
    obs::MetricsRegistry metrics;
    ParseOptions options;
    options.format = PipeFormatNoQuotes();
    options.metrics = &metrics;
    ScopedFailpoint fault(site, robust::CountTrigger(1));
    auto parsed = Parser::Parse(input, options);
    ASSERT_TRUE(parsed.ok()) << site << ": " << parsed.status().ToString();
    EXPECT_TRUE(parsed->table.Equals(reference->table)) << site;
    EXPECT_EQ(metrics.GetCounter("plan.fallback")->Value(), 1) << site;
  }
}

TEST(PlannerTest, ForcedPlannerPropagatesSampleFault) {
  const std::string input = UniformCsv(64);
  ParseOptions options;
  options.planner = PlannerMode::kForce;
  ScopedFailpoint fault("plan.sample", robust::CountTrigger(1));
  auto parsed = Parser::Parse(input, options);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("planner forced"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(PlannerTest, ForcedPlannerSucceedsWithoutFaults) {
  auto parsed = [] {
    ParseOptions options;
    options.planner = PlannerMode::kForce;
    return Parser::Parse(UniformCsv(64), options);
  }();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->table.num_rows, 64);
}

// --- reporting -------------------------------------------------------------

TEST(PlannerTest, ExplainRendersTheDecision) {
  const std::string input = GenerateLineitemLike(4, 64 * 1024);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  auto planned = plan::PlanParse(input, false, options);
  ASSERT_TRUE(planned.ok());
  const std::string report = planned->Explain();
  EXPECT_NE(report.find("[planned]"), std::string::npos) << report;
  EXPECT_NE(report.find("chunk="), std::string::npos) << report;
  EXPECT_NE(report.find("stats:"), std::string::npos) << report;
  EXPECT_NE(report.find("reason:"), std::string::npos) << report;
  EXPECT_FALSE(planned->stats.ToString().empty());

  const std::string static_report = plan::StaticPlan(options).Explain();
  EXPECT_NE(static_report.find("[static]"), std::string::npos)
      << static_report;
}

}  // namespace
}  // namespace parparaw
