#include "plan/planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/parser.h"
#include "core/staged_parse.h"
#include "dfa/formats.h"
#include "dialect/dialect.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "plan/tuning.h"
#include "simd/dispatch.h"
#include "workload/generators.h"

// The runtime planner (src/plan): knob resolution from the DFA, the pins
// and the stream's length, the Tuning validation, and the centralized
// environment-variable grammar. The planner's bit-identity with pinned
// 31-byte chunks is covered by the planner axes of simd_differential_test
// and transpose_differential_test; this file covers the decision layer
// itself.

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
  EXPECT_EQ(a.reason, b.reason);
}

// --- determinism -----------------------------------------------------------

TEST(PlannerTest, SameBytesSamePlan) {
  // Planning a sample plans its length: the sample overload, the length
  // entry point and PlanParse agree.
  const std::string input = GenerateYelpLike(7, 128 * 1024);
  const int64_t length = static_cast<int64_t>(input.size());
  ParseOptions sampled;
  auto first = plan::PlanStream(input, /*sample_truncated=*/false, &sampled);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ParseOptions sized;
  const ParsePlan second = plan::PlanStream(length, &sized);
  ExpectPlansEqual(*first, second);
  ExpectPlansEqual(plan::PlanParse(length, ParseOptions()), second);
}

TEST(PlannerTest, SamplingClipsToBudgetDeterministically) {
  // A caller that clips its head sample to sample_budget plans what the
  // whole stream plans: a truncated sample stands for a longer stream,
  // however short the sample.
  const std::string input = GenerateTaxiLike(3, 64 * 1024);
  ParseOptions whole_options;
  auto whole = plan::PlanStream(input, false, &whole_options);
  ASSERT_TRUE(whole.ok());
  for (size_t budget : {size_t{8} * 1024, size_t{100}}) {
    ParseOptions options;
    options.sample_budget = budget;
    auto clipped = plan::PlanStream(
        std::string_view(input).substr(0, options.sample_budget),
        /*sample_truncated=*/true, &options);
    ASSERT_TRUE(clipped.ok());
    ExpectPlansEqual(*clipped, *whole);
  }
}

// --- decisions -------------------------------------------------------------

TEST(PlannerTest, EveryCorpusPlansTheBestLevelAt4096) {
  // The 256 KiB head of each corpus plans the best vector level and
  // 4096-byte chunks, whatever its DFA convergence: 4096 measured as fast
  // as or faster than 2048 on all four, and SWAR beat the scalar level on
  // all four on a host without a vector ISA. The forced best level keeps
  // this independent of PARPARAW_FORCE_KERNEL.
  const KernelLevel best = simd::DetectBestKernelLevel();
  ScopedKernelLevel force(best);
  auto log_format = ExtendedLogFormat();
  ASSERT_TRUE(log_format.ok()) << log_format.status().ToString();
  constexpr size_t kHead = 256 * 1024;
  struct Corpus {
    const char* name;
    std::string data;
    Format format;  // empty = RFC 4180
  };
  const Corpus corpora[] = {
      {"yelp", GenerateYelpLike(42, 2 * kHead), Format()},
      {"taxi", GenerateTaxiLike(42, 2 * kHead), Format()},
      {"lineitem", GenerateLineitemLike(42, 2 * kHead), PipeFormatNoQuotes()},
      {"log", GenerateLogLike(42, 2 * kHead), *log_format},
  };
  for (const Corpus& corpus : corpora) {
    ParseOptions options;
    options.format = corpus.format;
    auto planned = plan::PlanStream(
        std::string_view(corpus.data).substr(0, kHead),
        /*sample_truncated=*/true, &options);
    ASSERT_TRUE(planned.ok()) << corpus.name << ": "
                              << planned.status().ToString();
    EXPECT_EQ(planned->chunk_size, 4096u) << corpus.name;
    EXPECT_EQ(planned->kernel, simd::KernelKind::kAuto) << corpus.name;
    EXPECT_EQ(planned->kernel_level, best) << corpus.name;
  }
}

TEST(PlannerTest, ConvergentCorpusGetsLargeChunks) {
  // A quote-free DSV automaton collapses every speculative lane at the
  // first delimiter, so lineitem-like data is the paper's best case for
  // speculation. A whole 128 KiB stream of it plans the 4096-byte chunk at
  // the best vector level.
  ScopedKernelLevel force(simd::DetectBestKernelLevel());
  const std::string input = GenerateLineitemLike(11, 128 * 1024);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  auto planned = plan::PlanStream(input, /*sample_truncated=*/false, &options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->chunk_size, 4096u);
  EXPECT_EQ(planned->kernel, simd::KernelKind::kAuto);
}

TEST(PlannerTest, NonConvergentBytesPlanLikeAnyBytes) {
  // Taxi-like data under RFC 4180 never fully converges: a lane started
  // inside a hypothetical quoted field never exits it. The planner reads
  // no byte of the sample, so those bytes plan exactly what a same-length
  // run of quotes or of NULs plans.
  const std::string taxi = GenerateTaxiLike(5, 128 * 1024);
  ParseOptions taxi_options;
  auto planned = plan::PlanStream(taxi, /*sample_truncated=*/false,
                                  &taxi_options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->chunk_size, 4096u);
  for (char fill : {'"', '\0'}) {
    const std::string other(taxi.size(), fill);
    ParseOptions options;
    auto same = plan::PlanStream(other, /*sample_truncated=*/false, &options);
    ASSERT_TRUE(same.ok()) << same.status().ToString();
    ExpectPlansEqual(*same, *planned);
  }
}

TEST(PlannerTest, ScalarPipelineIgnoresConvergence) {
  // A forced scalar level plans the same chunk as every vector level: at
  // the scalar level 1024- and 4096-byte chunks measured the same.
  ScopedKernelLevel force(KernelLevel::kScalar);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  const ParsePlan planned = plan::PlanParse(64 * 1024, options);
  EXPECT_EQ(planned.kernel_level, KernelLevel::kScalar);
  EXPECT_EQ(planned.chunk_size, 4096u);
}

TEST(PlannerTest, ShortSampleKeepsPaperChunk) {
  // A stream shorter than 256 bytes keeps the paper's 31-byte chunk, so
  // tiny inputs still split into several chunks.
  ParseOptions options;
  EXPECT_EQ(plan::PlanParse(0, options).chunk_size, 31u);
  EXPECT_EQ(plan::PlanParse(255, options).chunk_size, 31u);
  EXPECT_EQ(plan::PlanParse(256, options).chunk_size, 4096u);
  ParseOptions sampled;
  auto whole = plan::PlanStream("a,b\nc,d\n", false, &sampled);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->chunk_size, 31u);
}

TEST(PlannerTest, OverBudgetDfaPlansTheSequentialWalk) {
  // A DFA over the register budget: the planner takes the context step's
  // predicate and plans the scalar level even with a vector level forced,
  // with 1024-byte chunks whatever the stream's length.
  ScopedKernelLevel force(KernelLevel::kAvx2);
  dialect::DialectSpec spec;
  spec.name = "fixed-wide";
  spec.fixed_widths = {10, 10};
  spec.quote = 0;
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_FALSE(compiled->format.dfa.fits_register_budget());
  ParseOptions options;
  options.format = compiled->format;
  for (int64_t stream_bytes : {int64_t{21}, int64_t{200 * 21}}) {
    const ParsePlan planned = plan::PlanParse(stream_bytes, options);
    EXPECT_EQ(planned.kernel_level, KernelLevel::kScalar);
    EXPECT_EQ(planned.chunk_size, 1024u);
    EXPECT_NE(planned.reason.find("register budget"), std::string::npos)
        << planned.reason;
  }
}

TEST(PlannerTest, PinnedKnobsAreRespected) {
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  options.chunk_size = 77;
  options.tagging_mode = TaggingMode::kVectorDelimited;
  const ParsePlan planned = plan::PlanParse(64 * 1024, options);
  EXPECT_EQ(planned.chunk_size, 77u);
  EXPECT_EQ(planned.tagging_mode, TaggingMode::kVectorDelimited);
}

// --- tagging ---------------------------------------------------------------

std::string UniformCsv(int records) {
  std::string csv;
  for (int i = 0; i < records; ++i) {
    csv += "a" + std::to_string(i) + ",b,c\n";
  }
  return csv;
}

TEST(PlannerTest, RobustPolicyNeverUpgradesTagging) {
  ParseOptions options;
  auto planned = plan::PlanStream(UniformCsv(32), false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kRecordTags);
}

TEST(PlannerTest, RaggedSampleNeverUpgradesTagging) {
  std::string csv = UniformCsv(32);
  csv += "only,two\n";
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  auto planned = plan::PlanStream(csv, false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kRecordTags);
}

TEST(PlannerTest, TooFewRecordsNeverUpgradeTagging) {
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kReject;
  auto planned = plan::PlanStream(UniformCsv(3), false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->tagging_mode, TaggingMode::kRecordTags);
}

TEST(PlannerTest, PlannedParseQuarantinesLateShortRecord) {
  // Under kReject with kQuarantine a short record stays as a rejected row,
  // which only the record-tag mode can carry. Its place past the first
  // 64 KiB once hid it from a sample that picked kVectorDelimited and
  // failed the parse; the planned parse must equal one with the paper's
  // 31-byte chunk pinned.
  std::string csv;
  int64_t records = 0;
  while (csv.size() < 80 * 1024) {
    csv += std::to_string(records) + "," + std::to_string(records * 7) +
           "," + std::to_string(records % 10) + "\n";
    ++records;
  }
  csv += "999,short\n";
  for (int i = 0; i < 100; ++i) csv += "1,2,3\n";
  Schema schema;
  for (const char* name : {"a", "b", "c"}) {
    schema.AddField(Field(name, DataType::Int64()));
  }
  ParseOptions options;
  options.schema = schema;
  options.column_count_policy = ColumnCountPolicy::kReject;
  options.error_policy = robust::ErrorPolicy::kQuarantine;
  ParseOptions pinned_chunk = options;
  pinned_chunk.chunk_size = 31;

  auto planned = Parser::Parse(csv, options);
  auto reference = Parser::Parse(csv, pinned_chunk);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(planned->table.Equals(reference->table));
  EXPECT_EQ(planned->table.num_rows, records + 101);
  ASSERT_EQ(planned->quarantine.entries().size(), 1u);
  EXPECT_EQ(reference->quarantine.entries().size(), 1u);

  // Pinning the vector-delimited mode fails and names what the data needs.
  ParseOptions pinned = options;
  pinned.tagging_mode = TaggingMode::kVectorDelimited;
  auto failed = Parser::Parse(csv, pinned);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find(
                "the record-tag mode, or the reject column-count policy "
                "without the quarantine error policy"),
            std::string::npos)
      << failed.status().ToString();
}

// --- resolution and plan application ---------------------------------------

TEST(PlannerTest, PlanParseResolvesEveryAutoSentinel) {
  EXPECT_EQ(ParsePlan().chunk_size, 0u);  // only PlanParse fills a plan
  ParseOptions options;
  const ParsePlan plan = plan::PlanParse(64 * 1024, options);
  EXPECT_EQ(plan.kernel, simd::KernelKind::kAuto);
  EXPECT_EQ(plan.chunk_size, 4096u);
  EXPECT_EQ(plan.tagging_mode, TaggingMode::kRecordTags);
  EXPECT_NE(plan.transpose_mode, TransposeMode::kAuto);
  EXPECT_EQ(plan.partition_size, 0u);
}

TEST(PlannerTest, PlanParsePassesPinsThrough) {
  // A forced kernel level outranks the option; pin the one it asserts.
  ScopedKernelLevel force(KernelLevel::kScalar);
  ParseOptions options;
  options.kernel = simd::KernelKind::kScalar;
  options.chunk_size = 77;
  options.tagging_mode = TaggingMode::kVectorDelimited;
  options.transpose_mode = TransposeMode::kSymbolSort;
  const ParsePlan plan = plan::PlanParse(64 * 1024, options);
  EXPECT_EQ(plan.kernel, simd::KernelKind::kScalar);
  EXPECT_EQ(plan.kernel_level, KernelLevel::kScalar);
  EXPECT_EQ(plan.chunk_size, 77u);
  EXPECT_EQ(plan.tagging_mode, TaggingMode::kVectorDelimited);
  EXPECT_EQ(plan.transpose_mode, TransposeMode::kSymbolSort);
  EXPECT_TRUE(plan.reason.empty()) << plan.reason;  // nothing was decided
}

TEST(PlannerTest, ApplyPlanPinsEveryKnobAndDisablesReplanning) {
  ParsePlan plan;
  plan.kernel = simd::KernelKind::kScalar;
  plan.chunk_size = 1024;
  plan.tagging_mode = TaggingMode::kVectorDelimited;
  plan.transpose_mode = TransposeMode::kSymbolSort;
  ParseOptions options;
  plan::ApplyPlan(plan, &options);
  EXPECT_EQ(options.kernel, simd::KernelKind::kScalar);
  EXPECT_EQ(options.chunk_size, 1024u);
  EXPECT_EQ(options.tagging_mode, TaggingMode::kVectorDelimited);
  EXPECT_EQ(options.transpose_mode, TransposeMode::kSymbolSort);
  // No sentinel is left, so a downstream PlanStream decides nothing.
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  plan::PlanStream(64 * 1024, &options);
  EXPECT_EQ(metrics.GetCounter("plan.runs")->Value(), 0);
}

TEST(PlannerTest, PlanStreamPlansAStreamOnce) {
  // The second PlanStream of a planned stream (a downstream entry point)
  // finds every knob pinned: it records nothing and reports the same plan.
  ParseOptions options;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  const ParsePlan first = plan::PlanStream(64 * 1024, &options);
  const ParsePlan second = plan::PlanStream(64 * 1024, &options);
  EXPECT_EQ(metrics.GetCounter("plan.runs")->Value(), 1);
  EXPECT_EQ(second.chunk_size, first.chunk_size);
  EXPECT_EQ(second.kernel_level, first.kernel_level);
  EXPECT_EQ(second.tagging_mode, first.tagging_mode);
  EXPECT_EQ(second.transpose_mode, first.transpose_mode);
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
  EXPECT_EQ(metrics.GetCounter("plan.runs")->Value(), 0);
  // The kernel's kAuto is a request for the best level, not a sentinel.
  options.kernel = simd::KernelKind::kAuto;
  planned = plan::PlanStream(UniformCsv(16), false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(metrics.GetCounter("plan.runs")->Value(), 0);
  EXPECT_EQ(planned->kernel_level,
            simd::ResolveKernelLevel(simd::KernelKind::kAuto));
}

TEST(PlannerTest, PlanStreamAppliesThePlanAndCountsTheRun) {
  const std::string input = GenerateLineitemLike(9, 64 * 1024);
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  auto planned = plan::PlanStream(input, false, &options);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(options.chunk_size, planned->chunk_size);
  EXPECT_EQ(options.tagging_mode, planned->tagging_mode);
  EXPECT_EQ(options.transpose_mode, planned->transpose_mode);
  EXPECT_EQ(metrics.GetCounter("plan.runs")->Value(), 1);
  EXPECT_EQ(metrics.GetGauge("plan.chunk_size")->Value(), 4096);
  EXPECT_EQ(metrics
                .GetCounter(planned->kernel_level == KernelLevel::kScalar
                                ? "plan.kernel.scalar"
                                : "plan.kernel.simd")
                ->Value(),
            1);
}

// --- Tuning validation -----------------------------------------------------

TEST(PlannerTest, DefaultOptionsValidate) {
  EXPECT_TRUE(ParseOptions().Validate().ok());
}

TEST(PlannerTest, AutoPlannerAcceptsPins) {
  // kAuto respects pins (they just shrink what the planner decides).
  ParseOptions options;
  options.kernel = simd::KernelKind::kScalar;
  options.chunk_size = 31;
  options.tagging_mode = TaggingMode::kRecordTags;
  options.transpose_mode = TransposeMode::kFieldGather;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(PlannerTest, ChunkSizeUpperBound) {
  ParseOptions options;
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

// --- reporting -------------------------------------------------------------

TEST(PlannerTest, ExplainRendersTheDecision) {
  ParseOptions options;
  options.format = PipeFormatNoQuotes();
  const ParsePlan planned = plan::PlanParse(64 * 1024, options);
  const std::string report = planned.Explain();
  EXPECT_EQ(report.rfind("plan: kernel=auto(", 0), 0u) << report;
  EXPECT_NE(report.find("chunk=4096"), std::string::npos) << report;
  EXPECT_NE(report.find("reason:"), std::string::npos) << report;
  // Partition size is the entry point's, not the plan's.
  EXPECT_EQ(report.find("partition="), std::string::npos) << report;
}

// --- one resolution --------------------------------------------------------

TEST(PlannerTest, EveryEntryPointResolvesTheSameChunk) {
  // All-auto options on one 4 KiB input: a direct StagedParse resolves its
  // sentinels as Parser::Parse and the executor do, so all three scan the
  // same number of chunks (three scan elements per chunk).
  std::string input = GenerateTaxiLike(21, 4096);
  input.resize(4096);
  input.back() = '\n';
  ParseOptions options;
  options.schema = TaxiSchema();
  const int64_t want_scan_elements = 3;  // one 4096-byte chunk

  auto parsed = Parser::Parse(input, options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->work.scan_elements, want_scan_elements);

  StagedParse staged;
  ASSERT_TRUE(staged.Scan(input, options).ok());
  ASSERT_FALSE(staged.finished());
  ASSERT_TRUE(staged.Partition().ok());
  ASSERT_TRUE(staged.Convert().ok());
  const ParseOutput direct = staged.TakeOutput();
  EXPECT_EQ(direct.work.scan_elements, want_scan_elements);
  EXPECT_TRUE(direct.table.Equals(parsed->table));

  exec::PipelineExecutor executor;
  exec::ExecOptions exec_options;
  exec_options.base = options;
  auto ingested = executor.IngestBuffer(input, exec_options);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested->work.scan_elements, want_scan_elements);
  EXPECT_EQ(ingested->plan.chunk_size, 4096u);
}

}  // namespace
}  // namespace parparaw
