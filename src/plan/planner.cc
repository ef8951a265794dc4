#include "plan/planner.h"

#include <limits>
#include <string>

#include "obs/obs.h"
#include "obs/trace.h"
#include "simd/dispatch.h"

namespace parparaw::plan {

namespace {

/// A stream shorter than this keeps the paper's 31-byte chunk (Fig. 9), so
/// tiny inputs still split into several chunks.
constexpr int64_t kTinyStreamBytes = 256;

const char* KernelKindName(simd::KernelKind kind) {
  switch (kind) {
    case simd::KernelKind::kAuto:
      return "auto";
    case simd::KernelKind::kScalar:
      return "scalar";
    case simd::KernelKind::kSimd:
      return "simd";
  }
  return "unknown";
}

const char* TaggingModeName(TaggingMode mode) {
  switch (mode) {
    case TaggingMode::kRecordTags:
      return "record_tags";
    case TaggingMode::kInlineTerminated:
      return "inline_terminated";
    case TaggingMode::kVectorDelimited:
      return "vector_delimited";
    case TaggingMode::kAuto:
      return "auto";
  }
  return "unknown";
}

const char* TransposeModeName(TransposeMode mode) {
  switch (mode) {
    case TransposeMode::kAuto:
      return "auto";
    case TransposeMode::kFieldGather:
      return "field_gather";
    case TransposeMode::kSymbolSort:
      return "symbol_sort";
  }
  return "unknown";
}

/// True when at least one knob is still at its auto sentinel, i.e. the
/// planner has something to decide.
bool AnyKnobAuto(const ParseOptions& options) {
  return options.kernel == simd::KernelKind::kAuto ||
         options.chunk_size == 0 ||
         options.tagging_mode == TaggingMode::kAuto ||
         options.transpose_mode == TransposeMode::kAuto;
}

void AppendReason(std::string* reason, const std::string& line) {
  if (!reason->empty()) reason->push_back('\n');
  reason->append(line);
}

/// The level a kernel request resolves to for `dfa`: a DFA over the
/// register budget always takes the context step's sequential walk, which
/// is the scalar level.
simd::KernelLevel KernelLevelFor(const Dfa& dfa, simd::KernelKind kernel) {
  return dfa.fits_register_budget() ? simd::ResolveKernelLevel(kernel)
                                    : simd::KernelLevel::kScalar;
}

}  // namespace

std::string ParsePlan::Explain() const {
  std::string out = "plan: kernel=";
  out += KernelKindName(kernel);
  out += '(';
  out += simd::KernelLevelName(kernel_level);
  out += ") chunk=";
  out += std::to_string(chunk_size);
  out += " tagging=";
  out += TaggingModeName(tagging_mode);
  out += " transpose=";
  out += TransposeModeName(transpose_mode);
  out += " partition=";
  out += partition_size == 0 ? std::string("default")
                             : std::to_string(partition_size);
  out += planned ? " [planned]" : " [static]";
  if (!reason.empty()) {
    out += "\nreason: ";
    out += reason;
  }
  return out;
}

ParsePlan StaticPlan(const ParseOptions& options) {
  ParsePlan plan;
  plan.kernel = options.kernel == simd::KernelKind::kAuto
                    ? simd::KernelKind::kSimd
                    : options.kernel;
  plan.kernel_level = KernelLevelFor(options.format.dfa, plan.kernel);
  plan.chunk_size = options.chunk_size == 0 ? 31 : options.chunk_size;
  plan.tagging_mode = EffectiveTaggingMode(options);
  plan.transpose_mode = EffectiveTransposeMode(options);
  plan.partition_size = options.partition_size;
  plan.planned = false;
  return plan;
}

ParsePlan PlanParse(int64_t stream_bytes, const ParseOptions& options) {
  const Dfa& dfa = options.format.dfa;
  const bool in_budget = dfa.fits_register_budget();
  std::string budget_reason;
  if (!in_budget) {
    budget_reason = std::to_string(dfa.num_states()) + " states / " +
                    std::to_string(dfa.num_symbols()) +
                    " symbols exceed the register budget, so the context "
                    "step walks the entry states sequentially";
  }
  ParsePlan plan = StaticPlan(options);
  plan.planned = true;

  if (options.kernel == simd::KernelKind::kAuto) {
    AppendReason(&plan.reason,
                 in_budget ? "kernel=simd: the best available level"
                           : "kernel=simd(scalar): " + budget_reason);
  }

  // Chunks are the speculation granularity and the unit the
  // composite-operator scan runs over. With the delimiter walks and
  // speculation, 4096-byte chunks measured as fast as or faster than 2048
  // on yelp-, taxi-, lineitem- and log-like data, and at the scalar level
  // 1024 and 4096 measured about the same, so one size serves every DFA
  // within the register budget (docs/tuning.md).
  if (options.chunk_size == 0) {
    size_t chunk = 4096;
    std::string why =
        "amortise the per-chunk scan overhead; delimiter walks and "
        "speculation make large chunks cheap";
    if (!in_budget) {
      chunk = 1024;
      why = budget_reason +
            ": amortise the per-chunk overhead of the chunk-parallel steps";
    } else if (stream_bytes < kTinyStreamBytes) {
      chunk = 31;
      why = "stream shorter than 256 bytes: the paper's chunk keeps it "
            "multi-chunk";
    }
    plan.chunk_size = chunk;
    AppendReason(&plan.reason,
                 "chunk=" + std::to_string(chunk) + ": " + why);
  }
  return plan;
}

void ApplyPlan(const ParsePlan& plan, ParseOptions* options) {
  options->kernel = plan.kernel;
  options->chunk_size = plan.chunk_size;
  options->tagging_mode = plan.tagging_mode;
  options->transpose_mode = plan.transpose_mode;
  options->partition_size = plan.partition_size;
  // Plan once per stream: downstream entry points (the per-partition
  // Parser::Parse of a streaming parse) see only pinned knobs.
  options->planner = PlannerMode::kDisabled;
}

ParsePlan PlanStream(int64_t stream_bytes, ParseOptions* options) {
  if (options->planner == PlannerMode::kDisabled || !AnyKnobAuto(*options)) {
    return StaticPlan(*options);
  }
  obs::TraceSpan span(options->tracer, "plan", "plan");
  obs::AddCount(options->metrics, "plan.runs", 1);
  ParsePlan plan = PlanParse(stream_bytes, *options);
  obs::SetGauge(options->metrics, "plan.chunk_size",
                static_cast<int64_t>(plan.chunk_size));
  obs::AddCount(options->metrics,
                plan.kernel_level == simd::KernelLevel::kScalar
                    ? "plan.kernel.scalar"
                    : "plan.kernel.simd",
                1);
  ApplyPlan(plan, options);
  return plan;
}

Result<ParsePlan> PlanStream(std::string_view sample, bool sample_truncated,
                             ParseOptions* options) {
  return PlanStream(sample_truncated
                        ? std::numeric_limits<int64_t>::max()
                        : static_cast<int64_t>(sample.size()),
                    options);
}

}  // namespace parparaw::plan
