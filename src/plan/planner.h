#ifndef PARPARAW_PLAN_PLANNER_H_
#define PARPARAW_PLAN_PLANNER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/options.h"
#include "util/result.h"

namespace parparaw::plan {

/// \brief A resolved per-stream configuration: every tuning knob concrete,
/// plus the reasoning that produced it. Only PlanParse fills one; a
/// default-constructed plan still holds the auto sentinels.
struct ParsePlan {
  /// The kernel request; kAuto is itself a request (the best vectorized
  /// level), not a sentinel, so the plan passes it through.
  simd::KernelKind kernel = simd::KernelKind::kAuto;
  /// The concrete level `kernel` resolves to on this machine/environment
  /// (reflects PARPARAW_FORCE_KERNEL and PARPARAW_DISABLE_SIMD).
  simd::KernelLevel kernel_level = simd::KernelLevel::kScalar;
  size_t chunk_size = 0;
  TaggingMode tagging_mode = TaggingMode::kAuto;
  TransposeMode transpose_mode = TransposeMode::kAuto;
  /// Always 0: partition size is not a tuning knob, and each entry point
  /// carries its own. Kept for a caller that reads it (perfbench).
  size_t partition_size = 0;

  /// One line per decided knob: what was chosen and why.
  std::string reason;

  /// Human-readable multi-line report (the Reader::Explain() payload).
  std::string Explain() const;
};

/// The one resolution of every auto sentinel, from what is known before
/// the first byte is read: the DFA, the caller's pins and the stream's
/// length. Chunk size 0 becomes 1024 for a DFA over the register budget,
/// 31 for a stream shorter than 256 bytes and 4096 for any other stream;
/// tagging kAuto becomes kRecordTags; transpose kAuto becomes kFieldGather
/// (or the PARPARAW_TRANSPOSE_MODE override). Pinned knobs pass through.
/// No decision changes the output. `options` must carry any dialect
/// already resolved into its format, since the chunk rule reads its DFA.
ParsePlan PlanParse(int64_t stream_bytes, const ParseOptions& options);

/// Pins the plan's decisions into *options, so a downstream entry point
/// (the per-partition StagedParse of a planned stream, a loader handing
/// off to the executor) finds no sentinel left and never plans the same
/// stream twice.
void ApplyPlan(const ParsePlan& plan, ParseOptions* options);

/// The per-stream entry-point helper: plans the stream and applies the
/// plan. Only when at least one knob was still at its auto sentinel does
/// it record the plan.* metrics and the `plan` trace span; with every knob
/// pinned it only reports them.
ParsePlan PlanStream(int64_t stream_bytes, ParseOptions* options);

/// PlanStream for a caller that holds a head sample of the stream: plans
/// from the sample's length, where a truncated sample stands for a longer
/// stream. Never fails.
Result<ParsePlan> PlanStream(std::string_view sample, bool sample_truncated,
                             ParseOptions* options);

}  // namespace parparaw::plan

#endif  // PARPARAW_PLAN_PLANNER_H_
