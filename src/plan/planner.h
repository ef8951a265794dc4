#ifndef PARPARAW_PLAN_PLANNER_H_
#define PARPARAW_PLAN_PLANNER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/options.h"
#include "util/result.h"

namespace parparaw::plan {

/// \brief A resolved per-stream configuration: every tuning knob concrete,
/// plus the reasoning that produced it.
struct ParsePlan {
  simd::KernelKind kernel = simd::KernelKind::kSimd;
  /// The concrete level `kernel` resolves to on this machine/environment
  /// (reflects PARPARAW_FORCE_KERNEL and PARPARAW_DISABLE_SIMD).
  simd::KernelLevel kernel_level = simd::KernelLevel::kSwar;
  size_t chunk_size = 31;
  TaggingMode tagging_mode = TaggingMode::kRecordTags;
  TransposeMode transpose_mode = TransposeMode::kFieldGather;
  /// 0 = keep the entry point's partition size (64 MB default, budget
  /// clamped); non-zero overrides it.
  size_t partition_size = 0;

  /// True when PlanParse decided the configuration; false for the static
  /// defaults (planner disabled, or nothing left to decide).
  bool planned = false;
  /// One line per decided knob: what was chosen and why.
  std::string reason;

  /// Human-readable multi-line report (the Reader::Explain() payload).
  std::string Explain() const;
};

/// Static resolution of every auto sentinel — the planless defaults that
/// kDisabled (and every parse before the planner existed) runs: kernel
/// kAuto -> best vectorized level, chunk 0 -> 31, tagging kAuto ->
/// kRecordTags, transpose kAuto -> kFieldGather (or the env override).
/// Pinned knobs pass through unchanged.
ParsePlan StaticPlan(const ParseOptions& options);

/// Decides every knob still at its auto sentinel from what is known before
/// the first byte is read: the DFA, the caller's pins and the stream's
/// length. The kernel, tagging, transpose and partition knobs resolve as
/// StaticPlan resolves them; chunk size 0 becomes 1024 for a DFA over the
/// register budget, 31 for a stream shorter than 256 bytes and 4096 for
/// any other stream. No decision changes the output. `options` must carry
/// any dialect already resolved into its format, since the chunk rule
/// reads its DFA.
ParsePlan PlanParse(int64_t stream_bytes, const ParseOptions& options);

/// Pins the plan's decisions into *options and sets
/// planner = PlannerMode::kDisabled, so a downstream entry point (the
/// per-partition Parser::Parse of a planned stream, a loader handing off
/// to the executor) never plans the same stream twice.
void ApplyPlan(const ParsePlan& plan, ParseOptions* options);

/// The per-stream entry-point helper: when options->planner is kAuto and
/// at least one knob is at its auto sentinel, plans the stream, records
/// the plan.* metrics and trace span, and applies the plan. Otherwise
/// returns the static resolution without touching *options.
ParsePlan PlanStream(int64_t stream_bytes, ParseOptions* options);

/// PlanStream for a caller that holds a head sample of the stream: plans
/// from the sample's length, where a truncated sample stands for a longer
/// stream. Never fails.
Result<ParsePlan> PlanStream(std::string_view sample, bool sample_truncated,
                             ParseOptions* options);

}  // namespace parparaw::plan

#endif  // PARPARAW_PLAN_PLANNER_H_
