#ifndef PARPARAW_ROBUST_RESOURCE_GUARD_H_
#define PARPARAW_ROBUST_RESOURCE_GUARD_H_

#include <cstdint>
#include <new>
#include <string>
#include <utility>

#include "robust/failpoint.h"
#include "util/huge_pages.h"
#include "util/status.h"

namespace parparaw {
namespace robust {

/// \brief Resource guards: turn allocation failure and transient I/O errors
/// into recoverable Statuses instead of process death.
///
/// Two pieces:
///   * GuardedAssign / GuardedResize wrap the pipeline's large working-set
///     allocations (state vectors, symbol flags, offset arrays). They check
///     an `alloc.*` failpoint first and catch std::bad_alloc, mapping both
///     to kResourceExhausted so Parser::Parse and the bulk loader can
///     degrade (smaller partitions, streaming) rather than abort.
///   * RetryPolicy / RetryTransient implement bounded deterministic
///     exponential backoff for EINTR-class conditions in the I/O layer.

/// Approximate peak working-set bytes needed to parse `input_size` bytes in
/// one monolithic Parse() call. The pipeline materialises per-byte state
/// vectors (context step), symbol flags, offset arrays, tag arrays and the
/// output table; 16x input is a deliberately conservative envelope measured
/// against the dense CSV workloads in tests/workload.
inline constexpr int64_t kParseMemoryFactor = 16;

/// Envelope for TransposeMode::kFieldGather, whose transposition metadata is
/// O(fields) instead of O(bytes): the per-byte tag sideband, per-symbol
/// permutation and sort scratch disappear, and so do the CSS and any
/// per-field record, leaving the state vectors, the bitmap indexes, the
/// per-tile tallies and the output table, which the partition step's walk
/// writes directly. On taxi-like data (~6-byte fields) the modelled
/// transpose peak of an 8 MiB partition (the output columns and the
/// tallies; perfbench's core.transpose_peak_mib on numeric_stream) is
/// 11.2 MiB, 1.4x the input. 8x stays the envelope: it sizes budgeted
/// partitions, and the admission limit follows from kPipelineDepth.
inline constexpr int64_t kParseMemoryFactorFieldGather = 8;

/// Partitions in flight when nothing limits them: one each in read, scan,
/// sort and convert. A memory budget shrinks partitions until this many
/// fit, so a budgeted ingest keeps the unbudgeted pipeline's overlap.
inline constexpr int64_t kPipelineDepth = 4;

inline int64_t EstimateParseMemory(int64_t input_size,
                                   int64_t factor = kParseMemoryFactor) {
  return input_size * factor;
}

/// Largest partition size (bytes) of which kPipelineDepth estimated working
/// sets fit in `memory_budget`, clamped to [floor_bytes, requested], so the
/// budget leaves room for kPipelineDepth partitions in flight. Returns
/// `requested` unchanged when the budget is 0 (unlimited). `factor` is the
/// working-set multiplier of the parse the partitions feed — pass
/// ParseWorkingSetFactor(options) when the transpose mode is known.
int64_t ClampPartitionSizeForBudget(int64_t requested, int64_t memory_budget,
                                    int64_t floor_bytes = 256,
                                    int64_t factor = kParseMemoryFactor);

/// The allocation half of GuardedAssign, for a caller that checks the
/// `name` failpoint itself (in a fixed order ahead of parallel fills):
/// maps std::bad_alloc to kResourceExhausted.
template <typename Container, typename V>
Status AssignOrExhausted(const char* name, Container* container, size_t count,
                         const V& value) {
  try {
    huge_pages::Assign(container, count, value);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(std::string("allocation of ") +
                                     std::to_string(count) +
                                     " elements failed at '" + name + "'");
  }
  return Status::OK();
}

/// Assigns `count` copies of `value` into `container` (vector-like), mapping
/// the `name` failpoint and std::bad_alloc to kResourceExhausted. Fresh
/// storage past huge_pages::kAdviseInPlaceBytes is advised for huge pages
/// before the fill writes it (huge_pages::Assign).
template <typename Container, typename V>
Status GuardedAssign(const char* name, Container* container, size_t count,
                     const V& value) {
  PARPARAW_FAILPOINT(name);
  return AssignOrExhausted(name, container, count, value);
}

/// Resize flavour of GuardedAssign for containers grown without a fill
/// value.
template <typename Container>
Status GuardedResize(const char* name, Container* container, size_t count) {
  PARPARAW_FAILPOINT(name);
  try {
    container->resize(count);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(std::string("allocation of ") +
                                     std::to_string(count) +
                                     " elements failed at '" + name + "'");
  }
  return Status::OK();
}

/// Bounded exponential backoff for transient failures. Deterministic (no
/// jitter) so fault-injection runs replay identically; the delays are
/// microseconds because the transients modelled (EINTR, short reads on
/// pipes) clear on that scale.
struct RetryPolicy {
  int max_attempts = 5;
  int64_t base_delay_us = 50;
  int64_t max_delay_us = 5000;

  /// Delay before retry attempt `attempt` (1-based): base * 2^(attempt-1),
  /// capped at max_delay_us.
  int64_t DelayUs(int attempt) const;
};

namespace internal {
/// Sleeps for `delay_us` microseconds and increments robust.io_retries.
/// Out-of-line so resource_guard.h does not pull <thread> into every step.
void BackoffSleepAndCount(int64_t delay_us);
}  // namespace internal

/// Runs `op` (returning Status) up to `policy.max_attempts` times, sleeping
/// the policy's backoff between attempts. Retries only while
/// `is_transient(status)` holds; the final failure (or a non-transient one)
/// propagates as-is. Each retry bumps the `robust.io_retries` metric.
template <typename Op, typename TransientPred>
Status RetryTransient(const RetryPolicy& policy, Op&& op,
                      TransientPred&& is_transient) {
  Status st;
  for (int attempt = 1;; ++attempt) {
    st = op();
    if (st.ok() || attempt >= policy.max_attempts || !is_transient(st)) {
      return st;
    }
    internal::BackoffSleepAndCount(policy.DelayUs(attempt));
  }
}

}  // namespace robust
}  // namespace parparaw

#endif  // PARPARAW_ROBUST_RESOURCE_GUARD_H_
