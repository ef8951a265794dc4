#ifndef PARPARAW_CORE_CSS_INDEX_H_
#define PARPARAW_CORE_CSS_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

// FieldEntry lives in core/pipeline_state.h (the gather transpose path
// stores entries in PipelineState, which this header includes).

/// \brief Step 6 (§3.3/§4.1): generate a column's CSS index.
///
/// kRecordTags: run-length encode the column's record tags; each run is one
/// field (its value the record, its length the symbol count); an exclusive
/// prefix sum yields the offsets. Empty fields produce no run — the convert
/// step fills them from defaults (§4.3).
///
/// kInlineTerminated / kVectorDelimited: collect the terminator slots (or
/// the auxiliary field-end marks); field k belongs to output row k, which
/// requires a consistent column count (enforced by returning ParseError on
/// a count mismatch).
///
/// `*fields` views the list. In field-gather mode the list is the column's
/// slice of state.gather_entries unless record tags drop empty fields from
/// it, and the view then indexes that slice in place; otherwise the list
/// is built into `*storage`, which must outlive the view.
Status BuildCssIndex(const PipelineState& state, uint32_t column,
                     ScratchVector<FieldEntry>* storage,
                     std::span<const FieldEntry>* fields);

/// Copying form of the above: fills `*fields` with the same list.
Status BuildCssIndex(const PipelineState& state, uint32_t column,
                     std::vector<FieldEntry>* fields);

/// Stable parallel compaction: writes value(i) for every i in [0, n) where
/// pred(i) holds into `*out`, in order, using a chunked count +
/// exclusive-prefix-sum + fill pattern (the GPU compaction idiom shared
/// with the tag step). When `all_kept` is non-null and every i passes, the
/// fill is skipped, `*out` is left untouched and `*all_kept` is set: the
/// input is its own compaction.
template <typename Vec, typename Pred, typename Value>
void ParallelCompact(ThreadPool* pool, int64_t n, Pred pred, Value value,
                     Vec* out, bool* all_kept = nullptr);

/// Collects the positions i in [0, n) where pred(i) is true, in order.
template <typename Pred>
void CollectPositions(ThreadPool* pool, int64_t n, Pred pred,
                      std::vector<int64_t>* positions) {
  ParallelCompact(pool, n, pred, [](int64_t i) { return i; }, positions);
}

}  // namespace parparaw

#include "core/css_index_inl.h"

#endif  // PARPARAW_CORE_CSS_INDEX_H_
