#ifndef PARPARAW_CORE_CSS_INDEX_H_
#define PARPARAW_CORE_CSS_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

/// One field inside a column's concatenated symbol string (§3.3, Fig. 5).
struct FieldEntry {
  /// Output row this field belongs to.
  int64_t row = 0;
  /// Offset of the field's first symbol in the global CSS buffer.
  int64_t offset = 0;
  /// Number of value symbols (terminator slots excluded).
  int64_t length = 0;
};

/// \brief Step 6 (§3.3/§4.1): generate a column's CSS index
/// (TransposeMode::kSymbolSort; the field gather builds no CSS, and gets
/// InvalidArgument).
///
/// kRecordTags: run-length encode the column's record tags; each run is one
/// field (its value the record, its length the symbol count); an exclusive
/// prefix sum yields the offsets. Empty fields produce no run — the convert
/// step fills them from defaults (§4.3).
///
/// kInlineTerminated / kVectorDelimited: collect the terminator slots (or
/// the auxiliary field-end marks); field k belongs to output row k. The tag
/// step's CheckColumnPlans already failed the parse unless every kept
/// record holds the column.
///
/// Fills `*fields` with the column's field list.
Status BuildCssIndex(const PipelineState& state, uint32_t column,
                     ScratchVector<FieldEntry>* fields);

/// Collects the positions i in [0, n) where pred(i) is true, in order, with
/// a chunked count + exclusive-prefix-sum + fill pattern (the GPU
/// compaction idiom shared with the tag step).
template <typename Pred>
void CollectPositions(ThreadPool* pool, int64_t n, Pred pred,
                      std::vector<int64_t>* positions);

}  // namespace parparaw

#include "core/css_index_inl.h"

#endif  // PARPARAW_CORE_CSS_INDEX_H_
