#ifndef PARPARAW_CORE_PARTITION_STEP_H_
#define PARPARAW_CORE_PARTITION_STEP_H_

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

/// \brief Step 5 (§3.3): partition symbols by column.
///
/// TransposeMode::kSymbolSort: a stable LSD radix sort over the column tags
/// moves every kept symbol — together with its record tag / field-end
/// marker — into its column's concatenated symbol string (CSS). The sort's
/// histogram doubles as the per-column CSS offsets. Fills: permutation,
/// column_histogram, column_css_offsets, and reorders css / rec_tags /
/// field_end in place.
///
/// TransposeMode::kFieldGather (default): the tag step's per-(tile,
/// column) histogram of kept fields is scanned into stable write cursors;
/// then each tile walks its chunks' fields over the bitmap indexes again
/// (ForEachField, core/field_walk.h) and copies every kept field's value
/// bytes from the input into its column's CSS with whole-field memcpy
/// (terminator slots folded into the copy). Fills: column_histogram,
/// column_css_offsets, gather_entries, gather_entry_offsets, css. Both
/// modes produce byte-identical CSS layouts;
/// WorkCounters::transpose_peak_bytes records each mode's modelled peak
/// footprint.
class PartitionStep {
 public:
  /// Work counters record the number of partitioning passes and bytes
  /// moved.
  static Status Run(PipelineState* state, StepTimings* timings,
                    WorkCounters* work);
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_PARTITION_STEP_H_
