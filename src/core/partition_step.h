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
/// TransposeMode::kFieldGather (default): the partition step writes the
/// output columns. The tag step's per-(tile, column) byte tallies are
/// scanned into stable write cursors and every column is allocated once;
/// then each tile walks its chunks' fields over the bitmap indexes again
/// (ForEachField, core/field_walk.h) and writes each kept value into its
/// column: a string's bytes at its cursor (the row's offset), a
/// fixed-width value parsed from its input window. Empty and missing
/// fields take their default, NULL or reject in the same walk (the value
/// rule, core/column_plan.h); values longer than
/// device_collaboration_threshold are copied device-wide after the walk.
/// Fills: gathered_columns, gather_rejects. No CSS is built; both modes
/// produce bit-identical tables. WorkCounters::transpose_peak_bytes
/// records each mode's modelled peak footprint.
class PartitionStep {
 public:
  /// Work counters record the number of partitioning passes and bytes
  /// moved.
  static Status Run(PipelineState* state, StepTimings* timings,
                    WorkCounters* work);
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_PARTITION_STEP_H_
