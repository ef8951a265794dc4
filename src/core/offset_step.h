#ifndef PARPARAW_CORE_OFFSET_STEP_H_
#define PARPARAW_CORE_OFFSET_STEP_H_

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

/// \brief Step 3 (§3.2): resolve each chunk's record and column offsets.
///
/// The record offsets are the exclusive prefix sum of the per-chunk record
/// counts. The column offsets are an exclusive prefix scan with the
/// relative/absolute operator ⊕ (Fig. 4): an absolute contribution (chunk
/// contains a record delimiter) resets the running offset; a relative one
/// adds to it. Fills: record_offsets, entry_columns, num_records.
class OffsetStep {
 public:
  static Status Run(PipelineState* state, StepTimings* timings);
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_OFFSET_STEP_H_
