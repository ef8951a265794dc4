#ifndef PARPARAW_CORE_BITMAP_STEP_H_
#define PARPARAW_CORE_BITMAP_STEP_H_

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

/// \brief Step 2 (§3.1/§3.2): per-symbol bitmap indexes and per-chunk
/// offsets.
///
/// With its true entry state resolved, each chunk simulates a single DFA
/// instance once more and records, per symbol, whether it delimits a
/// record, delimits a field, or is a control symbol (the three bitmap
/// indexes; subsequent steps never re-run the DFA). Alongside, the chunk
/// derives its record-delimiter count and its relative/absolute
/// column-offset contribution (Fig. 4), and flags invalid transitions for
/// validation (§4.3). Fills: symbol_index (with the context step's fused
/// kernels), record_counts, column_offsets, first_invalid_offset.
class BitmapStep {
 public:
  static Status Run(PipelineState* state, StepTimings* timings);
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_BITMAP_STEP_H_
