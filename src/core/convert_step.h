#ifndef PARPARAW_CORE_CONVERT_STEP_H_
#define PARPARAW_CORE_CONVERT_STEP_H_

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

/// \brief Step 7 (§3.3/§4.3): generate typed columnar field values.
///
/// TransposeMode::kSymbolSort, per column plan: build the CSS index,
/// optionally infer the column type (parallel classify + lattice-join
/// reduction), then convert each row by the value rule
/// (core/column_plan.h: the value, the default, or NULL). Conversion
/// failures yield NULL and set the record's reject flag (Fig. 5). String
/// materialisation uses the three collaboration levels of §3.3: short
/// fields are copied thread-exclusively, medium ones with a segmented
/// block-level loop, and fields above the device threshold are deferred
/// and copied with a device-wide parallel loop.
///
/// TransposeMode::kFieldGather: the partition step's walk already wrote
/// every column; the step assembles the table and merges each tile's
/// rejected rows. It reads neither the input nor the symbol index.
class ConvertStep {
 public:
  static Status Run(PipelineState* state, StepTimings* timings,
                    WorkCounters* work, ParseOutput* output);
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_CONVERT_STEP_H_
