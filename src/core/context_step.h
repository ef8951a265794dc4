#ifndef PARPARAW_CORE_CONTEXT_STEP_H_
#define PARPARAW_CORE_CONTEXT_STEP_H_

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

/// \brief Step 1 (§3.1): determine every chunk's parsing context.
///
/// Each chunk simulates |S| DFA instances — one per possible entry state —
/// producing its state-transition vector (the "parse" work). An exclusive
/// prefix scan with the composite operator ∘ then yields each chunk's true
/// entry state without any sequential pass over the input (the "scan"
/// work). Fills: transition_vectors, entry_states, final_state,
/// has_trailing_record.
///
/// A DFA over the SIMD register budget (Dfa::fits_register_budget) has no
/// state-transition vectors: a single instance walks the chunks in order
/// instead, one transition per byte, and fills entry_states, final_state
/// and has_trailing_record (transition_vectors stays empty). Every later
/// step runs chunk-parallel either way.
class ContextStep {
 public:
  static Status Run(PipelineState* state, StepTimings* timings);
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_CONTEXT_STEP_H_
