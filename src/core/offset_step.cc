#include "core/offset_step.h"

#include "obs/obs.h"
#include "parallel/scan.h"

namespace parparaw {

Status OffsetStep::Run(PipelineState* state, StepTimings* timings) {
  obs::TraceSpan probe = StepProbe(*state, "step.offset", "step.offset_us");
  const int64_t num_chunks = state->num_chunks;

  // Record offsets: exclusive prefix sum over the per-chunk record counts.
  std::vector<int64_t> counts(num_chunks);
  for (int64_t c = 0; c < num_chunks; ++c) counts[c] = state->record_counts[c];
  state->record_offsets.assign(num_chunks, 0);
  const int64_t terminated_records = ExclusivePrefixSum(
      state->pool, counts.data(), state->record_offsets.data(), num_chunks);
  state->num_records =
      terminated_records + (state->has_trailing_record ? 1 : 0);

  // Column offsets: exclusive ⊕-scan (identity: relative 0, which matches
  // "column 0 at the very start of the input").
  std::vector<ColumnOffset> scanned(num_chunks);
  ExclusiveScan(state->pool, state->column_offsets.data(), scanned.data(),
                num_chunks, CombineColumnOffsets, ColumnOffset{});
  state->entry_columns.resize(num_chunks);
  for (int64_t c = 0; c < num_chunks; ++c) {
    state->entry_columns[c] = scanned[c].value;
  }
  timings->scan_ms += probe.Stop() * 1e3;
  return Status::OK();
}

}  // namespace parparaw
