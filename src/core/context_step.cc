#include "core/context_step.h"

#include "obs/obs.h"
#include "parallel/scan.h"
#include "simd/simd_kernels.h"

namespace parparaw {

Status ContextStep::Run(PipelineState* state, StepTimings* timings) {
  const Dfa& dfa = state->options->format.dfa;
  const int64_t num_chunks = state->num_chunks;
  obs::TraceSpan span(state->options->tracer, "step.context", "pipeline",
                      static_cast<int64_t>(state->size));

  if (!dfa.fits_register_budget()) {
    // Over the register budget there are no |S|-lane vectors to build and
    // no kernel to run, whatever the requested level: one instance walks
    // the chunks in order and records each one's entry state. The chunk
    // steps after this one run in parallel as for any DFA.
    state->kernel_level = simd::KernelLevel::kScalar;
    obs::TraceSpan walk =
        StepProbe(*state, "step.context.parse", "step.context.parse_us");
    state->entry_states.resize(num_chunks);
    int current = dfa.start_state();
    for (int64_t c = 0; c < num_chunks; ++c) {
      const ChunkRange r = ChunkRangeOf(*state, c);
      state->entry_states[c] = current;
      current = dfa.Run(current, state->data + r.begin, r.end - r.begin);
    }
    state->final_state = current;
    state->has_trailing_record =
        state->options->format.IsMidRecordState(current);
    timings->parse_ms += walk.Stop() * 1e3;
    return Status::OK();
  }

  // Kernel selection (src/simd): the scalar reference path below, or the
  // fused vectorized path that also writes the speculative bitmap masks
  // of each chunk's entry-state-independent suffix.
  simd::KernelLevel level = simd::ResolveKernelLevel(state->options->kernel);
  if (dfa.num_states() == 0) level = simd::KernelLevel::kScalar;
  state->kernel_level = level;

  // Parse: one state-transition vector per chunk (Fig. 3).
  obs::TraceSpan parse =
      StepProbe(*state, "step.context.parse", "step.context.parse_us");
  state->transition_vectors.assign(num_chunks,
                                   StateVector::Identity(dfa.num_states()));
  if (level == simd::KernelLevel::kScalar) {
    PARPARAW_RETURN_NOT_OK(
        ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
          const ChunkRange r = ChunkRangeOf(*state, c);
          state->transition_vectors[c] =
              dfa.TransitionVector(state->data + r.begin, r.end - r.begin);
        }));
  } else {
    state->kernel_plan =
        std::make_shared<simd::KernelPlan>(simd::BuildKernelPlan(dfa));
    // Each chunk's kernel writes the masks of its converged suffix and the
    // bitmap step the rest (the word-ownership rule at SymbolIndex).
    PARPARAW_RETURN_NOT_OK(AllocateSymbolIndex(state, "alloc.context"));
    state->spec_offsets.assign(num_chunks, -1);
    state->spec_states.assign(num_chunks, 0);
    state->spec_invalids.assign(num_chunks, -1);
    const simd::ChunkKernelFn kernel = simd::GetChunkKernel(level);
    const simd::KernelPlan& plan = *state->kernel_plan;

    // Hot-path instruments resolved once (name lookup takes a mutex).
    obs::MetricsRegistry* metrics = state->options->metrics;
    obs::Counter* converged_counter = nullptr;
    obs::Counter* unconverged_counter = nullptr;
    obs::Histogram* fastpath_bytes = nullptr;
    if (metrics != nullptr && metrics->enabled()) {
      converged_counter = metrics->GetCounter("simd.chunks_converged");
      unconverged_counter = metrics->GetCounter("simd.chunks_unconverged");
      fastpath_bytes = metrics->GetHistogram("simd.fastpath_bytes");
      metrics->SetGauge("simd.kernel_level", static_cast<int64_t>(level));
    }

    PARPARAW_RETURN_NOT_OK(
        ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
      const ChunkRange r = ChunkRangeOf(*state, c);
      const simd::ChunkKernelResult result = kernel(
          plan, state->data, r.begin, r.end, state->symbol_index.data());
      state->transition_vectors[c] = result.vector;
      state->spec_offsets[c] = result.spec_offset;
      state->spec_states[c] = result.spec_state;
      state->spec_invalids[c] = result.first_invalid;
      if (result.spec_offset >= 0) {
        if (converged_counter != nullptr) converged_counter->Increment();
        if (fastpath_bytes != nullptr) {
          fastpath_bytes->Record(static_cast<int64_t>(r.end) -
                                 result.spec_offset);
        }
      } else if (unconverged_counter != nullptr) {
        unconverged_counter->Increment();
      }
    }));
  }
  timings->parse_ms += parse.Stop() * 1e3;

  // Scan: exclusive prefix scan with the composite operator, seeded with
  // the identity vector. Entry i of chunk c's scanned vector is the state
  // the DFA is in at c's start, had the sequential DFA started in state i.
  obs::TraceSpan scan =
      StepProbe(*state, "step.context.scan", "step.context.scan_us");
  std::vector<StateVector> scanned(num_chunks,
                                   StateVector::Identity(dfa.num_states()));
  ExclusiveScan(
      state->pool, state->transition_vectors.data(), scanned.data(),
      num_chunks,
      [](const StateVector& a, const StateVector& b) { return Compose(a, b); },
      StateVector::Identity(dfa.num_states()));

  state->entry_states.resize(num_chunks);
  const int start = dfa.start_state();
  for (int64_t c = 0; c < num_chunks; ++c) {
    state->entry_states[c] = scanned[c].Get(start);
  }
  if (num_chunks > 0) {
    const StateVector last =
        Compose(scanned[num_chunks - 1], state->transition_vectors[num_chunks - 1]);
    state->final_state = last.Get(start);
  } else {
    state->final_state = start;
  }
  state->has_trailing_record =
      state->options->format.IsMidRecordState(state->final_state);
  timings->scan_ms += scan.Stop() * 1e3;
  return Status::OK();
}

}  // namespace parparaw
