#include "core/bitmap_step.h"

#include <algorithm>
#include <atomic>

#include "obs/obs.h"
#include "simd/simd_kernels.h"

namespace parparaw {

Status BitmapStep::Run(PipelineState* state, StepTimings* timings) {
  obs::TraceSpan probe = StepProbe(*state, "step.bitmap", "step.bitmap_us",
                                   static_cast<int64_t>(state->size));
  const Dfa& dfa = state->options->format.dfa;
  const int64_t num_chunks = state->num_chunks;
  const int invalid = dfa.invalid_state();

  state->record_counts.assign(num_chunks, 0);
  state->column_offsets.assign(num_chunks, ColumnOffset{});
  std::atomic<int64_t> first_invalid{-1};

  // Records the earliest invalid transition across all chunks.
  auto record_invalid = [&first_invalid](int64_t offset) {
    int64_t expected = first_invalid.load(std::memory_order_relaxed);
    while ((expected == -1 || offset < expected) &&
           !first_invalid.compare_exchange_weak(expected, offset,
                                                std::memory_order_relaxed)) {
    }
  };

  const bool fused =
      state->kernel_level != simd::KernelLevel::kScalar &&
      state->kernel_plan != nullptr &&
      state->spec_offsets.size() == static_cast<size_t>(num_chunks);

  if (fused) {
    // The context step's fused kernel already wrote the masks of every
    // chunk suffix from its spec_offset on, from the converged or guessed
    // state; this pass walks only each chunk's prefix from the now-known
    // entry state, verifies the speculation token, and counts the rest
    // from the written masks. A token mismatch (mis-speculation) falls
    // back to re-walking the suffix — results are then still exact.
    const simd::KernelPlan& plan = *state->kernel_plan;
    const simd::FlagWalkFn walk = simd::GetFlagWalk(state->kernel_level);
    obs::Counter* mis_speculations = nullptr;
    if (state->options->metrics != nullptr &&
        state->options->metrics->enabled()) {
      mis_speculations =
          state->options->metrics->GetCounter("simd.mis_speculations");
    }
    PARPARAW_RETURN_NOT_OK(
        ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
      const auto [begin, end] = ChunkRangeOf(*state, c);
      const int64_t spec = state->spec_offsets[c];
      const size_t pre_end =
          spec >= 0 ? std::min(static_cast<size_t>(spec), end) : end;
      simd::FlagWalkResult head = walk(
          plan, state->data, begin, pre_end,
          static_cast<uint8_t>(state->entry_states[c]),
          state->symbol_index.data());
      uint32_t records = head.records;
      uint32_t fields_since_record = head.fields_since_record;
      bool saw_record_delim = head.saw_record_delimiter;
      int64_t chunk_invalid = head.first_invalid;
      if (spec >= 0) {
        simd::FlagWalkResult tail;
        int64_t tail_invalid;
        if (head.end_state == state->spec_states[c]) {
          // Speculation verified: the already-written masks are exact.
          tail = simd::CountEmittedFlags(state->symbol_index.data(), pre_end,
                                         end);
          tail_invalid = state->spec_invalids[c];
        } else {
          // Mis-speculation detected: rewrite the suffix's bits from the
          // verified state, clearing the speculative ones.
          if (mis_speculations != nullptr) mis_speculations->Increment();
          tail = walk(plan, state->data, pre_end, end, head.end_state,
                      state->symbol_index.data());
          tail_invalid = tail.first_invalid;
        }
        records += tail.records;
        if (tail.saw_record_delimiter) {
          fields_since_record = tail.fields_since_record;
          saw_record_delim = true;
        } else {
          fields_since_record += tail.fields_since_record;
        }
        if (chunk_invalid < 0) chunk_invalid = tail_invalid;
      }
      state->record_counts[c] = records;
      state->column_offsets[c] =
          ColumnOffset{fields_since_record, saw_record_delim};
      if (chunk_invalid >= 0) record_invalid(chunk_invalid);
    }));
  } else {
    // Every chunk writes each bit of its range (the word-ownership rule at
    // SymbolIndex).
    PARPARAW_RETURN_NOT_OK(AllocateSymbolIndex(state, "alloc.bitmap"));
    PARPARAW_RETURN_NOT_OK(
        ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
      const auto [begin, end] = ChunkRangeOf(*state, c);
      simd::MaskWriter out(state->symbol_index.data(), begin, end);
      int current = state->entry_states[c];
      uint32_t records = 0;
      uint32_t fields_since_record = 0;
      bool saw_record_delim = false;
      for (size_t i = begin; i < end; ++i) {
        const int group = dfa.SymbolGroup(state->data[i]);
        const uint8_t flags = dfa.Flags(current, group);
        const int next = dfa.NextState(current, group);
        out.Set(i, flags);
        if (flags & kSymbolRecordDelimiter) {
          ++records;
          fields_since_record = 0;
          saw_record_delim = true;
        } else if (flags & kSymbolFieldDelimiter) {
          ++fields_since_record;
        }
        if (invalid >= 0 && next == invalid && current != invalid) {
          record_invalid(static_cast<int64_t>(i));
        }
        current = next;
      }
      out.Finish();
      state->record_counts[c] = records;
      state->column_offsets[c] = ColumnOffset{fields_since_record,
                                              saw_record_delim};
    }));
  }

  state->first_invalid_offset = first_invalid.load();
  timings->tag_ms += probe.Stop() * 1e3;

  if (state->options->validate && state->first_invalid_offset >= 0) {
    return Status::ParseError(
        "invalid symbol at byte offset " +
        std::to_string(state->first_invalid_offset));
  }
  if (state->options->validate &&
      !dfa.IsAccepting(state->final_state)) {
    return Status::ParseError("input ends in non-accepting state '" +
                              dfa.state_name(state->final_state) + "'");
  }
  return Status::OK();
}

}  // namespace parparaw
