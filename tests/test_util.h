#ifndef PARPARAW_TESTS_TEST_UTIL_H_
#define PARPARAW_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "core/bitmap_step.h"
#include "core/context_step.h"
#include "core/convert_step.h"
#include "core/offset_step.h"
#include "core/partition_step.h"
#include "core/tag_step.h"
#include "dfa/formats.h"
#include "util/bit_util.h"

namespace parparaw {

/// Byte i's SymbolFlags, read back from the three masks of the index.
inline uint8_t FlagsAt(const SymbolIndex& index, size_t i) {
  const simd::SymbolMasks& m = index[i / 64];
  const unsigned b = static_cast<unsigned>(i % 64);
  return static_cast<uint8_t>(
      (((m.record >> b) & 1) != 0 ? kSymbolRecordDelimiter : 0) |
      (((m.field >> b) & 1) != 0 ? kSymbolFieldDelimiter : 0) |
      (((m.control >> b) & 1) != 0 ? kSymbolControl : 0));
}

/// Replaces the verification token of every chunk whose kernel wrote masks
/// (converged or speculated) with a state no walk can arrive in, so the
/// bitmap step must detect a mis-speculation and re-walk each such suffix.
/// Returns how many tokens it replaced.
inline int64_t CorruptSpeculationTokens(PipelineState* state) {
  const auto impossible =
      static_cast<uint8_t>(state->options->format.dfa.num_states());
  int64_t corrupted = 0;
  for (size_t c = 0; c < state->spec_offsets.size(); ++c) {
    if (state->spec_offsets[c] < 0) continue;
    state->spec_states[c] = impossible;
    ++corrupted;
  }
  return corrupted;
}

/// Drives the pipeline steps one by one over `input`, so tests can inspect
/// intermediate state. The fixture owns the input and options; `state`
/// holds borrowed pointers into them.
struct StepHarness {
  std::string input;
  ParseOptions options;
  PipelineState state;
  StepTimings timings;
  WorkCounters work;

  static std::unique_ptr<StepHarness> Make(std::string input_in,
                                           ParseOptions options_in) {
    auto h = std::make_unique<StepHarness>();
    h->input = std::move(input_in);
    h->options = std::move(options_in);
    if (h->options.format.dfa.num_states() == 0) {
      auto format = Rfc4180Format();
      if (!format.ok()) return nullptr;
      h->options.format = *std::move(format);
    }
    if (h->options.pool == nullptr) h->options.pool = ThreadPool::Default();
    // Step-level tests bypass StagedParse's auto-sentinel resolution, so
    // resolve chunk/tagging the same way it does.
    if (h->options.chunk_size == 0) h->options.chunk_size = 31;
    h->options.tagging_mode = EffectiveTaggingMode(h->options);
    h->state.data = reinterpret_cast<const uint8_t*>(h->input.data());
    h->state.size = h->input.size();
    h->state.options = &h->options;
    h->state.pool = h->options.pool;
    h->state.num_chunks = static_cast<int64_t>(
        bit_util::CeilDiv(h->input.size(), h->options.chunk_size));
    return h;
  }

  Status RunContext() { return ContextStep::Run(&state, &timings); }
  Status RunThroughBitmaps() {
    PARPARAW_RETURN_NOT_OK(RunContext());
    return BitmapStep::Run(&state, &timings);
  }
  Status RunThroughOffsets() {
    PARPARAW_RETURN_NOT_OK(RunThroughBitmaps());
    return OffsetStep::Run(&state, &timings);
  }
  Status RunThroughTagging() {
    PARPARAW_RETURN_NOT_OK(RunThroughOffsets());
    return TagStep::Run(&state, &timings);
  }
  Status RunThroughPartition() {
    PARPARAW_RETURN_NOT_OK(RunThroughTagging());
    return PartitionStep::Run(&state, &timings, &work);
  }
};

}  // namespace parparaw

#endif  // PARPARAW_TESTS_TEST_UTIL_H_
