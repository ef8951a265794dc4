#include "core/css_index.h"

#include "obs/obs.h"

namespace parparaw {

Status BuildCssIndex(const PipelineState& state, uint32_t column,
                     ScratchVector<FieldEntry>* fields) {
  fields->clear();
  if (state.transpose_mode == TransposeMode::kFieldGather) {
    return Status::Invalid(
        "the field gather builds no CSS index; it writes the columns in "
        "the partition step");
  }
  // Nested inside step.convert, whose interval already covers it: the
  // probe feeds no StepTimings bucket.
  obs::TraceSpan probe(state.options->tracer, "step.css_index", "pipeline",
                       state.options->metrics, "step.css_index_us",
                       obs::Timing::kUntimed);
  if (column >= state.num_partitions) return Status::OK();
  const TaggingMode mode = state.options->tagging_mode;

  const int64_t begin = state.column_css_offsets[column];
  const int64_t end = state.column_css_offsets[column + 1];
  const int64_t n = end - begin;

  if (mode == TaggingMode::kRecordTags) {
    // Run-length encode the record tags: run starts where the tag differs
    // from its predecessor.
    std::vector<int64_t> heads;
    CollectPositions(
        state.pool, n,
        [&](int64_t i) {
          return i == 0 ||
                 state.rec_tags[begin + i] != state.rec_tags[begin + i - 1];
        },
        &heads);
    fields->resize(heads.size());
    for (size_t k = 0; k < heads.size(); ++k) {
      const int64_t start = heads[k];
      const int64_t stop = (k + 1 < heads.size()) ? heads[k + 1] : n;
      (*fields)[k] = FieldEntry{
          static_cast<int64_t>(state.rec_tags[begin + start]), begin + start,
          stop - start};
    }
    obs::AddCount(state.options->metrics, "css_index.fields",
                  static_cast<int64_t>(fields->size()));
    return Status::OK();
  }

  // Inline-terminated / vector-delimited: one terminator slot per field,
  // field k belongs to output row k.
  std::vector<int64_t> ends;
  if (mode == TaggingMode::kInlineTerminated) {
    const uint8_t terminator = state.options->terminator;
    CollectPositions(
        state.pool, n,
        [&](int64_t i) { return state.css[begin + i] == terminator; }, &ends);
  } else {
    CollectPositions(
        state.pool, n, [&](int64_t i) { return state.field_end[begin + i] != 0; },
        &ends);
  }
  fields->resize(ends.size());
  for (size_t k = 0; k < ends.size(); ++k) {
    const int64_t start = (k == 0) ? 0 : ends[k - 1] + 1;
    (*fields)[k] = FieldEntry{static_cast<int64_t>(k), begin + start,
                              ends[k] - start};
  }
  obs::AddCount(state.options->metrics, "css_index.fields",
                static_cast<int64_t>(fields->size()));
  return Status::OK();
}
}  // namespace parparaw
