#include "core/css_index.h"

#include "obs/obs.h"

namespace parparaw {

Status BuildCssIndex(const PipelineState& state, uint32_t column,
                     ScratchVector<FieldEntry>* storage,
                     std::span<const FieldEntry>* fields) {
  // Nested inside step.convert, whose interval already covers it: the
  // probe feeds no StepTimings bucket.
  obs::TraceSpan probe(state.options->tracer, "step.css_index", "pipeline",
                       state.options->metrics, "step.css_index_us",
                       obs::Timing::kUntimed);
  *fields = {};
  if (column >= state.num_partitions) return Status::OK();
  const TaggingMode mode = state.options->tagging_mode;

  if (state.transpose_mode == TransposeMode::kFieldGather) {
    // The partition step already bucketed the field entries by column with
    // offsets relative to the global CSS; slicing them is the whole index.
    const int64_t entry_begin = state.gather_entry_offsets[column];
    const int64_t count = state.gather_entry_offsets[column + 1] - entry_begin;
    const std::span<const FieldEntry> slice(
        state.gather_entries.data() + entry_begin, static_cast<size_t>(count));
    *fields = slice;
    if (mode == TaggingMode::kRecordTags) {
      // Parity with the run-length encoding of the record tags: an empty
      // field contributes no symbols, hence no run — the convert step
      // fills it from defaults (§4.3). A column without empty fields keeps
      // the in-place slice.
      bool all_kept = false;
      ParallelCompact(
          state.pool, count,
          [&slice](int64_t k) { return slice[k].length != 0; },
          [&slice](int64_t k) { return slice[k]; }, storage, &all_kept);
      if (!all_kept) *fields = *storage;
    } else if (count != state.num_out_rows) {
      return Status::ParseError(
          "column " + std::to_string(column) + " has " +
          std::to_string(count) + " fields for " +
          std::to_string(state.num_out_rows) +
          " records; inconsistent column counts require the record-tag "
          "mode or the reject policy");
    }
    obs::AddCount(state.options->metrics, "css_index.fields",
                  static_cast<int64_t>(fields->size()));
    return Status::OK();
  }

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
    storage->resize(heads.size());
    for (size_t k = 0; k < heads.size(); ++k) {
      const int64_t start = heads[k];
      const int64_t stop = (k + 1 < heads.size()) ? heads[k + 1] : n;
      (*storage)[k] = FieldEntry{
          static_cast<int64_t>(state.rec_tags[begin + start]), begin + start,
          stop - start};
    }
    *fields = *storage;
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
  if (static_cast<int64_t>(ends.size()) != state.num_out_rows) {
    return Status::ParseError(
        "column " + std::to_string(column) + " has " +
        std::to_string(ends.size()) + " fields for " +
        std::to_string(state.num_out_rows) +
        " records; inconsistent column counts require the record-tag mode "
        "or the reject policy");
  }
  storage->resize(ends.size());
  for (size_t k = 0; k < ends.size(); ++k) {
    const int64_t start = (k == 0) ? 0 : ends[k - 1] + 1;
    (*storage)[k] = FieldEntry{static_cast<int64_t>(k), begin + start,
                               ends[k] - start};
  }
  *fields = *storage;
  obs::AddCount(state.options->metrics, "css_index.fields",
                static_cast<int64_t>(fields->size()));
  return Status::OK();
}

Status BuildCssIndex(const PipelineState& state, uint32_t column,
                     std::vector<FieldEntry>* fields) {
  fields->clear();
  ScratchVector<FieldEntry> storage;
  std::span<const FieldEntry> view;
  PARPARAW_RETURN_NOT_OK(BuildCssIndex(state, column, &storage, &view));
  fields->assign(view.begin(), view.end());
  return Status::OK();
}

}  // namespace parparaw
