#include "core/partition_step.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/field_walk.h"
#include "obs/obs.h"
#include "parallel/radix_sort.h"
#include "robust/failpoint.h"
#include "robust/resource_guard.h"
#include "util/bit_util.h"

namespace parparaw {

namespace {

// Copies the value bytes of the window [begin, end) to `out`, at most
// `length` of them: the runs between its record and control bits, one
// memcpy each.
void CopyValueRuns(const simd::SymbolMasks* index, const uint8_t* data,
                   int64_t begin, int64_t end, uint8_t* out, int64_t length) {
  int64_t s = begin;
  while (s < end && length > 0) {
    // The first record or control bit at or after s, or end.
    size_t w = static_cast<size_t>(s) >> 6;
    uint64_t stops = (index[w].record | index[w].control) &
                     ~simd::BitRange(0, static_cast<unsigned>(s & 63));
    while (stops == 0 && static_cast<int64_t>(64 * (w + 1)) < end) {
      ++w;
      stops = index[w].record | index[w].control;
    }
    const int64_t stop =
        stops == 0 ? end
                   : std::min<int64_t>(end, static_cast<int64_t>(64 * w) +
                                                std::countr_zero(stops));
    const int64_t run = std::min(stop - s, length);
    std::memcpy(out, data + s, static_cast<size_t>(run));
    out += run;
    length -= run;
    s = stop + 1;
  }
}

// Deterministic model of the transposition phase's peak resident bytes,
// derived from container sizes rather than allocator introspection so it is
// identical across platforms and runs. Symbol sort: the CSS, the per-symbol
// tag sidebands, the permutation, and the sort's key/payload scratch all
// live at once at the final scatter. Field gather: the bucketed entries with
// their offsets, and the final CSS.
int64_t ModelTransposePeakBytes(const PipelineState& state) {
  if (state.transpose_mode == TransposeMode::kFieldGather) {
    return static_cast<int64_t>(
        state.gather_entries.size() * sizeof(FieldEntry) +
        state.gather_entry_offsets.size() * sizeof(int64_t) +
        state.css.size());
  }
  const int64_t n = static_cast<int64_t>(state.css.size());
  const int64_t sideband =
      static_cast<int64_t>(state.col_tags.size()) * 4 +
      static_cast<int64_t>(state.rec_tags.size()) * 4 +
      static_cast<int64_t>(state.field_end.size());
  // css + sidebands + permutation + radix scratch + sorted-key copy +
  // sorted-payload copy.
  return n + sideband + n * 4 + n * 4 + n * 4 + n;
}

// One stable partitioning pass at field granularity (§3.3): the tag step's
// per-(tile, column) histogram of kept fields and CSS slot bytes is scanned
// bucket-major then tile-major into write cursors (the same stability
// argument as the radix sort's), then each tile walks its fields again
// (ForEachField) and copies each kept field's value bytes into its
// column's CSS with one memcpy — or one per run between the control bytes
// (quotes, escapes) inside the field.
Status RunFieldGather(PipelineState* state, WorkCounters* work) {
  const ParseOptions& options = *state->options;
  const TaggingMode mode = options.tagging_mode;
  const int64_t slot = mode != TaggingMode::kRecordTags ? 1 : 0;
  const uint32_t num_partitions = state->num_partitions;
  state->permutation.clear();

  if (num_partitions == 0) {
    state->column_histogram.assign(num_partitions, 0);
    state->column_css_offsets.assign(num_partitions + 1, 0);
    state->gather_entries.clear();
    state->gather_entry_offsets.assign(num_partitions + 1, 0);
    return Status::OK();
  }

  // The entry/CSS buffers are the gather's big allocations; the failpoint
  // models them failing (GuardedResize re-checks it per buffer).
  PARPARAW_FAILPOINT("alloc.gather");

  // (1) Bucket-major then tile-major exclusive scan, turning the per-tile
  // counts into stable write cursors in place and yielding the per-column
  // totals the CSS offsets come from (the gather's equivalent of the sort
  // histogram).
  const int64_t num_tiles =
      static_cast<int64_t>(state->gather_tiles.size()) - 1;
  GatherTally* tallies = state->gather_tallies.data();
  state->column_histogram.assign(num_partitions, 0);
  state->column_css_offsets.assign(num_partitions + 1, 0);
  PARPARAW_RETURN_NOT_OK(robust::GuardedAssign(
      "alloc.gather", &state->gather_entry_offsets,
      static_cast<size_t>(num_partitions) + 1, int64_t{0}));
  int64_t entry_running = 0;
  int64_t byte_running = 0;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    state->gather_entry_offsets[p] = entry_running;
    state->column_css_offsets[p] = byte_running;
    for (int64_t t = 0; t < num_tiles; ++t) {
      GatherTally& at = tallies[t * num_partitions + p];
      const GatherTally count = at;
      at = GatherTally{entry_running, byte_running};
      entry_running += count.fields;
      byte_running += count.bytes;
    }
    state->column_histogram[p] =
        static_cast<uint64_t>(byte_running - state->column_css_offsets[p]);
  }
  state->gather_entry_offsets[num_partitions] = entry_running;
  state->column_css_offsets[num_partitions] = byte_running;

  // (2) Stable scatter + whole-field gather copy.
  PARPARAW_RETURN_NOT_OK(robust::GuardedResize(
      "alloc.gather", &state->gather_entries,
      static_cast<size_t>(entry_running)));
  PARPARAW_RETURN_NOT_OK(robust::GuardedResize(
      "alloc.gather", &state->css, static_cast<size_t>(byte_running)));
  const KeptFields kept(*state);
  const uint8_t* data = state->data;
  const int64_t size = static_cast<int64_t>(state->size);
  const simd::SymbolMasks* index = state->symbol_index.data();
  uint8_t* css = state->css.data();
  FieldEntry* entries = state->gather_entries.data();
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_tiles, [&](int64_t t) {
        GatherTally* cursor = tallies + t * num_partitions;
        for (int64_t c = state->gather_tiles[t];
             c < state->gather_tiles[t + 1]; ++c) {
          ForEachField(*state, c, [&](const FieldSpan& field) {
            if (!kept(field.record, field.column)) return;
            GatherTally& at = cursor[field.column];
            const int64_t out = at.bytes;
            // The copy window extends over an inclusive boundary, the
            // field's last value byte.
            const int64_t copy_end = field.end + (field.inclusive ? 1 : 0);
            if (copy_end - field.begin == field.length) {
              std::memcpy(css + out, data + field.begin,
                          static_cast<size_t>(field.length));
            } else {
              CopyValueRuns(index, data, field.begin, copy_end, css + out,
                            field.length);
            }
            if (slot != 0) {
              // The terminator slot the per-symbol path emits at each field
              // end: the terminator byte inline, the delimiter byte itself
              // in the vector mode (the trailing record's virtual end uses
              // the format's record delimiter).
              css[out + field.length] =
                  mode == TaggingMode::kInlineTerminated
                      ? options.terminator
                      : (field.end < size ? data[field.end]
                                          : options.format.record_delimiter);
            }
            entries[at.fields++] = FieldEntry{
                state->out_row_of_record[field.record], out, field.length};
            at.bytes = out + field.length + slot;
          });
        }
      }));

  // CSS bytes plus the FieldEntry written per kept field.
  const int64_t bytes_moved =
      byte_running + entry_running * static_cast<int64_t>(sizeof(FieldEntry));
  work->sort_passes += 1;
  work->sort_bytes_moved += bytes_moved;
  obs::AddCount(state->options->metrics, "partition.sort_bytes_moved",
                bytes_moved);
  return Status::OK();
}

}  // namespace

Status PartitionStep::Run(PipelineState* state, StepTimings* timings,
                          WorkCounters* work) {
  obs::TraceSpan probe =
      StepProbe(*state, "step.partition", "step.partition_us",
                static_cast<int64_t>(state->css.size()));

  if (state->transpose_mode == TransposeMode::kFieldGather) {
    PARPARAW_RETURN_NOT_OK(RunFieldGather(state, work));
    work->transpose_peak_bytes = std::max(work->transpose_peak_bytes,
                                          ModelTransposePeakBytes(*state));
    probe.set_bytes(static_cast<int64_t>(state->css.size()));
    timings->partition_ms += probe.Stop() * 1e3;
    return Status::OK();
  }

  const int64_t n = static_cast<int64_t>(state->css.size());
  if (n == 0 || state->num_partitions == 0) {
    state->column_histogram.assign(state->num_partitions, 0);
    state->column_css_offsets.assign(state->num_partitions + 1, 0);
    timings->partition_ms += probe.Stop() * 1e3;
    return Status::OK();
  }

  // The sort's scratch buffers (key + payload copies per pass) are the
  // partition step's big allocations; the failpoint models them failing.
  PARPARAW_FAILPOINT("alloc.partition");

  RadixSortOptions sort_options;
  PARPARAW_RETURN_NOT_OK(StableRadixSortWithHistogram(
      state->pool, &state->col_tags, &state->permutation,
      state->num_partitions, &state->column_histogram, sort_options));

  // Move the symbols and their side arrays along with the sort key (§3.3:
  // "the symbols and the record-tags are moved along with the associated
  // sort-key").
  ScratchVector<uint8_t> sorted_css;
  ApplyPermutation(state->pool, state->permutation, state->css, &sorted_css);
  state->css = std::move(sorted_css);
  int64_t bytes_moved = n * (1 + 4);  // symbol + key per pass output
  if (!state->rec_tags.empty()) {
    std::vector<uint32_t> sorted_tags;
    ApplyPermutation(state->pool, state->permutation, state->rec_tags,
                     &sorted_tags);
    state->rec_tags = std::move(sorted_tags);
    bytes_moved += n * 4;
  }
  if (!state->field_end.empty()) {
    std::vector<uint8_t> sorted_end;
    ApplyPermutation(state->pool, state->permutation, state->field_end,
                     &sorted_end);
    state->field_end = std::move(sorted_end);
    bytes_moved += n;
  }

  // The histogram's exclusive prefix sum locates every column's CSS.
  state->column_css_offsets.assign(state->num_partitions + 1, 0);
  for (uint32_t p = 0; p < state->num_partitions; ++p) {
    state->column_css_offsets[p + 1] =
        state->column_css_offsets[p] +
        static_cast<int64_t>(state->column_histogram[p]);
  }

  const int sort_passes =
      state->num_partitions > 1
          ? (bit_util::Log2Floor(state->num_partitions - 1) + 8) / 8
          : 1;
  work->sort_passes += sort_passes;
  work->sort_bytes_moved += bytes_moved * sort_passes;
  work->transpose_peak_bytes = std::max(work->transpose_peak_bytes,
                                        ModelTransposePeakBytes(*state));
  timings->partition_ms += probe.Stop() * 1e3;
  obs::AddCount(state->options->metrics, "partition.sort_bytes_moved",
                bytes_moved * sort_passes);
  return Status::OK();
}

}  // namespace parparaw
