#include "core/partition_step.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/field_walk.h"
#include "obs/obs.h"
#include "parallel/radix_sort.h"
#include "robust/failpoint.h"
#include "robust/resource_guard.h"
#include "util/bit_util.h"

namespace parparaw {

namespace {

// Deterministic model of the transposition phase's peak resident bytes,
// derived from container sizes rather than allocator introspection so it is
// identical across platforms and runs. Symbol sort: the CSS, the per-symbol
// tag sidebands, the permutation, and the sort's key/payload scratch all
// live at once at the final scatter. Field gather: the output columns its
// walk fills, and the tallies.
int64_t ModelTransposePeakBytes(const PipelineState& state) {
  if (state.transpose_mode == TransposeMode::kFieldGather) {
    int64_t bytes =
        static_cast<int64_t>(state.gather_tallies.size() * sizeof(int64_t));
    for (const Column& column : state.gathered_columns) {
      bytes += column.TotalBufferBytes();
    }
    return bytes;
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

// A value longer than device_collaboration_threshold, which the walk
// defers to a device-wide copy of its own (§3.3): contiguous bytes
// (`src`: a clean input window or a default), or the value runs of the
// input window [begin, end) when it holds control bytes.
struct DeferredCopy {
  uint8_t* dst = nullptr;
  const uint8_t* src = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t length = 0;
};

// Device-level copy of a window's value runs: the window is cut into
// pieces, each piece counts its value bytes (the bytes with no record or
// control bit) by popcount, and an exclusive scan of the counts gives every
// piece its output offset, so the pieces copy their runs in parallel.
Status CopyValueRunsDeviceLevel(const PipelineState& state,
                                const DeferredCopy& copy) {
  const int64_t window = copy.end - copy.begin;
  const int64_t runners =
      state.pool != nullptr ? state.pool->num_threads() + 1 : 1;
  const int64_t pieces = std::max<int64_t>(
      1, std::min<int64_t>(4 * runners, window / 4096));
  const auto piece_begin = [&](int64_t i) {
    return copy.begin + i * window / pieces;
  };
  const simd::SymbolMasks* index = state.symbol_index.data();
  std::vector<int64_t> counts(static_cast<size_t>(pieces), 0);
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state.pool, 0, pieces, [&](int64_t i) {
        const int64_t b = piece_begin(i);
        const int64_t e = piece_begin(i + 1);
        int64_t stops = 0;
        simd::ForEachMaskWord(static_cast<size_t>(b), static_cast<size_t>(e),
                              [&](size_t w, uint64_t keep) {
                                stops += std::popcount(
                                    (index[w].record | index[w].control) &
                                    keep);
                              });
        counts[i] = e - b - stops;
      }));
  std::vector<int64_t> offsets(static_cast<size_t>(pieces), 0);
  for (int64_t i = 1; i < pieces; ++i) {
    offsets[i] = offsets[i - 1] + counts[i - 1];
  }
  return ParallelForEach(state.pool, 0, pieces, [&](int64_t i) {
    CopyValueRuns(index, state.data, piece_begin(i), piece_begin(i + 1),
                  copy.dst + offsets[i], counts[i]);
  });
}

// Marks rows [0, rows) of `column` valid: the walk clears the NULL rows'
// bits, atomically, because rows of neighbouring tiles share words.
void PresetValid(Column* column, int64_t rows) {
  std::vector<uint64_t>& words = *column->mutable_validity_words();
  std::fill(words.begin(), words.end(), ~uint64_t{0});
  if (rows % 64 != 0) words.back() = (uint64_t{1} << (rows % 64)) - 1;
}

// One output column's buffers, as the walk writes them.
struct ColumnWriter {
  uint8_t* slots = nullptr;    // fixed-width values
  int width = 0;
  int64_t* offsets = nullptr;  // string offsets
  uint8_t* bytes = nullptr;    // string values
  uint64_t* validity = nullptr;
};

// The field gather's walk: §3.3's transposition at field granularity,
// with value generation folded in. The tag step's per-(tile, column) byte
// tallies are scanned column-major then tile-major into write cursors (the
// same stability argument as the radix sort's), every output column is
// allocated once, and each tile walks the kept columns' fields
// (ForEachField) and writes every value straight into its column: a string
// value's bytes at its column's cursor, which is the row's offset, a
// fixed-width value parsed from its input window. Empty and missing fields
// take their default, NULL or reject in the same walk (the value rule,
// core/column_plan.h).
Status RunFieldGather(PipelineState* state, WorkCounters* work) {
  const ParseOptions& options = *state->options;
  const std::vector<ColumnPlan>& plans = state->column_plans;
  const int64_t num_plans = static_cast<int64_t>(plans.size());
  const int64_t rows = state->num_out_rows;
  const int64_t num_tiles =
      static_cast<int64_t>(state->gather_tiles.size()) - 1;
  state->permutation.clear();
  state->column_histogram.clear();
  state->column_css_offsets.clear();

  // The output columns are the gather's big allocations; the failpoint
  // models them failing (the string buffers check `alloc.convert` too).
  PARPARAW_FAILPOINT("alloc.gather");

  // (1) Column-major then tile-major exclusive scan, turning each tile's
  // tally into its write cursor in place and yielding every string
  // column's byte total.
  int64_t* tallies = state->gather_tallies.data();
  std::vector<int64_t> column_bytes(static_cast<size_t>(num_plans), 0);
  for (int64_t p = 0; p < num_plans; ++p) {
    int64_t running = 0;
    for (int64_t t = 0; t < num_tiles; ++t) {
      int64_t& at = tallies[t * num_plans + p];
      const int64_t count = at;
      at = running;
      running += count;
    }
    column_bytes[p] = running;
  }

  // (2) The output columns, every row preset valid. The string buffers'
  // failpoints fire in column order, as one guarded allocation after
  // another would; the allocations and fills then run one column per
  // morsel.
  state->gathered_columns.clear();
  state->gathered_columns.reserve(static_cast<size_t>(num_plans));
  int64_t bytes_written = 0;
  for (int64_t p = 0; p < num_plans; ++p) {
    state->gathered_columns.emplace_back(plans[p].field.type);
    if (plans[p].is_string()) {
      PARPARAW_FAILPOINT("alloc.convert");
      bytes_written += column_bytes[p] + (rows + 1) * 8;
    } else {
      bytes_written += rows * FixedWidth(plans[p].field.type.id);
    }
  }
  std::vector<ColumnWriter> writers(static_cast<size_t>(num_plans));
  std::vector<Status> allocated(static_cast<size_t>(num_plans));
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_plans, [&](int64_t p) {
        Column& column = state->gathered_columns[p];
        try {
          column.Allocate(rows);
        } catch (const std::bad_alloc&) {
          allocated[p] = Status::ResourceExhausted(
              "allocation of " + std::to_string(rows) +
              " rows failed at 'alloc.gather'");
          return;
        }
        PresetValid(&column, rows);
        ColumnWriter& writer = writers[p];
        writer.validity = column.mutable_validity_words()->data();
        if (!plans[p].is_string()) {
          writer.slots = column.mutable_data()->data();
          writer.width = FixedWidth(plans[p].field.type.id);
          return;
        }
        // The zero-fill is the buffer's first write, on huge pages when
        // the buffer is large (util/huge_pages.h).
        allocated[p] = robust::AssignOrExhausted(
            "alloc.convert", column.mutable_string_data(),
            static_cast<size_t>(column_bytes[p]), uint8_t{0});
        if (!allocated[p].ok()) return;
        (*column.mutable_offsets())[rows] = column_bytes[p];
        writer.offsets = column.mutable_offsets()->data();
        writer.bytes = column.mutable_string_data()->data();
      }));
  for (const Status& status : allocated) PARPARAW_RETURN_NOT_OK(status);

  // (3) The walk. Tiles write disjoint rows' slots and offsets and
  // disjoint byte ranges; only validity words are shared.
  const KeptFields kept(*state);
  const PlanIndex plan_index(plans);
  // The kept columns, which a query's phase 1 or skip_columns make fewer
  // than all: the walk jumps over the others.
  const WantedColumns wanted = WantedColumns::OfPlans(
      plans, [](const ColumnPlan&) { return true; });
  const uint8_t* data = state->data;
  const size_t block_threshold = options.block_collaboration_threshold;
  const int64_t device_threshold =
      static_cast<int64_t>(options.device_collaboration_threshold);
  state->gather_rejects.assign(static_cast<size_t>(num_tiles), {});
  std::vector<std::vector<DeferredCopy>> deferred(
      static_cast<size_t>(num_tiles));
  std::vector<int64_t> tile_value_bytes(static_cast<size_t>(num_tiles), 0);
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_tiles, [&](int64_t t) {
        int64_t* cursor = tallies + t * num_plans;
        std::vector<RowReject>& rejects = state->gather_rejects[t];
        std::vector<DeferredCopy>& defer = deferred[t];
        std::string scratch;
        int64_t value_bytes = 0;
        int64_t record = -1;
        bool record_kept = false;
        int64_t row = 0;

        const auto settle = [&](int64_t p, const ValueOutcome& outcome) {
          if (!outcome.valid) {
            std::atomic_ref<uint64_t>(writers[p].validity[row >> 6])
                .fetch_and(~(uint64_t{1} << (row & 63)),
                           std::memory_order_relaxed);
          }
          if (outcome.reject != kNotRejected) {
            rejects.push_back(RowReject{
                row, static_cast<int32_t>(plans[p].source), outcome.reject});
          }
        };
        // Contiguous bytes at one of the three collaboration levels.
        const auto copy = [&](uint8_t* dst, const uint8_t* src,
                              int64_t length) {
          if (length > device_threshold) {
            defer.push_back(DeferredCopy{dst, src, 0, 0, length});
          } else {
            CopyBlockLevel(dst, src, length, block_threshold);
          }
        };
        // A string row: the field's value, or the default when the field is
        // empty or missing, at the column's cursor.
        const auto put_string = [&](int64_t p, FieldPresence presence,
                                    const FieldSpan* field) {
          const ColumnPlan& plan = plans[p];
          ColumnWriter& writer = writers[p];
          const int64_t at = cursor[p];
          uint8_t* dst = writer.bytes + at;
          writer.offsets[row] = at;
          if (presence == FieldPresence::kValue) {
            if (field->contiguous()) {
              copy(dst, data + field->begin, field->length);
            } else if (field->length > device_threshold) {
              defer.push_back(DeferredCopy{dst, nullptr, field->begin,
                                           field->window_end(),
                                           field->length});
            } else {
              CopyFieldValue(*state, *field, dst);
            }
          } else if (!plan.default_string().empty()) {
            const std::string_view value = plan.default_string();
            copy(dst, reinterpret_cast<const uint8_t*>(value.data()),
                 static_cast<int64_t>(value.size()));
          }
          cursor[p] = at + StringLength(plan, presence,
                                        field != nullptr ? field->length : 0);
          settle(p, StringOutcome(plan, presence));
        };
        const auto put_fixed = [&](int64_t p, std::string_view value) {
          ColumnWriter& writer = writers[p];
          settle(p, ConvertFixed(plans[p], value,
                                 writer.slots + row * writer.width));
        };

        // Moves the walk to `field_record`: whether it is kept, its row.
        const auto enter = [&](int64_t field_record) {
          if (field_record == record) return record_kept;
          record = field_record;
          record_kept = kept.record_kept(record);
          if (record_kept) row = state->out_row_of_record[record];
          return record_kept;
        };
        // The columns a short record lacks (ragged rows, a schema wider
        // than the record).
        const auto put_missing = [&](uint32_t last_column) {
          for (int64_t q = static_cast<int64_t>(plan_index.After(last_column));
               q < num_plans; ++q) {
            if (plans[q].is_string()) {
              put_string(q, FieldPresence::kMissing, nullptr);
            } else {
              put_fixed(q, std::string_view());
            }
          }
        };
        for (int64_t c = state->gather_tiles[t];
             c < state->gather_tiles[t + 1]; ++c) {
          ForEachField(
              *state, c, wanted,
              [&](const FieldSpan& field) {
                if (!enter(field.record)) return;
                const int32_t p = plan_index.Of(field.column);
                value_bytes += field.length;
                if (plans[p].is_string()) {
                  put_string(p,
                             field.length > 0 ? FieldPresence::kValue
                                              : FieldPresence::kEmpty,
                             &field);
                } else {
                  put_fixed(p, FieldValue(*state, field, &scratch));
                }
                if (field.record_end) put_missing(field.column);
              },
              [&](int64_t missing_record, uint32_t last_column) {
                if (enter(missing_record)) put_missing(last_column);
              });
        }
        tile_value_bytes[t] = value_bytes;
      }));

  // (4) Device-level collaboration: each deferred value gets a device-wide
  // parallel copy of its own.
  for (const std::vector<DeferredCopy>& tile_copies : deferred) {
    for (const DeferredCopy& copy : tile_copies) {
      PARPARAW_RETURN_NOT_OK(
          copy.src != nullptr
              ? CopyDeviceLevel(state->pool, copy.dst, copy.src, copy.length)
              : CopyValueRunsDeviceLevel(*state, copy));
    }
  }

  // The walk reads each kept value once and writes each output byte once.
  int64_t value_bytes = 0;
  for (int64_t bytes : tile_value_bytes) value_bytes += bytes;
  state->gathered_value_bytes = value_bytes;
  work->sort_passes += 1;
  work->sort_bytes_moved += bytes_written;
  work->convert_bytes += value_bytes;
  obs::AddCount(state->options->metrics, "partition.sort_bytes_moved",
                bytes_written);
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
    probe.set_bytes(state->gathered_value_bytes);
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
