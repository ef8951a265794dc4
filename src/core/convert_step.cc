#include "core/convert_step.h"

#include <algorithm>
#include <cstring>

#include "columnar/table.h"
#include "convert/inference.h"
#include "core/css_index.h"
#include "obs/obs.h"
#include "parallel/scan.h"
#include "robust/resource_guard.h"

namespace parparaw {

namespace {

// Row-blocked parallel loop: blocks are multiples of 64 rows so concurrent
// validity-bitmap word writes never straddle workers.
constexpr int64_t kRowBlock = 4096;

Status ParallelOverRowBlocks(
    ThreadPool* pool, int64_t num_rows,
    const std::function<void(int64_t, int64_t)>& body) {
  const int64_t num_blocks = (num_rows + kRowBlock - 1) / kRowBlock;
  return ParallelForEach(pool, 0, num_blocks, [&](int64_t blk) {
    const int64_t b = blk * kRowBlock;
    const int64_t e = std::min(b + kRowBlock, num_rows);
    body(b, e);
  });
}

std::string_view FieldView(const PipelineState& state,
                           const FieldEntry& field) {
  return std::string_view(
      reinterpret_cast<const char*>(state.css.data()) + field.offset,
      static_cast<size_t>(field.length));
}

// Records row's reject, keeping its first (lowest-column) error.
void MarkRejected(PipelineState* state, Table* table, int64_t row,
                  uint8_t kind, int32_t column) {
  table->rejected[row] = 1;
  if (state->reject_kind[row] == kNotRejected) {
    state->reject_kind[row] = kind;
    state->reject_column[row] = column;
  }
}

// TransposeMode::kFieldGather: the partition step's walk already wrote
// every column. Moves them into the table and merges the rows each tile
// rejected, tile by tile: a tile meets a row's columns in order, and a row
// spanning tiles meets its lower columns in the earlier tile, so the first
// reject kept per row is its lowest-column one, as in the CSS path.
void AssembleGatheredTable(PipelineState* state, Table* table) {
  for (const std::vector<RowReject>& rejects : state->gather_rejects) {
    for (const RowReject& reject : rejects) {
      MarkRejected(state, table, reject.row, reject.kind, reject.column);
    }
  }
  for (size_t p = 0; p < state->column_plans.size(); ++p) {
    table->schema.AddField(state->column_plans[p].field);
    table->columns.push_back(std::move(state->gathered_columns[p]));
  }
  state->gathered_columns.clear();
  state->gather_rejects.clear();
}

// TransposeMode::kSymbolSort: the paper's CSS-then-convert flow, one
// column at a time.
Status ConvertCss(PipelineState* state, WorkCounters* work, Table* table) {
  const ParseOptions& options = *state->options;
  const int64_t rows = state->num_out_rows;
  const bool infer =
      options.schema.num_fields() == 0 && options.infer_types;

  // Map output rows back to their original records (for the empty-vs-
  // missing field distinction below).
  std::vector<int64_t> record_of_row(rows, 0);
  for (int64_t r = 0; r < state->num_records; ++r) {
    if (!state->record_dropped.empty() && state->record_dropped[r]) continue;
    record_of_row[state->out_row_of_record[r]] = r;
  }

  ScratchVector<FieldEntry> fields;
  // Field-of-row lookup, rewritten in full for every column.
  ScratchVector<int64_t> field_of_row(static_cast<size_t>(rows));
  for (ColumnPlan& plan : state->column_plans) {
    const uint32_t j = plan.source;
    const int32_t source = static_cast<int32_t>(j);
    PARPARAW_RETURN_NOT_OK(BuildCssIndex(*state, j, &fields));
    const int64_t num_fields = static_cast<int64_t>(fields.size());

    // Type inference (§4.3): classify each field, then reduce with the
    // lattice join.
    if (infer && num_fields > 0) {
      std::vector<InferredKind> kinds(num_fields);
      PARPARAW_RETURN_NOT_OK(
          ParallelForEach(state->pool, 0, num_fields, [&](int64_t k) {
            kinds[k] = ClassifyField(FieldView(*state, fields[k]));
          }));
      const InferredKind joined =
          Reduce(state->pool, kinds.data(), num_fields, Join,
                 InferredKind::kEmpty);
      plan.field.type = KindToDataType(joined);
    }

    // Field-of-row lookup (-1 for rows without a field). A column's fields
    // are in ascending row order, so each row block's fields are one run,
    // located by binary search.
    PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
        state->pool, rows, [&](int64_t b, int64_t e) {
          size_t k = static_cast<size_t>(
              std::partition_point(
                  fields.begin(), fields.end(),
                  [b](const FieldEntry& f) { return f.row < b; }) -
              fields.begin());
          for (int64_t row = b; row < e; ++row) {
            if (k < fields.size() && fields[k].row == row) {
              field_of_row[row] = static_cast<int64_t>(k++);
            } else {
              field_of_row[row] = -1;
            }
          }
        }));

    // A row's field: a value, empty, or missing — an empty field exists
    // when the record has more than `j` columns.
    const auto presence_of = [&](int64_t row) {
      const int64_t k = field_of_row[row];
      if (k >= 0 && fields[k].length > 0) return FieldPresence::kValue;
      if (k >= 0 || state->record_column_counts[record_of_row[row]] > j) {
        return FieldPresence::kEmpty;
      }
      return FieldPresence::kMissing;
    };
    const auto settle = [&](Column* column, int64_t row,
                            const ValueOutcome& outcome) {
      if (outcome.valid) {
        column->SetValid(row);
      } else {
        column->SetNull(row);
      }
      if (outcome.reject != kNotRejected) {
        MarkRejected(state, table, row, outcome.reject, source);
      }
    };

    Column column(plan.field.type);
    column.Allocate(rows);
    if (!plan.is_string()) {
      const int width = FixedWidth(plan.field.type.id);
      uint8_t* slots = column.mutable_data()->data();
      PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
          state->pool, rows, [&](int64_t b, int64_t e) {
            for (int64_t row = b; row < e; ++row) {
              const int64_t k = field_of_row[row];
              const std::string_view value =
                  k >= 0 ? FieldView(*state, fields[k]) : std::string_view();
              settle(&column, row,
                     ConvertFixed(plan, value, slots + row * width));
            }
          }));
      work->convert_bytes +=
          (state->column_css_offsets.size() > j + 1
               ? state->column_css_offsets[j + 1] - state->column_css_offsets[j]
               : 0) +
          rows * width;
    } else {
      // String path: lengths, prefix sum, then the copy passes with the
      // three collaboration levels.
      std::vector<int64_t> lengths(rows, 0);
      PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
          state->pool, rows, [&](int64_t b, int64_t e) {
            for (int64_t row = b; row < e; ++row) {
              const int64_t k = field_of_row[row];
              lengths[row] = StringLength(plan, presence_of(row),
                                          k >= 0 ? fields[k].length : 0);
            }
          }));
      std::vector<int64_t>* offsets = column.mutable_offsets();
      const int64_t total_bytes = ExclusivePrefixSum(
          state->pool, lengths.data(), offsets->data(), rows);
      (*offsets)[rows] = total_bytes;
      // The zero-fill is the buffer's first write, on huge pages when the
      // buffer is large (GuardedAssign, util/huge_pages.h).
      PARPARAW_RETURN_NOT_OK(robust::GuardedAssign(
          "alloc.convert", column.mutable_string_data(), total_bytes,
          uint8_t{0}));
      uint8_t* out = column.mutable_string_data()->data();
      const std::string_view default_str = plan.default_string();

      // Thread-exclusive + block-level copies; device-level values are
      // deferred with their source (§3.3).
      struct Deferred {
        int64_t row;
        const uint8_t* src;
      };
      const size_t block_threshold = options.block_collaboration_threshold;
      const size_t device_threshold = options.device_collaboration_threshold;
      std::vector<std::vector<Deferred>> deferred_per_block(
          (rows + kRowBlock - 1) / kRowBlock);
      PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
          state->pool, rows, [&](int64_t b, int64_t e) {
            for (int64_t row = b; row < e; ++row) {
              const FieldPresence presence = presence_of(row);
              settle(&column, row, StringOutcome(plan, presence));
              const int64_t len = lengths[row];
              if (len == 0) continue;
              const uint8_t* src =
                  presence == FieldPresence::kValue
                      ? state->css.data() + fields[field_of_row[row]].offset
                      : reinterpret_cast<const uint8_t*>(default_str.data());
              if (static_cast<size_t>(len) > device_threshold) {
                deferred_per_block[b / kRowBlock].push_back(Deferred{row, src});
              } else {
                CopyBlockLevel(out + (*offsets)[row], src, len,
                               block_threshold);
              }
            }
          }));
      // Device-level collaboration: each oversized value gets a device-wide
      // parallel copy of its own.
      for (const auto& block_rows : deferred_per_block) {
        for (const Deferred& d : block_rows) {
          PARPARAW_RETURN_NOT_OK(CopyDeviceLevel(
              state->pool, out + (*offsets)[d.row], d.src, lengths[d.row]));
        }
      }
      work->convert_bytes += total_bytes + rows * 8;
    }

    table->schema.AddField(plan.field);
    table->columns.push_back(std::move(column));
  }
  return Status::OK();
}

}  // namespace

Status ConvertStep::Run(PipelineState* state, StepTimings* timings,
                        WorkCounters* work, ParseOutput* output) {
  obs::TraceSpan probe =
      StepProbe(*state, "step.convert", "step.convert_us",
                static_cast<int64_t>(state->css.size()));
  const int64_t rows = state->num_out_rows;

  Table& table = output->table;
  table.num_rows = rows;
  table.rejected.assign(rows, 0);
  table.columns.clear();

  // Error provenance for the facade's ErrorPolicy handling: why each row
  // was rejected and which source column did it.
  state->reject_kind.assign(rows, kNotRejected);
  state->reject_column.assign(rows, -1);

  if (state->transpose_mode == TransposeMode::kFieldGather) {
    AssembleGatheredTable(state, &table);
  } else {
    PARPARAW_RETURN_NOT_OK(ConvertCss(state, work, &table));
  }

  output->min_columns = state->min_columns;
  output->max_columns = state->max_columns;
  output->records_dropped = state->num_records - rows;
  work->output_bytes += table.TotalBufferBytes();
  timings->convert_ms += probe.Stop() * 1e3;
  return Status::OK();
}

}  // namespace parparaw
