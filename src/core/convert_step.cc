#include "core/convert_step.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "columnar/table.h"
#include "convert/inference.h"
#include "convert/numeric.h"
#include "convert/temporal.h"
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

// Parses `sv` into column slot `row`; returns false on malformed input.
bool ConvertValue(const DataType& type, std::string_view sv, Column* column,
                  int64_t row) {
  switch (type.id) {
    case TypeId::kBool: {
      bool v;
      if (!ParseBool(sv, &v)) return false;
      column->SetValue<uint8_t>(row, v ? 1 : 0);
      return true;
    }
    case TypeId::kInt32: {
      int32_t v;
      if (!ParseInt32(sv, &v)) return false;
      column->SetValue<int32_t>(row, v);
      return true;
    }
    case TypeId::kInt64: {
      int64_t v;
      if (!ParseInt64(sv, &v)) return false;
      column->SetValue<int64_t>(row, v);
      return true;
    }
    case TypeId::kFloat64: {
      double v;
      if (!ParseFloat64(sv, &v)) return false;
      column->SetValue<double>(row, v);
      return true;
    }
    case TypeId::kDecimal64: {
      int64_t v;
      if (!ParseDecimal64(sv, type.scale, &v)) return false;
      column->SetValue<int64_t>(row, v);
      return true;
    }
    case TypeId::kDate32: {
      int32_t v;
      if (!ParseDate32(sv, &v)) return false;
      column->SetValue<int32_t>(row, v);
      return true;
    }
    case TypeId::kTimestampMicros: {
      int64_t v;
      if (!ParseTimestampMicros(sv, &v)) return false;
      column->SetValue<int64_t>(row, v);
      return true;
    }
    case TypeId::kString:
      return false;  // handled by the string path
  }
  return false;
}

struct ColumnPlan {
  int source_index = 0;  // column tag in the input
  Field field;           // resolved output field (name/type/default)
};

}  // namespace

Status ConvertStep::Run(PipelineState* state, StepTimings* timings,
                        WorkCounters* work, ParseOutput* output) {
  obs::TraceSpan probe =
      StepProbe(*state, "step.convert", "step.convert_us",
                static_cast<int64_t>(state->css.size()));
  const ParseOptions& options = *state->options;
  const int64_t rows = state->num_out_rows;
  const bool schema_given = options.schema.num_fields() > 0;
  const uint32_t num_data_cols =
      schema_given ? static_cast<uint32_t>(options.schema.num_fields())
                   : state->max_columns;

  // Map output rows back to their original records (for the empty-vs-
  // missing field distinction below).
  std::vector<int64_t> record_of_row(rows, 0);
  for (int64_t r = 0; r < state->num_records; ++r) {
    if (!state->record_dropped.empty() && state->record_dropped[r]) continue;
    record_of_row[state->out_row_of_record[r]] = r;
  }

  // Select output columns.
  std::vector<uint8_t> skipped(num_data_cols, 0);
  for (int col : options.skip_columns) {
    if (col >= 0 && static_cast<uint32_t>(col) < num_data_cols) {
      skipped[col] = 1;
    }
  }
  std::vector<ColumnPlan> plans;
  for (uint32_t j = 0; j < num_data_cols; ++j) {
    if (skipped[j]) continue;
    ColumnPlan plan;
    plan.source_index = static_cast<int>(j);
    if (schema_given) {
      plan.field = options.schema.field(static_cast<int>(j));
    } else {
      plan.field = Field("f" + std::to_string(j), DataType::String());
    }
    plans.push_back(std::move(plan));
  }

  Table& table = output->table;
  table.num_rows = rows;
  table.rejected.assign(rows, 0);
  table.columns.clear();

  // Error provenance for the facade's ErrorPolicy handling: why each row
  // was rejected and which source column did it. First error per row wins;
  // columns are converted sequentially and rows within a column are
  // block-partitioned, so the writes never race.
  state->reject_kind.assign(rows, 0);
  state->reject_column.assign(rows, -1);
  const auto mark_rejected = [&](int64_t row, uint8_t kind, int32_t col) {
    table.rejected[row] = 1;
    if (state->reject_kind[row] == 0) {
      state->reject_kind[row] = kind;
      state->reject_column[row] = col;
    }
  };

  ScratchVector<FieldEntry> field_storage;
  std::span<const FieldEntry> fields;
  // Field-of-row lookup, rewritten in full for every column.
  ScratchVector<int64_t> field_of_row(static_cast<size_t>(rows));
  for (ColumnPlan& plan : plans) {
    const uint32_t j = static_cast<uint32_t>(plan.source_index);
    PARPARAW_RETURN_NOT_OK(BuildCssIndex(*state, j, &field_storage, &fields));
    const int64_t num_fields = static_cast<int64_t>(fields.size());

    // Type inference (§4.3): classify each field, then reduce with the
    // lattice join.
    if (!schema_given && options.infer_types && num_fields > 0) {
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

    // Typed default value (§4.3 "Default values for empty strings").
    const bool has_default = plan.field.default_value.has_value();
    Column column(plan.field.type);
    Column default_holder(plan.field.type);
    if (has_default && plan.field.type.id != TypeId::kString) {
      default_holder.Allocate(1);
      if (!ConvertValue(plan.field.type, *plan.field.default_value,
                        &default_holder, 0)) {
        return Status::Invalid("default value '" +
                               *plan.field.default_value +
                               "' is not a valid " +
                               plan.field.type.ToString());
      }
    }

    const bool nullable = plan.field.nullable;
    // "Field exists but is empty" vs "record is too short": an empty field
    // exists when the record has more than `j` columns.
    const auto field_exists = [&](int64_t row) {
      return state->record_column_counts[record_of_row[row]] > j;
    };

    if (plan.field.type.id != TypeId::kString) {
      const int width = FixedWidth(plan.field.type.id);
      column.Allocate(rows);
      PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
          state->pool, rows, [&](int64_t b, int64_t e) {
            for (int64_t row = b; row < e; ++row) {
              const int64_t k = field_of_row[row];
              std::string_view sv =
                  k >= 0 ? FieldView(*state, fields[k]) : std::string_view();
              bool ok = false;
              if (!sv.empty()) {
                ok = ConvertValue(plan.field.type, sv, &column, row);
                if (!ok) {
                  // Malformed value (Fig. 5).
                  mark_rejected(row, 1, plan.source_index);
                }
              } else if (has_default) {
                std::memcpy(column.mutable_data()->data() + row * width,
                            default_holder.data().data(), width);
                column.SetValid(row);
                ok = true;
              }
              if (!ok) {
                column.SetNull(row);
                if (!nullable) mark_rejected(row, 2, plan.source_index);
              }
            }
          }));
      work->convert_bytes +=
          (state->column_css_offsets.size() > j + 1
               ? state->column_css_offsets[j + 1] - state->column_css_offsets[j]
               : 0) +
          rows * width;
    } else {
      // String path: lengths + validity, prefix sum, then the copy passes
      // with the three collaboration levels.
      const std::string default_str =
          has_default ? *plan.field.default_value : std::string();
      std::vector<int64_t> lengths(rows, 0);
      std::vector<uint8_t> valid(rows, 0);
      PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
          state->pool, rows, [&](int64_t b, int64_t e) {
        for (int64_t row = b; row < e; ++row) {
          const int64_t k = field_of_row[row];
          if (k >= 0 && fields[k].length > 0) {
            lengths[row] = fields[k].length;
            valid[row] = 1;
          } else if (k >= 0 || field_exists(row)) {
            // Present but empty: the default if given, else a valid "".
            lengths[row] = has_default ? static_cast<int64_t>(default_str.size())
                                       : 0;
            valid[row] = 1;
          } else if (has_default) {
            lengths[row] = static_cast<int64_t>(default_str.size());
            valid[row] = 1;
          } else {
            valid[row] = 0;  // missing field, no default -> NULL
          }
        }
      }));
      column.Allocate(rows);
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

      // Thread-exclusive + block-level copies; device-level fields are
      // deferred (§3.3).
      const size_t block_threshold = options.block_collaboration_threshold;
      const size_t device_threshold = options.device_collaboration_threshold;
      std::vector<std::vector<int64_t>> deferred_per_block(
          (rows + kRowBlock - 1) / kRowBlock);
      PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
          state->pool, rows, [&](int64_t b, int64_t e) {
        for (int64_t row = b; row < e; ++row) {
          const int64_t k = field_of_row[row];
          const uint8_t* src;
          int64_t len;
          if (k >= 0 && fields[k].length > 0) {
            src = state->css.data() + fields[k].offset;
            len = fields[k].length;
          } else if (valid[row] && has_default) {
            src = reinterpret_cast<const uint8_t*>(default_str.data());
            len = static_cast<int64_t>(default_str.size());
          } else {
            continue;
          }
          if (static_cast<size_t>(len) > device_threshold) {
            deferred_per_block[b / kRowBlock].push_back(row);
            continue;
          }
          uint8_t* dst = out + (*offsets)[row];
          if (static_cast<size_t>(len) <= block_threshold) {
            std::memcpy(dst, src, len);  // thread-exclusive
          } else {
            // Block-level collaboration: the block's threads copy the field
            // in segments (modelled as a segmented loop on the CPU).
            for (int64_t seg = 0; seg < len;
                 seg += static_cast<int64_t>(block_threshold)) {
              const int64_t seg_len =
                  std::min<int64_t>(block_threshold, len - seg);
              std::memcpy(dst + seg, src + seg, seg_len);
            }
          }
          if (valid[row]) column.SetValid(row);
        }
      }));
      // Device-level collaboration: each oversized field gets a
      // device-wide parallel copy of its own.
      for (const auto& block_rows : deferred_per_block) {
        for (int64_t row : block_rows) {
          const int64_t k = field_of_row[row];
          const uint8_t* src = state->css.data() + fields[k].offset;
          uint8_t* dst = out + (*offsets)[row];
          const int64_t len = fields[k].length;
          PARPARAW_RETURN_NOT_OK(ParallelFor(
              state->pool, 0, len, [&](int64_t sb, int64_t se) {
                std::memcpy(dst + sb, src + sb, se - sb);
              }));
        }
      }
      // Validity for rows handled outside the copy loop (empty strings,
      // deferred fields) — block-aligned, race-free.
      PARPARAW_RETURN_NOT_OK(ParallelOverRowBlocks(
          state->pool, rows, [&](int64_t b, int64_t e) {
            for (int64_t row = b; row < e; ++row) {
              if (valid[row]) {
                column.SetValid(row);
              } else {
                column.SetNull(row);
                if (!nullable) mark_rejected(row, 2, plan.source_index);
              }
            }
          }));
      work->convert_bytes += total_bytes + rows * 8;
    }

    table.schema.AddField(plan.field);
    table.columns.push_back(std::move(column));
  }

  output->min_columns = state->min_columns;
  output->max_columns = state->max_columns;
  output->records_dropped = state->num_records - rows;
  work->output_bytes += table.TotalBufferBytes();
  timings->convert_ms += probe.Stop() * 1e3;
  return Status::OK();
}

}  // namespace parparaw
