#include "baseline/row_buffer.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "convert/inference.h"
#include "core/column_plan.h"

namespace parparaw {

void RecordBuffer::Append(const RecordBuffer& other) {
  const int64_t byte_base = static_cast<int64_t>(bytes_.size());
  const int64_t field_base = static_cast<int64_t>(field_ends_.size());
  bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
  field_ends_.reserve(field_ends_.size() + other.field_ends_.size());
  for (int64_t e : other.field_ends_) field_ends_.push_back(e + byte_base);
  record_ends_.reserve(record_ends_.size() + other.record_ends_.size());
  for (int64_t e : other.record_ends_) record_ends_.push_back(e + field_base);
}

ScanResult AppendParsedRange(const Format& format, const uint8_t* data,
                             size_t begin, size_t end, bool emit_trailing,
                             RecordBuffer* out) {
  const Dfa& dfa = format.dfa;
  ScanResult result;
  int state = dfa.start_state();
  const int invalid = dfa.invalid_state();
  for (size_t i = begin; i < end; ++i) {
    const int group = dfa.SymbolGroup(data[i]);
    const uint8_t flags = dfa.Flags(state, group);
    const int next = dfa.NextState(state, group);
    if (flags & kSymbolRecordDelimiter) {
      out->EndField();
      out->EndRecord();
    } else if (flags & kSymbolFieldDelimiter) {
      // An inclusive boundary (no control bit) is the field's last value
      // byte as well as its end (fixed-width dialects).
      if ((flags & kSymbolControl) == 0) out->AppendFieldByte(data[i]);
      out->EndField();
    } else if (flags & kSymbolControl) {
      // Not part of any field's value.
    } else {
      out->AppendFieldByte(data[i]);
    }
    if (invalid >= 0 && next == invalid && state != invalid &&
        result.first_invalid < 0) {
      result.first_invalid = static_cast<int64_t>(i - begin);
    }
    state = next;
  }
  if (emit_trailing && format.IsMidRecordState(state)) {
    out->EndField();
    out->EndRecord();
  }
  result.final_state = state;
  return result;
}

Result<Table> BuildTableFromRecords(const RecordBuffer& records,
                                    const ParseOptions& options,
                                    ParseOutput* output) {
  const int64_t num_records = records.num_records();
  const bool schema_given = options.schema.num_fields() > 0;

  // Drop resolution, mirroring TagStep.
  std::vector<uint8_t> dropped(num_records, 0);
  if (options.exclude_trailing_record) {
    // Callers of the baselines handle carry-over themselves via
    // AppendParsedRange's emit_trailing flag; nothing to do here.
  }
  for (int64_t idx : options.skip_records) {
    if (idx >= 0 && idx < num_records) dropped[idx] = 1;
  }
  if (options.column_count_policy != ColumnCountPolicy::kRobust &&
      num_records > 0) {
    uint32_t expected =
        schema_given ? static_cast<uint32_t>(options.schema.num_fields()) : 0;
    if (expected == 0) {
      for (int64_t r = 0; r < num_records; ++r) {
        if (!dropped[r]) {
          expected = std::max(expected,
                              static_cast<uint32_t>(records.FieldCount(r)));
        }
      }
    }
    for (int64_t r = 0; r < num_records; ++r) {
      if (dropped[r]) continue;
      if (static_cast<uint32_t>(records.FieldCount(r)) != expected) {
        if (options.column_count_policy == ColumnCountPolicy::kValidate) {
          return Status::ParseError(
              "record " + std::to_string(r) + " has " +
              std::to_string(records.FieldCount(r)) + " columns, expected " +
              std::to_string(expected));
        }
        dropped[r] = 1;
      }
    }
  }

  std::vector<int64_t> kept;
  kept.reserve(num_records);
  uint32_t min_cols = 0;
  uint32_t max_cols = 0;
  bool any = false;
  for (int64_t r = 0; r < num_records; ++r) {
    if (dropped[r]) continue;
    kept.push_back(r);
    const uint32_t count = static_cast<uint32_t>(records.FieldCount(r));
    min_cols = any ? std::min(min_cols, count) : count;
    max_cols = any ? std::max(max_cols, count) : count;
    any = true;
  }
  const int64_t rows = static_cast<int64_t>(kept.size());

  const uint32_t num_data_cols =
      schema_given ? static_cast<uint32_t>(options.schema.num_fields())
                   : max_cols;
  std::vector<uint8_t> skipped_col(num_data_cols, 0);
  for (int col : options.skip_columns) {
    if (col >= 0 && static_cast<uint32_t>(col) < num_data_cols) {
      skipped_col[col] = 1;
    }
  }

  Table table;
  table.num_rows = rows;
  table.rejected.assign(rows, 0);

  for (uint32_t j = 0; j < num_data_cols; ++j) {
    if (skipped_col[j]) continue;
    Field field = schema_given
                      ? options.schema.field(static_cast<int>(j))
                      : Field("f" + std::to_string(j), DataType::String());
    if (!schema_given && options.infer_types) {
      InferredKind kind = InferredKind::kEmpty;
      for (int64_t row = 0; row < rows; ++row) {
        const int64_t r = kept[row];
        if (j < static_cast<uint32_t>(records.FieldCount(r))) {
          // Match ParPaRaw: only non-empty fields produce CSS runs, but
          // empty fields classify to kEmpty (the join identity) anyway.
          kind = Join(kind,
                      ClassifyField(records.FieldValue(records.FirstField(r) + j)));
        }
      }
      field.type = KindToDataType(kind);
    }
    const bool has_default = field.default_value.has_value();
    Column column(field.type);
    column.Allocate(rows);
    std::array<uint8_t, 8> default_slot{};
    if (has_default && field.type.id != TypeId::kString &&
        !ParseSlot(field.type, *field.default_value, default_slot.data())) {
      return Status::Invalid("default value '" + *field.default_value +
                             "' is not a valid " + field.type.ToString());
    }
    const int width = FixedWidth(field.type.id);
    if (field.type.id == TypeId::kString) {
      // Two passes: offsets, then bytes (mirrors the parallel layout).
      std::vector<int64_t>* offsets = column.mutable_offsets();
      std::vector<uint8_t>* data = column.mutable_string_data();
      int64_t running = 0;
      for (int64_t row = 0; row < rows; ++row) {
        const int64_t r = kept[row];
        const bool exists = j < static_cast<uint32_t>(records.FieldCount(r));
        std::string_view sv =
            exists ? records.FieldValue(records.FirstField(r) + j)
                   : std::string_view();
        (*offsets)[row] = running;
        if (exists && !sv.empty()) {
          data->insert(data->end(), sv.begin(), sv.end());
          running += static_cast<int64_t>(sv.size());
          column.SetValid(row);
        } else if (exists || has_default) {
          if (has_default) {
            data->insert(data->end(), field.default_value->begin(),
                         field.default_value->end());
            running += static_cast<int64_t>(field.default_value->size());
          }
          column.SetValid(row);
        } else {
          column.SetNull(row);
          if (!field.nullable) table.rejected[row] = 1;
        }
      }
      (*offsets)[rows] = running;
    } else {
      for (int64_t row = 0; row < rows; ++row) {
        const int64_t r = kept[row];
        const bool exists = j < static_cast<uint32_t>(records.FieldCount(r));
        std::string_view sv =
            exists ? records.FieldValue(records.FirstField(r) + j)
                   : std::string_view();
        uint8_t* slot = column.mutable_data()->data() + row * width;
        bool ok = false;
        if (!sv.empty()) {
          ok = ParseSlot(field.type, sv, slot);
          if (!ok) table.rejected[row] = 1;
        } else if (has_default) {
          std::memcpy(slot, default_slot.data(), width);
          ok = true;
        }
        if (ok) {
          column.SetValid(row);
        } else {
          column.SetNull(row);
          if (!field.nullable) table.rejected[row] = 1;
        }
      }
    }
    table.schema.AddField(field);
    table.columns.push_back(std::move(column));
  }

  if (output != nullptr) {
    output->min_columns = min_cols;
    output->max_columns = max_cols;
    output->records_dropped = num_records - rows;
  }
  return table;
}

}  // namespace parparaw
