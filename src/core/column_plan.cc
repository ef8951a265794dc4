#include "core/column_plan.h"

#include <algorithm>
#include <string>

#include "core/pipeline_state.h"

namespace parparaw {

std::vector<ColumnPlan> SelectColumns(const PipelineState& state) {
  const ParseOptions& options = *state.options;
  const bool schema_given = options.schema.num_fields() > 0;
  const uint32_t num_data_cols =
      schema_given ? static_cast<uint32_t>(options.schema.num_fields())
                   : state.max_columns;
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
    plan.source = j;
    plan.field = schema_given
                     ? options.schema.field(static_cast<int>(j))
                     : Field("f" + std::to_string(j), DataType::String());
    plans.push_back(std::move(plan));
  }
  return plans;
}

Status CheckColumnPlans(const PipelineState& state,
                        std::vector<ColumnPlan>* plans) {
  const int64_t rows = state.num_out_rows;
  // The inline and vector modes map field k of a column to row k, so every
  // kept record must hold every column below num_partitions. A column's
  // field count is the number of kept records with more columns than its
  // index: a suffix sum over the kept records' column counts.
  std::vector<int64_t> fields_in_column;
  if (state.options->tagging_mode != TaggingMode::kRecordTags &&
      state.num_partitions > 0) {
    fields_in_column.assign(static_cast<size_t>(state.num_partitions) + 1, 0);
    for (int64_t r = 0; r < state.num_records; ++r) {
      if (state.record_dropped[r]) continue;
      const uint32_t count =
          std::min(state.record_column_counts[r], state.num_partitions);
      ++fields_in_column[count];
    }
    for (uint32_t j = state.num_partitions; j > 0; --j) {
      fields_in_column[j - 1] += fields_in_column[j];
    }
  }
  for (ColumnPlan& plan : *plans) {
    if (plan.source < state.num_partitions && !fields_in_column.empty()) {
      const int64_t fields = fields_in_column[plan.source + 1];
      if (fields != rows) {
        return Status::ParseError(
            "column " + std::to_string(plan.source) + " has " +
            std::to_string(fields) + " fields for " + std::to_string(rows) +
            " records; inconsistent column counts require the record-tag "
            "mode, or the reject column-count policy without the "
            "quarantine error policy");
      }
    }
    if (plan.has_default() && !plan.is_string() &&
        !ParseSlot(plan.field.type, *plan.field.default_value,
                   plan.default_slot.data())) {
      return Status::Invalid("default value '" + *plan.field.default_value +
                             "' is not a valid " + plan.field.type.ToString());
    }
  }
  return Status::OK();
}

PlanIndex::PlanIndex(const std::vector<ColumnPlan>& plans)
    : num_plans_(plans.size()) {
  if (plans.empty()) return;
  const uint32_t columns = plans.back().source + 1;
  plan_of_.assign(columns, -1);
  after_.assign(columns, 0);
  for (size_t p = 0; p < plans.size(); ++p) {
    plan_of_[plans[p].source] = static_cast<int32_t>(p);
  }
  // after_[j]: the plans reading columns <= j.
  size_t p = 0;
  for (uint32_t j = 0; j < columns; ++j) {
    while (p < plans.size() && plans[p].source <= j) ++p;
    after_[j] = static_cast<uint32_t>(p);
  }
}

}  // namespace parparaw
