#ifndef PARPARAW_TESTS_PUSHDOWN_ORACLE_H_
#define PARPARAW_TESTS_PUSHDOWN_ORACLE_H_

#include <cstring>
#include <string_view>
#include <vector>

#include "core/parser.h"
#include "query/predicate.h"
#include "query/pushdown.h"

namespace parparaw {

/// Materialises the rows selected by `selection` (0/1 per row): the
/// parse-then-filter reference that a pushdown's output must equal.
inline Result<Table> GatherRows(const Table& table,
                                const std::vector<uint8_t>& selection) {
  if (static_cast<int64_t>(selection.size()) != table.num_rows) {
    return Status::Invalid("selection vector size mismatch");
  }
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < table.num_rows; ++r) {
    if (selection[r]) rows.push_back(r);
  }
  const int64_t n = static_cast<int64_t>(rows.size());
  Table out;
  out.schema = table.schema;
  out.num_rows = n;
  out.rejected.resize(rows.size());
  for (int64_t i = 0; i < n; ++i) {
    out.rejected[i] = table.rejected.empty() ? 0 : table.rejected[rows[i]];
  }
  for (const Column& src : table.columns) {
    Column dst(src.type());
    if (src.type().id == TypeId::kString) {
      for (int64_t r : rows) {
        if (src.IsNull(r)) {
          dst.AppendNull();
        } else {
          dst.AppendString(src.StringValue(r));
        }
      }
      if (rows.empty()) dst.Allocate(0);
    } else {
      const int width = FixedWidth(src.type().id);
      dst.Allocate(n);
      for (int64_t i = 0; i < n; ++i) {
        std::memcpy(dst.mutable_data()->data() + i * width,
                    src.data().data() + rows[i] * width, width);
        if (src.IsNull(rows[i])) {
          dst.SetNull(i);
        } else {
          dst.SetValid(i);
        }
      }
    }
    out.columns.push_back(std::move(dst));
  }
  return out;
}

/// The selection pushdown as two whole parses, the oracle of
/// StagedParse::Select: phase 1 parses only the predicate column and
/// evaluates the predicate; phase 2 re-parses with the non-matching records
/// in skip_records. Same refusals and outputs as ParseWithPushdown; only
/// the work and timings differ (this one scans every byte twice).
inline Result<ParseOutput> TwoParsePushdown(std::string_view input,
                                            const ParseOptions& options,
                                            const Predicate& predicate,
                                            PushdownStats* stats = nullptr) {
  if (options.schema.num_fields() == 0) {
    return Status::Invalid("pushdown requires a schema");
  }
  if (predicate.column < 0 ||
      predicate.column >= options.schema.num_fields()) {
    return Status::Invalid("predicate column out of range");
  }
  if (!options.skip_records.empty() || !options.skip_columns.empty()) {
    return Status::Invalid(
        "pushdown cannot be combined with explicit skip sets");
  }
  if (options.column_count_policy != ColumnCountPolicy::kRobust) {
    return Status::Invalid("pushdown requires the robust column policy");
  }

  // Phase 1: only the predicate column. Phase 2 reads probe rows as record
  // numbers, so phase 1 keeps every record: under kSkip a malformed
  // predicate value becomes NULL instead of dropping its record.
  ParseOptions phase1 = options;
  if (phase1.error_policy == robust::ErrorPolicy::kSkip) {
    phase1.error_policy = robust::ErrorPolicy::kNull;
  }
  for (int j = 0; j < options.schema.num_fields(); ++j) {
    if (j != predicate.column) phase1.skip_columns.push_back(j);
  }
  PARPARAW_ASSIGN_OR_RETURN(ParseOutput probe, Parser::Parse(input, phase1));
  Predicate remapped = predicate;
  remapped.column = 0;
  PARPARAW_ASSIGN_OR_RETURN(
      std::vector<uint8_t> selection,
      EvaluatePredicate(probe.table, remapped, options.pool));

  // Phase 2: every record whose probe row did not match is skipped.
  ParseOptions phase2 = options;
  int64_t selected = 0;
  for (int64_t r = 0; r < probe.table.num_rows; ++r) {
    if (selection[r]) {
      ++selected;
    } else {
      phase2.skip_records.push_back(r);
    }
  }
  if (stats != nullptr) {
    stats->records_scanned = probe.table.num_rows;
    stats->records_selected = selected;
  }
  PARPARAW_ASSIGN_OR_RETURN(ParseOutput out, Parser::Parse(input, phase2));
  out.work += probe.work;
  out.timings += probe.timings;
  return out;
}

}  // namespace parparaw

#endif  // PARPARAW_TESTS_PUSHDOWN_ORACLE_H_
