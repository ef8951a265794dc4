#include "query/pushdown.h"

#include "core/parser.h"
#include "obs/obs.h"
#include "query/query.h"

namespace parparaw {

Result<ParseOutput> ParseWithPushdown(std::string_view input,
                                      const ParseOptions& options,
                                      const Predicate& predicate,
                                      PushdownStats* stats) {
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

  obs::TraceSpan span(options.tracer, "pushdown", "query",
                      static_cast<int64_t>(input.size()));
  obs::TraceSpan probe_phase(options.tracer, "pushdown.probe", "query",
                             options.metrics, "pushdown.probe_us",
                             obs::Timing::kUntimed);

  // Phase 1: parse only the predicate column. Phase 2 reads probe rows as
  // record numbers, so phase 1 keeps every record: under kSkip a malformed
  // predicate value becomes NULL instead of dropping its record (phase 2
  // still skips it).
  ParseOptions phase1 = options;
  if (phase1.error_policy == robust::ErrorPolicy::kSkip) {
    phase1.error_policy = robust::ErrorPolicy::kNull;
  }
  for (int j = 0; j < options.schema.num_fields(); ++j) {
    if (j != predicate.column) phase1.skip_columns.push_back(j);
  }
  PARPARAW_ASSIGN_OR_RETURN(ParseOutput probe,
                            Parser::Parse(input, phase1));

  // Evaluate against the single-column probe table.
  Predicate remapped = predicate;
  remapped.column = 0;
  PARPARAW_ASSIGN_OR_RETURN(
      std::vector<uint8_t> selection,
      EvaluatePredicate(probe.table, remapped, options.pool));
  probe_phase.Stop();

  // With the robust policy and no skip sets, probe rows == records, so
  // row indices are valid skip_records entries for phase 2.
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
  obs::AddCount(options.metrics, "pushdown.records_scanned",
                probe.table.num_rows);
  obs::AddCount(options.metrics, "pushdown.records_selected", selected);
  obs::TraceSpan materialise(options.tracer, "pushdown.materialise", "query",
                             options.metrics, "pushdown.materialise_us",
                             obs::Timing::kUntimed);
  PARPARAW_ASSIGN_OR_RETURN(ParseOutput out, Parser::Parse(input, phase2));
  // Fold the probe's work into the reported counters.
  out.work += probe.work;
  out.timings += probe.timings;
  return out;
}

}  // namespace parparaw
