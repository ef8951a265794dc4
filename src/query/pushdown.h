#ifndef PARPARAW_QUERY_PUSHDOWN_H_
#define PARPARAW_QUERY_PUSHDOWN_H_

#include <string_view>

#include "core/options.h"
#include "query/predicate.h"
#include "util/result.h"

namespace parparaw {

/// Diagnostics of a pushdown parse.
struct PushdownStats {
  int64_t records_scanned = 0;
  int64_t records_selected = 0;

  double Selectivity() const {
    return records_scanned > 0
               ? static_cast<double>(records_selected) / records_scanned
               : 0.0;
  }
};

/// \brief Selection pushdown into the parser (§4.3 "Skipping records and
/// selecting columns" turned into a WHERE clause).
///
/// Phase 1 (StagedParse::Select) tags, partitions and converts *only* the
/// predicate column from the parse's bitmap indexes and evaluates the
/// predicate; phase 2, the same parse's Partition and Convert, builds full
/// rows only for the matches. For selective predicates this avoids
/// converting the bulk of the data, and the selection is exact under any
/// format (quoted fields, comments, any DFA).
///
/// Requirements: a schema, the robust column-count policy, and empty
/// skip_records/skip_columns in `options` (they would change record
/// numbering between the phases). For the same reason phase 1 runs
/// ErrorPolicy::kSkip and kQuarantine as kNull: a malformed predicate value
/// is NULL, matches no predicate and never reaches phase 2, so it is
/// neither skipped nor quarantined. Phase 2 applies the policy to the
/// matching records.
Result<ParseOutput> ParseWithPushdown(std::string_view input,
                                      const ParseOptions& options,
                                      const Predicate& predicate,
                                      PushdownStats* stats = nullptr);

}  // namespace parparaw

#endif  // PARPARAW_QUERY_PUSHDOWN_H_
