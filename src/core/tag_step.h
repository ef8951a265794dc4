#ifndef PARPARAW_CORE_TAG_STEP_H_
#define PARPARAW_CORE_TAG_STEP_H_

#include "core/pipeline_state.h"
#include "util/status.h"

namespace parparaw {

/// \brief Step 4 (§3.2/§4.1/§4.3): tag symbols with their column and
/// record, and compact them for partitioning.
///
/// Sub-passes, all chunk-parallel over the bitmap indexes (the DFA is never
/// re-run):
///  1. *Count pass*: derives every record's column count (its field
///     delimiters, counted by popcount between record delimiters, + 1),
///     feeding column-count inference/validation and the reject policy
///     (§4.3); also finds the maximum column index (partition count).
///  2. *Drop resolution*: merges skip_records and the column-count policy
///     into per-record drop flags; an exclusive prefix sum maps kept
///     records to output rows.
///  3. *Sizing pass + scan*: per-chunk kept-symbol counts and their
///     exclusive prefix sum give every chunk's write offset.
///  4. *Write pass*: emits the kept symbols with their column tags and,
///     depending on the tagging mode (Fig. 6), record tags
///     (kRecordTags), terminator bytes replacing delimiters
///     (kInlineTerminated), or an auxiliary field-end vector
///     (kVectorDelimited).
///
/// Passes 3-4 describe TransposeMode::kSymbolSort. Under the default
/// kFieldGather the step stores nothing per field. Its count pass also
/// finds each chunk's last field end and the open-field value bytes after
/// it, and a serial O(chunks) chain turns them into every chunk's
/// open-field carries (open_field_begin/open_field_length); after the
/// drops it splits the chunks into tiles (gather_tiles); and its write
/// pass walks the string columns' fields (ForEachField, core/field_walk.h,
/// which jumps over the other columns) to tally the bytes each (tile,
/// column plan) takes in a string column, defaults included, in
/// gather_tallies. The inline-terminated mode walks every kept field, to
/// check it for the terminator byte. Without a schema and with
/// infer_types, the same walk joins each tile's inferred kinds per column
/// and retypes the plans. It leaves css/col_tags/rec_tags/field_end empty:
/// the partition step walks the kept columns' fields and writes the
/// columns from the input. A record tagging more than
/// ParseOptions::max_record_columns columns fails the parse with a
/// ParseError carrying the record's byte span (both modes).
///
/// Both modes select the output columns (SelectColumns) after the drops
/// and check them once num_partitions is known (CheckColumnPlans): an
/// inline- or vector-mode column some kept record lacks, or an invalid
/// default, fails the parse here.
///
/// Fills: record_column_counts, max_column_index, record_dropped,
/// out_row_of_record, num_out_rows, min/max_columns, num_partitions,
/// column_plans, transpose_mode, and css/col_tags/rec_tags/field_end
/// (kSymbolSort) or open_field_begin, open_field_length, gather_tiles and
/// gather_tallies (kFieldGather).
class TagStep {
 public:
  static Status Run(PipelineState* state, StepTimings* timings);
  /// Runs the step again over the same bitmap indexes under new skip sets
  /// (a query's phase 2, after its phase 1's Run): the count pass's
  /// results (record_column_counts, max_column_index, the open-field
  /// carries and the column-limit check) depend on neither, so they are
  /// reused, and the step starts at the drop resolution.
  static Status RunAgain(PipelineState* state, StepTimings* timings);
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_TAG_STEP_H_
