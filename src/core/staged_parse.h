#ifndef PARPARAW_CORE_STAGED_PARSE_H_
#define PARPARAW_CORE_STAGED_PARSE_H_

#include <string>
#include <string_view>

#include "core/options.h"
#include "core/pipeline_state.h"
#include "query/pushdown.h"
#include "util/result.h"

namespace parparaw {

/// \brief The parse pipeline cut into its coarse stages, so the pipelined
/// executor (src/exec) can overlap them across partitions the way the
/// paper's Fig. 7 schedule overlaps its GPU streams:
///
///   Scan       context resolution + bitmap indexes (+ remainder offset)
///              + record/column offset scans: what the carry-over needs.
///              After Scan, the carry-over for the *next* partition is
///              known (remainder_offset()), so its Scan can start while
///              this partition continues downstream.
///   Select     (queries only) the predicate decides which records the
///              later stages build (§4.3 "Skipping records").
///   Partition  symbol tagging, then the stable radix sort into per-column
///              symbol runs, or the field gather's walk, which writes the
///              output columns (TransposeMode).
///   Convert    CSS indexing + typed value generation (symbol sort) or
///              table assembly (field gather) + error policy.
///
/// RunStagedParse runs the stages back to back on one thread; the executor
/// runs Scan, then Select and Partition, then Convert as three morsels on
/// whichever worker is free, with partitions flowing between them, which is
/// exactly why the split exists (and why no probe may span two morsels).
/// Stage methods must be called in the order above, each at most once. The
/// instance must not move between Scan and TakeOutput (the pipeline state
/// points into it), so the executor heap-allocates its per-partition tasks.
class StagedParse {
 public:
  StagedParse() = default;
  StagedParse(const StagedParse&) = delete;
  StagedParse& operator=(const StagedParse&) = delete;

  /// Runs the scan stage over `input` under `options`. `input` must stay
  /// alive and unmoved until Partition() returns, or until Convert()
  /// returns under ErrorPolicy::kQuarantine (its spans copy raw bytes).
  /// Empty (or fully row-skipped) inputs complete immediately — see
  /// finished().
  Status Scan(std::string_view input, const ParseOptions& options);

  /// True when Scan already produced the final output (empty input):
  /// callers skip Partition/Convert and go straight to TakeOutput().
  bool finished() const { return finished_; }

  /// Byte offset (in the caller's original buffer) where the unterminated
  /// trailing record starts. Valid after Scan when
  /// options.exclude_trailing_record was set; -1 otherwise.
  int64_t remainder_offset() const { return output_.remainder_offset; }

  /// A query's select stage (the pushdown, query/pushdown.h): tags,
  /// partitions and converts the predicate column alone from Scan's bitmap
  /// indexes, evaluates the predicate, and skips the records that do not
  /// match; its work and timings join the output, and `stats` (optional)
  /// gets the counts. Partition then reuses the tag step's count pass.
  /// Refuses (InvalidArgument) the options the pushdown cannot number
  /// records under, listed at ParseWithPushdown.
  Status Select(const Predicate& predicate, PushdownStats* stats);

  /// Runs the partition stage (the tag step, then the radix sort by
  /// column tag or the field gather's walk, which writes the columns
  /// straight from the input and its bitmap indexes), then frees the
  /// bitmap indexes, except under ErrorPolicy::kQuarantine: the CSS or
  /// the columns now hold every value.
  Status Partition();

  /// Runs the convert stage (CSS indexing and value generation, or the
  /// gathered table's assembly; then the error policy) and finalises
  /// metrics.
  Status Convert();

  /// Moves the accumulated output out. Call once, after Convert (or after
  /// a finished() Scan).
  ParseOutput TakeOutput() { return std::move(output_); }

 private:
  Status TagAndPartition();  // the steps Select and Partition share

  ParseOptions resolved_;
  /// Owns the UTF-8 bytes when the input needed transcoding (§4.2).
  std::string transcoded_;
  /// Post-row-skip view of the (possibly transcoded) input.
  std::string_view input_;
  int64_t skip_offset_ = 0;
  bool finished_ = false;
  /// The tag step has run once over state_'s bitmap indexes (Select).
  bool tagged_ = false;
  PipelineState state_;
  ParseOutput output_;
};

/// The driver behind Parser::Parse and ParseWithPushdown: validate, resolve
/// the dialect, plan, then the stages on the calling thread, with Select
/// when `predicate` is set.
Result<ParseOutput> RunStagedParse(std::string_view input,
                                   const ParseOptions& options,
                                   const Predicate* predicate,
                                   PushdownStats* stats);

}  // namespace parparaw

#endif  // PARPARAW_CORE_STAGED_PARSE_H_
