#include "core/staged_parse.h"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "core/bitmap_step.h"
#include "core/context_step.h"
#include "core/convert_step.h"
#include "core/offset_step.h"
#include "core/partition_step.h"
#include "core/tag_step.h"
#include "dialect/dialect.h"
#include "obs/obs.h"
#include "plan/planner.h"
#include "robust/resource_guard.h"
#include "text/unicode.h"
#include "util/bit_util.h"

namespace parparaw {

namespace {

// Skips the first `skip_rows` physical lines (§4.3 "Skipping rows": rows
// are raw lines, pruned by an initial pass before any context is built, so
// they cannot interfere with the record/column assignment).
std::string_view SkipLeadingRows(std::string_view input, int64_t skip_rows,
                                 uint8_t row_delimiter) {
  while (skip_rows > 0 && !input.empty()) {
    const size_t pos = input.find(static_cast<char>(row_delimiter));
    if (pos == std::string_view::npos) return std::string_view();
    input.remove_prefix(pos + 1);
    --skip_rows;
  }
  return input;
}

// The error a rejected row stands for, composed from the convert/tag
// provenance (PipelineState::reject_kind / reject_column).
Status RowError(const PipelineState& state, const ParseOptions& options,
                int64_t row) {
  const uint8_t kind = state.reject_kind.empty()
                           ? 0
                           : state.reject_kind[static_cast<size_t>(row)];
  const int32_t col = state.reject_column.empty()
                          ? -1
                          : state.reject_column[static_cast<size_t>(row)];
  std::string where = "row " + std::to_string(row);
  if (col >= 0) where += ", column " + std::to_string(col);
  switch (kind) {
    case kRejectMalformed: {
      std::string type = "string";
      if (col >= 0 && col < options.schema.num_fields()) {
        type = options.schema.field(col).type.ToString();
      }
      return Status::ParseError(where + ": value is not a valid " + type);
    }
    case kRejectNull:
      return Status::TypeError(where + ": NULL in non-nullable column");
    case kRejectColumnCount:
      return Status::ParseError(where + ": wrong number of columns");
    default:
      return Status::ParseError(where + ": record rejected");
  }
}

// Applies ParseOptions::error_policy to the convert step's rejected set:
// fails (kFail), compacts rejected rows away (kSkip), or captures each
// rejected record with its byte span into output->quarantine (kQuarantine).
// `input` is the post-skip buffer the pipeline parsed; `skip_offset` is the
// byte count SkipLeadingRows trimmed, added back so spans land in the
// caller's original buffer.
Status ApplyErrorPolicy(PipelineState* state, const ParseOptions& options,
                        std::string_view input, int64_t skip_offset,
                        ParseOutput* output) {
  using robust::ErrorPolicy;
  Table& table = output->table;
  const int64_t rows = table.num_rows;

  // Column-count mismatches kept by the tag step (kQuarantine + kReject)
  // become rejected rows here, record-level provenance attached.
  if (!state->record_column_mismatch.empty()) {
    for (int64_t r = 0; r < state->num_records; ++r) {
      if (!state->record_column_mismatch[r]) continue;
      if (!state->record_dropped.empty() && state->record_dropped[r]) continue;
      const int64_t row = state->out_row_of_record[r];
      table.rejected[row] = 1;
      if (state->reject_kind[row] == kNotRejected) {
        state->reject_kind[row] = kRejectColumnCount;
        state->reject_column[row] = -1;
      }
    }
  }

  const ErrorPolicy policy = options.error_policy;
  if (policy == ErrorPolicy::kNull) return Status::OK();

  int64_t num_rejected = 0;
  for (uint8_t b : table.rejected) num_rejected += b;
  if (num_rejected == 0) return Status::OK();

  if (policy == ErrorPolicy::kFail) {
    for (int64_t row = 0; row < rows; ++row) {
      if (table.rejected[row]) return RowError(*state, options, row);
    }
    return Status::OK();
  }

  if (policy == ErrorPolicy::kSkip) {
    std::vector<int64_t> keep;
    keep.reserve(static_cast<size_t>(rows - num_rejected));
    for (int64_t row = 0; row < rows; ++row) {
      if (!table.rejected[row]) keep.push_back(row);
    }
    table = TakeRows(table, keep);
    table.rejected.assign(keep.size(), 0);
    output->records_dropped += num_rejected;
    return Status::OK();
  }

  // kQuarantine: byte-accurate spans for every rejected row. One walk over
  // the record mask recovers the record boundaries — it marks only
  // syntactic record delimiters, so quoted delimiters inside fields cannot
  // split a span.
  std::vector<int64_t> rec_of_row(static_cast<size_t>(rows), -1);
  for (int64_t r = 0; r < state->num_records; ++r) {
    if (!state->record_dropped.empty() && state->record_dropped[r]) continue;
    rec_of_row[state->out_row_of_record[r]] = r;
  }
  std::vector<int64_t> rec_end(static_cast<size_t>(state->num_records),
                               static_cast<int64_t>(state->size));
  {
    int64_t rec = 0;
    simd::ForEachMaskWord(0, state->size, [&](size_t w, uint64_t keep) {
      for (uint64_t bits = state->symbol_index[w].record & keep;
           bits != 0 && rec < state->num_records; bits &= bits - 1) {
        rec_end[rec++] = static_cast<int64_t>(64 * w) + std::countr_zero(bits);
      }
    });
  }
  for (int64_t row = 0; row < rows; ++row) {
    if (!table.rejected[row]) continue;
    const int64_t rec = rec_of_row[row];
    if (rec < 0) continue;  // defensive: rejected row with no record
    const int64_t begin = rec == 0 ? 0 : rec_end[rec - 1] + 1;
    const int64_t end = rec_end[rec];
    robust::QuarantineEntry entry;
    entry.row = row;
    entry.record_index = rec;
    entry.begin = begin + skip_offset;
    entry.end = end + skip_offset;
    entry.raw.assign(input.data() + begin, static_cast<size_t>(end - begin));
    entry.column = state->reject_column.empty()
                       ? -1
                       : state->reject_column[static_cast<size_t>(row)];
    const uint8_t kind = state->reject_kind.empty()
                             ? 0
                             : state->reject_kind[static_cast<size_t>(row)];
    entry.stage = kind == kRejectColumnCount ? "tag" : "convert";
    const Status why = RowError(*state, options, row);
    entry.code = why.code();
    entry.message = why.message();
    output->quarantine.Add(std::move(entry));
  }
  obs::AddCount(options.metrics, "robust.quarantined_rows",
                output->quarantine.size());
  return Status::OK();
}

// An empty parse result carrying the schema's columns with zero rows.
ParseOutput EmptyOutput(const ParseOptions& options) {
  ParseOutput output;
  for (int j = 0; j < options.schema.num_fields(); ++j) {
    bool is_skipped = false;
    for (int s : options.skip_columns) is_skipped |= (s == j);
    if (is_skipped) continue;
    output.table.schema.AddField(options.schema.field(j));
    Column column(options.schema.field(j).type);
    column.Allocate(0);
    output.table.columns.push_back(std::move(column));
  }
  return output;
}

}  // namespace

Status StagedParse::Scan(std::string_view input, const ParseOptions& options) {
  // Resolve defaults that the options struct cannot carry statically.
  resolved_ = options;
  // Entry points resolve dialects up front; direct StagedParse users get
  // theirs compiled here.
  PARPARAW_RETURN_NOT_OK(dialect::ResolveParseDialect(&resolved_).status());
  if (resolved_.format.dfa.num_states() == 0) {
    PARPARAW_ASSIGN_OR_RETURN(resolved_.format, Rfc4180Format());
  }
  if (resolved_.pool == nullptr) resolved_.pool = ThreadPool::Default();
  // Entry points have planned and pinned every knob already; a direct
  // StagedParse plans its input exactly as Parser::Parse would.
  plan::PlanStream(static_cast<int64_t>(input.size()), &resolved_);

  // UTF-16 input: data-parallel transcode pre-pass (§4.2), then parse the
  // UTF-8 bytes.
  if (resolved_.encoding == TextEncoding::kUtf16Le) {
    PARPARAW_ASSIGN_OR_RETURN(
        transcoded_,
        TranscodeUtf16LeToUtf8(resolved_.pool, input));
    input = transcoded_;
    resolved_.encoding = TextEncoding::kUtf8;
  }

  skip_offset_ = 0;
  if (resolved_.skip_rows > 0) {
    const size_t before = input.size();
    input = SkipLeadingRows(input, resolved_.skip_rows,
                            resolved_.format.record_delimiter);
    skip_offset_ = static_cast<int64_t>(before - input.size());
  }
  input_ = input;
  if (input.empty()) {
    output_ = EmptyOutput(resolved_);
    // Everything (if anything) was consumed by the row skip: the remainder
    // is empty and starts at the end of the caller's buffer.
    if (resolved_.exclude_trailing_record) {
      output_.remainder_offset = skip_offset_;
    }
    finished_ = true;
    return Status::OK();
  }

  // Resource guard: refuse up front when the monolithic working set cannot
  // fit the budget. The bulk loader and the executor degrade
  // (smaller partitions / streaming / fewer in flight) instead of
  // surfacing this.
  // The envelope depends on the transpose mode: the symbol sort carries
  // per-byte tag metadata (16x), the field gather O(fields) entries (8x).
  const int64_t working_set_factor = ParseWorkingSetFactor(resolved_);
  if (resolved_.memory_budget > 0 &&
      robust::EstimateParseMemory(static_cast<int64_t>(input.size()),
                                  working_set_factor) >
          resolved_.memory_budget) {
    return Status::ResourceExhausted(
        "parsing " + std::to_string(input.size()) + " bytes needs ~" +
        std::to_string(
            robust::EstimateParseMemory(static_cast<int64_t>(input.size()),
                                        working_set_factor)) +
        " working-set bytes, over the " +
        std::to_string(resolved_.memory_budget) +
        "-byte budget; use BulkLoader or exec::PipelineExecutor to "
        "degrade");
  }

  state_.data = reinterpret_cast<const uint8_t*>(input.data());
  state_.size = input.size();
  state_.options = &resolved_;
  state_.pool = resolved_.pool;
  state_.num_chunks = static_cast<int64_t>(
      bit_util::CeilDiv(input.size(), resolved_.chunk_size));

  output_.work.input_bytes = static_cast<int64_t>(input.size());
  output_.work.parse_bytes_read = static_cast<int64_t>(input.size());
  // |S| instances per byte, or the one instance of the sequential walk
  // over the register budget.
  const Dfa& dfa = resolved_.format.dfa;
  output_.work.dfa_transitions =
      static_cast<int64_t>(input.size()) *
      (dfa.fits_register_budget() ? dfa.num_states() : 1);
  output_.work.scan_elements = state_.num_chunks * 3;  // context + 2 offsets

  PARPARAW_RETURN_NOT_OK_CTX(ContextStep::Run(&state_, &output_.timings),
                             "step.context");
  PARPARAW_RETURN_NOT_OK_CTX(BitmapStep::Run(&state_, &output_.timings),
                             "step.bitmap");

  if (resolved_.exclude_trailing_record) {
    // Locate where the (possibly excluded) trailing record starts: one past
    // the last true record delimiter, the highest record bit of the last
    // chunk that holds a record.
    if (!state_.has_trailing_record) {
      output_.remainder_offset = static_cast<int64_t>(state_.size);
    } else {
      output_.remainder_offset = 0;
      for (int64_t c = state_.num_chunks - 1; c >= 0; --c) {
        if (state_.record_counts[c] == 0) continue;
        const ChunkRange range = ChunkRangeOf(state_, c);
        output_.remainder_offset =
            LastRecordDelimiter(state_.symbol_index, range.begin, range.end) +
            1;
        break;
      }
    }
    // Like the quarantine spans, the remainder offset is reported in the
    // caller's coordinate space, including any skipped leading rows — the
    // executor slices its carry-over from the original buffer.
    output_.remainder_offset += skip_offset_;
  }

  PARPARAW_RETURN_NOT_OK_CTX(OffsetStep::Run(&state_, &output_.timings),
                             "step.offset");
  return Status::OK();
}

Status StagedParse::TagAndPartition() {
  PARPARAW_RETURN_NOT_OK_CTX(TagStep::Run(&state_, &output_.timings),
                             "step.tag");
  // The field gather's tag step writes its per-record arrays and the
  // tile tallies; the symbol sort writes a tagged CSS slot per symbol.
  output_.work.tag_bytes_written +=
      state_.transpose_mode == TransposeMode::kFieldGather
          ? static_cast<int64_t>(
                state_.record_column_counts.size() * sizeof(uint32_t) +
                state_.record_dropped.size() +
                state_.out_row_of_record.size() * sizeof(int64_t) +
                state_.gather_tallies.size() * sizeof(int64_t))
          : static_cast<int64_t>(state_.css.size()) *
                (resolved_.tagging_mode == TaggingMode::kRecordTags ? 9 : 5);
  PARPARAW_RETURN_NOT_OK_CTX(
      PartitionStep::Run(&state_, &output_.timings, &output_.work),
      "step.partition");
  return Status::OK();
}

Status StagedParse::Select(const Predicate& predicate,
                           PushdownStats* stats) {
  const int num_fields = resolved_.schema.num_fields();
  if (num_fields == 0) return Status::Invalid("pushdown requires a schema");
  if (predicate.column < 0 || predicate.column >= num_fields) {
    return Status::Invalid(
        "predicate column " + std::to_string(predicate.column) +
        " out of range for " + std::to_string(num_fields) + " columns");
  }
  if (!resolved_.skip_records.empty() || !resolved_.skip_columns.empty()) {
    return Status::Invalid(
        "pushdown cannot be combined with explicit skip sets");
  }
  if (resolved_.column_count_policy != ColumnCountPolicy::kRobust) {
    return Status::Invalid("pushdown requires the robust column policy");
  }
  if (stats != nullptr) *stats = PushdownStats();
  if (finished_) return Status::OK();
  obs::TraceSpan probe(resolved_.tracer, "pushdown.probe", "query",
                       resolved_.metrics, "pushdown.probe_us",
                       obs::Timing::kUntimed);

  // Phase 1: the predicate column alone. Its rows stay record numbers: a
  // malformed value is NULL under kSkip and kQuarantine, so it matches no
  // predicate and phase 2 never sees it (nothing to skip, nothing to
  // quarantine). The steps run directly, as Partition() would free the
  // bitmap indexes.
  const robust::ErrorPolicy policy = resolved_.error_policy;
  if (policy == robust::ErrorPolicy::kSkip ||
      policy == robust::ErrorPolicy::kQuarantine) {
    resolved_.error_policy = robust::ErrorPolicy::kNull;
  }
  for (int j = 0; j < num_fields; ++j) {
    if (j != predicate.column) resolved_.skip_columns.push_back(j);
  }
  ParseOutput column;
  const Status probed = [&]() -> Status {
    PARPARAW_RETURN_NOT_OK(TagAndPartition());
    PARPARAW_RETURN_NOT_OK_CTX(ConvertStep::Run(&state_, &output_.timings,
                                                &output_.work, &column),
                               "step.convert");
    return ApplyErrorPolicy(&state_, resolved_, input_, skip_offset_,
                            &column);
  }();
  resolved_.skip_columns.clear();
  resolved_.error_policy = policy;
  PARPARAW_RETURN_NOT_OK(probed);

  Predicate remapped = predicate;
  remapped.column = 0;
  PARPARAW_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> selection,
      EvaluatePredicate(column.table, remapped, resolved_.pool));
  const int64_t rows = column.table.num_rows;
  for (int64_t r = 0; r < rows; ++r) {
    if (!selection[r]) resolved_.skip_records.push_back(r);
  }
  const int64_t selected =
      rows - static_cast<int64_t>(resolved_.skip_records.size());
  if (stats != nullptr) *stats = PushdownStats{rows, selected};
  obs::AddCount(resolved_.metrics, "pushdown.records_scanned", rows);
  obs::AddCount(resolved_.metrics, "pushdown.records_selected", selected);
  return Status::OK();
}

Status StagedParse::Partition() {
  PARPARAW_RETURN_NOT_OK(TagAndPartition());
  // The CSS or the gathered columns now hold every value: free the scratch
  // no later stage reads. kQuarantine keeps the index, whose record mask
  // ApplyErrorPolicy walks for the byte spans.
  if (resolved_.error_policy != robust::ErrorPolicy::kQuarantine) {
    state_.symbol_index = SymbolIndex();
  }
  return Status::OK();
}

Status StagedParse::Convert() {
  PARPARAW_RETURN_NOT_OK_CTX(
      ConvertStep::Run(&state_, &output_.timings, &output_.work, &output_),
      "step.convert");
  PARPARAW_RETURN_NOT_OK(
      ApplyErrorPolicy(&state_, resolved_, input_, skip_offset_, &output_));

  if (resolved_.metrics != nullptr && resolved_.metrics->enabled()) {
    obs::MetricsRegistry* m = resolved_.metrics;
    obs::AddCount(m, "parse.runs", 1);
    obs::AddCount(m, "parse.bytes", output_.work.input_bytes);
    obs::AddCount(m, "parse.chunks", state_.num_chunks);
    obs::AddCount(m, "parse.records", state_.num_records);
    obs::AddCount(m, "parse.out_rows", output_.table.num_rows);
    obs::AddCount(m, "parse.css_symbols",
                  state_.transpose_mode == TransposeMode::kFieldGather
                      ? state_.gathered_value_bytes
                      : static_cast<int64_t>(state_.css.size()));
  }
  return Status::OK();
}

}  // namespace parparaw
