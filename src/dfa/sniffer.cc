#include "dfa/sniffer.h"

#include <algorithm>
#include <map>

#include "baseline/row_buffer.h"
#include "convert/inference.h"
#include "dialect/dialect.h"

namespace parparaw {

namespace {

struct Candidate {
  DsvOptions options;
  RecordBuffer records;
  uint32_t modal_columns = 0;
  double consistency = 0;
  int64_t num_records = 0;
};

// Parses the sample with a candidate format and scores column-count
// consistency.
Status EvaluateFormat(std::string_view sample, const Format& format,
                      Candidate* candidate) {
  AppendParsedRange(format,
                    reinterpret_cast<const uint8_t*>(sample.data()), 0,
                    sample.size(), /*emit_trailing=*/true,
                    &candidate->records);
  candidate->num_records = candidate->records.num_records();
  if (candidate->num_records == 0) return Status::OK();
  std::map<int64_t, int64_t> histogram;
  for (int64_t r = 0; r < candidate->num_records; ++r) {
    ++histogram[candidate->records.FieldCount(r)];
  }
  int64_t best_count = 0;
  for (const auto& [columns, count] : histogram) {
    if (count > best_count ||
        (count == best_count &&
         static_cast<uint32_t>(columns) > candidate->modal_columns)) {
      best_count = count;
      candidate->modal_columns = static_cast<uint32_t>(columns);
    }
  }
  candidate->consistency =
      static_cast<double>(best_count) / candidate->num_records;
  return Status::OK();
}

Status Evaluate(std::string_view sample, Candidate* candidate) {
  PARPARAW_ASSIGN_OR_RETURN(Format format, DsvFormat(candidate->options));
  return EvaluateFormat(sample, format, candidate);
}

// True when `sv`'s classification is a concrete non-string type.
bool LooksTyped(InferredKind kind) {
  return kind == InferredKind::kInt64 || kind == InferredKind::kFloat64 ||
         kind == InferredKind::kDate || kind == InferredKind::kTimestamp ||
         kind == InferredKind::kBool;
}

}  // namespace

Result<SniffResult> SniffDsvFormat(std::string_view sample, int max_rows) {
  if (sample.empty()) {
    return Status::Invalid("cannot sniff an empty sample");
  }
  // Cap the sample at max_rows raw lines (a quoted newline may split a
  // record, which only costs the header check a row).
  int lines = 0;
  size_t end = sample.size();
  for (size_t i = 0; i < sample.size(); ++i) {
    if (sample[i] == '\n' && ++lines >= max_rows) {
      end = i + 1;
      break;
    }
  }
  sample = sample.substr(0, end);

  // CRLF detection over raw lines.
  int64_t crlf = 0;
  int64_t lf = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (sample[i] == '\n') {
      ++lf;
      if (i > 0 && sample[i - 1] == '\r') ++crlf;
    }
  }
  const bool use_crlf = lf > 0 && crlf * 2 > lf;

  std::vector<Candidate> candidates;
  std::vector<std::optional<dialect::DialectSpec>> candidate_specs;
  for (uint8_t delimiter : {',', '\t', ';', '|', ' '}) {
    for (uint8_t quote : {'"', '\0'}) {
      Candidate candidate;
      candidate.options.field_delimiter = delimiter;
      candidate.options.quote = quote;
      candidate.options.strict_quotes = false;  // lenient while sniffing
      candidate.options.ignore_carriage_return = use_crlf;
      PARPARAW_RETURN_NOT_OK(Evaluate(sample, &candidate));
      candidates.push_back(std::move(candidate));
      candidate_specs.emplace_back();
    }
  }

  // User-registered dialects compete on the same score: the packed format
  // drives the same reference walk as the DSV candidates. A spec that no
  // longer compiles is skipped rather than failing the sniff.
  for (const dialect::DialectSpec& spec : dialect::RegisteredDialects()) {
    Result<dialect::CompiledDialect> compiled = dialect::Compile(spec);
    if (!compiled.ok()) continue;
    Candidate candidate;
    candidate.options.field_delimiter = spec.field_delimiter != 0
                                            ? spec.field_delimiter
                                            : spec.record_delimiter_final();
    candidate.options.record_delimiter = spec.record_delimiter_final();
    candidate.options.quote = spec.quote;
    candidate.options.comment = spec.comment;
    candidate.options.skip_empty_lines = spec.skip_empty_lines;
    candidate.options.strict_quotes = spec.strict_quotes;
    PARPARAW_RETURN_NOT_OK(
        EvaluateFormat(sample, compiled->format, &candidate));
    candidates.push_back(std::move(candidate));
    candidate_specs.emplace_back(spec);
  }

  // Pick the most consistent multi-column dialect; prefer a registered
  // dialect on ties (explicit user intent), then quote support (a
  // superset for well-formed data) and more columns.
  const Candidate* best = nullptr;
  size_t best_index = 0;
  auto score = [](const Candidate& c) {
    const double multi_column = c.modal_columns > 1 ? 1.0 : 0.05;
    return c.consistency * multi_column;
  };
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& candidate = candidates[i];
    if (candidate.num_records == 0) continue;
    const bool wins =
        best == nullptr || score(candidate) > score(*best) ||
        (score(candidate) == score(*best) &&
         ((candidate_specs[i].has_value() &&
           !candidate_specs[best_index].has_value()) ||
          (candidate_specs[i].has_value() ==
               candidate_specs[best_index].has_value() &&
           candidate.modal_columns > best->modal_columns)));
    if (wins) {
      best = &candidate;
      best_index = i;
    }
  }
  if (best == nullptr) {
    return Status::ParseError("sample contains no records");
  }

  SniffResult result;
  result.options = best->options;
  result.dialect_spec = candidate_specs[best_index];
  result.num_columns = best->modal_columns;
  result.confidence = best->consistency;

  // Header heuristic: some column whose body is typed but whose first row
  // is not.
  if (best->num_records >= 2) {
    for (uint32_t j = 0; j < best->modal_columns && !result.has_header;
         ++j) {
      if (j >= static_cast<uint32_t>(best->records.FieldCount(0))) break;
      const InferredKind head = ClassifyField(
          best->records.FieldValue(best->records.FirstField(0) + j));
      if (head != InferredKind::kString) continue;
      InferredKind body = InferredKind::kEmpty;
      for (int64_t r = 1; r < best->num_records; ++r) {
        if (j < static_cast<uint32_t>(best->records.FieldCount(r))) {
          body = Join(body, ClassifyField(best->records.FieldValue(
                                best->records.FirstField(r) + j)));
        }
      }
      if (LooksTyped(body)) result.has_header = true;
    }
  }
  return result;
}

}  // namespace parparaw
