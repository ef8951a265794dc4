#include "loader/bulk_loader.h"

#include <algorithm>
#include <cstdio>

#include "core/parser.h"
#include "exec/executor.h"
#include "io/file.h"
#include "obs/trace.h"
#include "robust/failpoint.h"
#include "util/string_util.h"

namespace parparaw {

namespace {

// One header field as a column name: whitespace trimmed, surrounding
// quotes removed and a doubled quote inside them read as a literal quote.
std::string HeaderName(std::string_view piece, char quote) {
  piece = TrimWhitespace(piece);
  if (quote == 0 || piece.size() < 2 || piece.front() != quote ||
      piece.back() != quote) {
    return std::string(piece);
  }
  piece = piece.substr(1, piece.size() - 2);
  std::string name;
  for (size_t i = 0; i < piece.size(); ++i) {
    name += piece[i];
    if (piece[i] == quote && i + 1 < piece.size() && piece[i + 1] == quote) {
      ++i;
    }
  }
  return name;
}

// Splits the first record into column names. Quote-aware: a field or
// record delimiter inside a quoted field belongs to the name.
std::vector<std::string> HeaderNames(std::string_view input,
                                     const DsvOptions& dialect) {
  const char quote = static_cast<char>(dialect.quote);
  const char field_delimiter = static_cast<char>(dialect.field_delimiter);
  const char record_delimiter = static_cast<char>(dialect.record_delimiter);
  std::vector<std::string> names;
  size_t begin = 0;
  bool quoted_field = false;  // the current field opened with a quote
  bool quoted = false;        // inside that field's quotes
  for (size_t i = 0;; ++i) {
    const bool end_of_record =
        i == input.size() || (!quoted && input[i] == record_delimiter);
    if (!end_of_record) {
      // As in the parser, only a quote at the field's start opens a quoted
      // field; inside one every quote toggles, so a doubled quote (an
      // escaped literal) leaves it open.
      if (quote != 0 && input[i] == quote) {
        if (i == begin) quoted_field = true;
        if (quoted_field) quoted = !quoted;
      }
      if (quoted || input[i] != field_delimiter) continue;
    }
    std::string_view piece = input.substr(begin, i - begin);
    if (end_of_record && !piece.empty() && piece.back() == '\r') {
      piece.remove_suffix(1);
    }
    names.push_back(HeaderName(piece, quote));
    if (end_of_record) return names;
    begin = i + 1;
    quoted_field = false;
  }
}

// Cuts the first record of a fixed-width dialect into column names by the
// field widths; the dialect has no field delimiter and no quoting.
std::vector<std::string> FixedWidthHeaderNames(std::string_view input,
                                               const std::vector<int>& widths) {
  std::vector<std::string> names;
  size_t begin = 0;
  for (int width : widths) {
    const std::string_view piece =
        begin < input.size() ? input.substr(begin, static_cast<size_t>(width))
                             : std::string_view();
    names.push_back(HeaderName(piece, 0));
    begin += static_cast<size_t>(width);
  }
  return names;
}

// Resolves dialect, header names and column types from the input head.
// `sample` is the start of the input; `sample_truncated` says it is a
// proper prefix (a file load reads only the head), in which case
// the inference probe excludes the possibly cut-off trailing record.
// Fills result->dialect and returns the per-partition ParseOptions.
Result<ParseOptions> ResolveBase(std::string_view sample,
                                 bool sample_truncated,
                                 const LoadOptions& options,
                                 LoadResult* result) {
  Format format = options.format;
  bool sniffed_header = false;
  bool sniffed = false;
  if (options.dialect.has_value()) {
    if (format.dfa.num_states() != 0) {
      return Status::Invalid(
          "LoadOptions sets both a format and a dialect; pick one (the "
          "dialect compiles into the format)");
    }
    PARPARAW_RETURN_NOT_OK(options.dialect->Validate());
    // A user dialect pins the format family — nothing to sniff.
  } else if (format.dfa.num_states() == 0) {
    if (sample.empty()) {
      PARPARAW_ASSIGN_OR_RETURN(format, Rfc4180Format());
    } else {
      // Sniff exactly once, from the head sample; every partition of the
      // load reuses the resolved format.
      PARPARAW_ASSIGN_OR_RETURN_CTX(
          result->dialect,
          SniffDsvFormat(sample.substr(
              0, std::min<size_t>(sample.size(), 64 * 1024))),
          "loader.sniff");
      if (!result->dialect.dialect_spec.has_value()) {
        // A winning registered dialect stays a dialect (compiled by the
        // downstream entry point); a DSV winner resolves here.
        PARPARAW_ASSIGN_OR_RETURN(format,
                                  DsvFormat(result->dialect.options));
      }
      sniffed_header = result->dialect.has_header;
      sniffed = true;
    }
  }
  const bool header =
      options.header >= 0 ? options.header != 0 : sniffed_header;

  const dialect::DialectSpec* spec =
      options.dialect.has_value() ? &*options.dialect
      : sniffed && result->dialect.dialect_spec.has_value()
          ? &*result->dialect.dialect_spec
          : nullptr;
  std::vector<std::string> names;
  if (header && !sample.empty() && spec != nullptr &&
      !spec->fixed_widths.empty()) {
    names = FixedWidthHeaderNames(sample, spec->fixed_widths);
  } else if (header && !sample.empty()) {
    // When the caller pinned a format, the sniffer never ran and
    // result->dialect holds defaults — split the header with the pinned
    // format's delimiters, not with ','/'\n' regardless of dialect.
    DsvOptions header_dialect = result->dialect.options;
    if (options.dialect.has_value()) {
      header_dialect.field_delimiter = options.dialect->field_delimiter;
      header_dialect.record_delimiter =
          options.dialect->record_delimiter_final();
      header_dialect.quote = options.dialect->quote;
    } else if (!sniffed) {
      header_dialect.field_delimiter = format.field_delimiter;
      header_dialect.record_delimiter = format.record_delimiter;
    }
    names = HeaderNames(sample, header_dialect);
  }

  // Type resolution: explicit schema wins; otherwise parse a sample with
  // inference to fix the column types, then stream with that schema so all
  // partitions agree.
  ParseOptions base;
  static_cast<Tuning&>(base) = options.tuning;
  if (options.dialect.has_value()) {
    // Left as a dialect: every downstream entry point (Parser, streaming,
    // exec) compiles it once.
    base.dialect = options.dialect;
  } else if (sniffed && result->dialect.dialect_spec.has_value()) {
    base.dialect = result->dialect.dialect_spec;
  } else {
    base.format = format;
  }
  base.pool = options.pool;
  base.skip_rows = header ? 1 : 0;
  if (options.schema.num_fields() > 0) {
    base.schema = options.schema;
  } else {
    ParseOptions sample_options = base;
    sample_options.infer_types = true;
    const std::string_view probe_input =
        sample.substr(0, std::min(sample.size(), kHeadSampleBytes));
    // A probe cut off mid-record would see a garbled last row and could
    // widen a column to string; drop the partial trailing record instead.
    sample_options.exclude_trailing_record =
        sample_truncated || probe_input.size() < sample.size();
    PARPARAW_ASSIGN_OR_RETURN_CTX(
        ParseOutput probe, Parser::Parse(probe_input, sample_options),
        "loader.infer");
    base.schema = probe.table.schema;
    for (int c = 0; c < base.schema.num_fields(); ++c) {
      if (c < static_cast<int>(names.size()) && !names[c].empty()) {
        base.schema.mutable_field(c)->name = names[c];
      }
    }
  }
  base.error_policy = options.error_policy;
  base.memory_budget = options.memory_budget;
  return base;
}

exec::ExecOptions ExecOptionsFor(ParseOptions base,
                                 const LoadOptions& options) {
  exec::ExecOptions exec_options;
  exec_options.base = std::move(base);
  exec_options.partition_size = options.partition_size;
  return exec_options;
}

// Shared tail of both load paths: table, quarantine, rejects, statistics.
Result<LoadResult> FinishLoad(exec::IngestResult ingested,
                              const LoadOptions& options,
                              obs::TraceSpan* probe, LoadResult result) {
  result.table = std::move(ingested.table);
  result.quarantine = std::move(ingested.quarantine);
  result.timings = ingested.timings;
  result.rows_loaded = result.table.num_rows;
  result.rows_rejected = result.table.NumRejected();

  if (options.collect_statistics) {
    PARPARAW_ASSIGN_OR_RETURN_CTX(
        result.statistics,
        ComputeTableStatistics(result.table, options.pool),
        "loader.statistics");
  }
  result.seconds = probe->Stop();
  return result;
}

}  // namespace

Result<ParseOptions> BulkLoader::ResolveBaseOptions(std::string_view sample,
                                                    bool sample_truncated,
                                                    const LoadOptions& options,
                                                    LoadResult* result) {
  return ResolveBase(sample, sample_truncated, options, result);
}

std::string LoadResult::ReportToString() const {
  std::string out;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "loaded %lld rows (%lld rejected) from %s in %.1f ms "
                "(%.3f GB/s)\n",
                static_cast<long long>(rows_loaded),
                static_cast<long long>(rows_rejected),
                FormatBytes(input_bytes).c_str(), seconds * 1e3,
                seconds > 0 ? static_cast<double>(input_bytes) / seconds /
                                  (1 << 30)
                            : 0.0);
  out += buf;
  std::snprintf(buf, sizeof(buf), "pipeline: %s\n",
                timings.ToString().c_str());
  out += buf;
  for (size_t c = 0; c < statistics.size(); ++c) {
    std::snprintf(buf, sizeof(buf), "  %-24s %-14s %s\n",
                  table.schema.field(static_cast<int>(c)).name.c_str(),
                  table.schema.field(static_cast<int>(c))
                      .type.ToString()
                      .c_str(),
                  statistics[c].ToString().c_str());
    out += buf;
  }
  return out;
}

Result<LoadResult> BulkLoader::LoadBuffer(std::string_view input,
                                          const LoadOptions& options) {
  PARPARAW_FAILPOINT("loader.load");
  // LoadOptions carries no sinks: the probe only times LoadResult::seconds.
  obs::TraceSpan probe(nullptr, "loader.load", "loader", nullptr, nullptr,
                       obs::Timing::kTimed);
  LoadResult result;
  result.input_bytes = static_cast<int64_t>(input.size());

  PARPARAW_ASSIGN_OR_RETURN(
      ParseOptions base,
      ResolveBase(input, /*sample_truncated=*/false, options, &result));
  exec::PipelineExecutor executor;
  PARPARAW_ASSIGN_OR_RETURN_CTX(
      exec::IngestResult ingested,
      executor.IngestBuffer(input, ExecOptionsFor(std::move(base), options)),
      "loader.exec");
  return FinishLoad(std::move(ingested), options, &probe, std::move(result));
}

Result<LoadResult> BulkLoader::LoadFile(const std::string& path,
                                        const LoadOptions& options) {
  PARPARAW_FAILPOINT("loader.load");
  // The executor reads the file partition by partition and its admission
  // controller enforces the memory budget, so the file is never
  // materialised whole: only the head sample (dialect and type
  // resolution) is read twice.
  obs::TraceSpan probe(nullptr, "loader.load", "loader", nullptr, nullptr,
                       obs::Timing::kTimed);
  LoadResult result;
  PARPARAW_ASSIGN_OR_RETURN(FileHead head,
                            ReadFileHead(path, kHeadSampleBytes, "loader"));
  result.input_bytes = head.file_size;
  PARPARAW_ASSIGN_OR_RETURN(
      ParseOptions base,
      ResolveBase(head.bytes, head.truncated, options, &result));
  exec::PipelineExecutor executor;
  PARPARAW_ASSIGN_OR_RETURN_CTX(
      exec::IngestResult ingested,
      executor.IngestFile(path, ExecOptionsFor(std::move(base), options)),
      "loader.exec");
  return FinishLoad(std::move(ingested), options, &probe, std::move(result));
}

}  // namespace parparaw
