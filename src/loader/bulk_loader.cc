#include "loader/bulk_loader.h"

#include <algorithm>
#include <cstdio>

#include "baseline/row_buffer.h"
#include "core/parser.h"
#include "dialect/dialect.h"
#include "exec/executor.h"
#include "io/file.h"
#include "obs/trace.h"
#include "robust/failpoint.h"
#include "util/string_util.h"

namespace parparaw {

namespace {

// The header line (the raw line skip_rows = 1 removes) as column names:
// the format's own walk splits it exactly as it splits every record, and
// each name is whitespace trimmed.
std::vector<std::string> HeaderNames(std::string_view sample,
                                     const Format& format) {
  const size_t eol = sample.find(static_cast<char>(format.record_delimiter));
  const size_t end = eol == std::string_view::npos ? sample.size() : eol + 1;
  RecordBuffer header;
  AppendParsedRange(format, reinterpret_cast<const uint8_t*>(sample.data()),
                    0, end, /*emit_trailing=*/true, &header);
  std::vector<std::string> names;
  if (header.num_records() == 0) return names;
  for (int64_t f = 0; f < header.FieldCount(0); ++f) {
    names.emplace_back(TrimWhitespace(header.FieldValue(f)));
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
        // A winning registered dialect compiles below with a user one; a
        // DSV winner resolves here.
        PARPARAW_ASSIGN_OR_RETURN(format,
                                  DsvFormat(result->dialect.options));
      }
      sniffed_header = result->dialect.has_header;
      sniffed = true;
    }
  }
  const bool header =
      options.header >= 0 ? options.header != 0 : sniffed_header;

  // Type resolution: explicit schema wins; otherwise parse a sample with
  // inference to fix the column types, then stream with that schema so all
  // partitions agree.
  ParseOptions base;
  static_cast<Tuning&>(base) = options.tuning;
  if (options.dialect.has_value()) {
    base.dialect = options.dialect;
  } else if (sniffed && result->dialect.dialect_spec.has_value()) {
    base.dialect = result->dialect.dialect_spec;
  } else {
    base.format = format;
  }
  base.pool = options.pool;
  // Compile a dialect once for the whole load: the header walk, the
  // inference probe and every partition parse with the packed format.
  PARPARAW_RETURN_NOT_OK(dialect::ResolveParseDialect(&base).status());
  std::vector<std::string> names;
  if (header && !sample.empty()) names = HeaderNames(sample, base.format);
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
