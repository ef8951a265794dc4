#ifndef PARPARAW_LOADER_BULK_LOADER_H_
#define PARPARAW_LOADER_BULK_LOADER_H_

#include <string>
#include <vector>

#include "columnar/statistics.h"
#include "core/options.h"
#include "dfa/sniffer.h"
#include "util/result.h"

namespace parparaw {

/// Configuration of a bulk load.
struct LoadOptions {
  /// Explicit schema; empty = sniff the dialect and infer column types.
  Schema schema;
  /// Explicit format; unset (0 states) = sniff from the file head.
  Format format;
  /// A user-defined dialect (src/dialect), compiled at runtime; mutually
  /// exclusive with an explicit format and skips sniffing. Every dialect
  /// parses through the pipeline, over the register budget too.
  std::optional<dialect::DialectSpec> dialect;
  /// Header handling: -1 = auto (from the sniffer), 0 = no header,
  /// 1 = first row is a header (its names become the column names).
  int header = -1;
  /// Partition size for the streaming parse.
  size_t partition_size = 64 * 1024 * 1024;
  /// Performance tuning (plan/tuning.h), assigned wholesale onto the
  /// resolved per-partition ParseOptions. The defaults leave every knob at
  /// its auto sentinel, so the planner decides them from the DFA and the
  /// stream's length.
  Tuning tuning;
  /// Compute per-column statistics after the load.
  bool collect_statistics = true;
  /// What to do with malformed records (see robust/quarantine.h).
  robust::ErrorPolicy error_policy = robust::ErrorPolicy::kNull;
  /// Soft cap on parse working-set bytes; 0 = unlimited. The executor
  /// degrades instead of failing: partitions shrink until
  /// robust::kPipelineDepth of them fit, and that many stay in flight.
  /// LoadFile never materialises the whole file.
  int64_t memory_budget = 0;
  ThreadPool* pool = nullptr;
};

/// Result of a bulk load: the table plus everything an ingest pipeline
/// reports.
struct LoadResult {
  Table table;
  /// Malformed records captured under ErrorPolicy::kQuarantine, with
  /// stream-relative rows and byte spans.
  robust::QuarantineTable quarantine;
  SniffResult dialect;
  std::vector<ColumnStatistics> statistics;
  int64_t input_bytes = 0;
  int64_t rows_loaded = 0;
  int64_t rows_rejected = 0;
  double seconds = 0;
  StepTimings timings;

  std::string ReportToString() const;
};

/// \brief Bulk loading — the data-ingestion use case of the paper's
/// introduction, end to end: dialect sniffing, header/name resolution,
/// type inference, the pipelined ingestion executor (src/exec) with
/// bounded partition memory, reject accounting, and post-load column
/// statistics.
class BulkLoader {
 public:
  /// Loads a delimiter-separated file from disk.
  static Result<LoadResult> LoadFile(const std::string& path,
                                     const LoadOptions& options = {});

  /// Loads from an in-memory buffer.
  static Result<LoadResult> LoadBuffer(std::string_view input,
                                       const LoadOptions& options = {});

  /// Resolves dialect, header names and column types from the input head
  /// (`sample_truncated` = sample is a proper prefix of the input) into
  /// the per-partition ParseOptions, whose format is packed: a dialect is
  /// compiled here, once per load. Fills result->dialect. Shared by the
  /// load paths, parparaw::Reader's streaming mode and parparawd.
  static Result<ParseOptions> ResolveBaseOptions(std::string_view sample,
                                                 bool sample_truncated,
                                                 const LoadOptions& options,
                                                 LoadResult* result);
};

}  // namespace parparaw

#endif  // PARPARAW_LOADER_BULK_LOADER_H_
