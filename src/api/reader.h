#ifndef PARPARAW_API_READER_H_
#define PARPARAW_API_READER_H_

#include <functional>
#include <string>
#include <string_view>

#include "exec/executor.h"
#include "loader/bulk_loader.h"
#include "util/result.h"

namespace parparaw {

/// \brief The one front door of the library.
///
/// Unifies what used to require picking between Parser::Parse (in-memory,
/// no dialect resolution), BulkLoader::LoadFile/LoadBuffer (sniffing +
/// statistics) and exec::PipelineExecutor (bounded memory)
/// behind a single options-validated builder:
///
///   PARPARAW_ASSIGN_OR_RETURN(Table table,
///       Reader::FromFile("data.csv").Read());
///
///   auto result = Reader::FromBuffer(csv)
///                     .WithErrorPolicy(robust::ErrorPolicy::kQuarantine)
///                     .WithMemoryBudget(1 << 30)
///                     .ReadDetailed();
///
///   // Bounded-memory streaming: per-partition tables in stream order.
///   auto stats = Reader::FromFile("huge.csv").ReadStream(
///       [&](Table&& batch) { return Append(std::move(batch)); });
///
/// Every Read* entry point validates the option combination up front
/// (ParseOptions::Validate) and runs the pipelined ingestion executor, so
/// reads overlap parsing and type conversion across partitions. The old
/// entry points remain as the stable low-level API; new code should start
/// here.
class Reader {
 public:
  /// Reads a delimiter-separated file from disk, partition by partition.
  static Reader FromFile(std::string path);

  /// Reads from caller-owned memory. The buffer must stay alive and
  /// unchanged until the Read* call returns.
  static Reader FromBuffer(std::string_view buffer);

  // --- configuration (each moves the builder through for chaining) ---

  /// Explicit column types; skips type inference.
  Reader&& WithSchema(Schema schema) &&;
  /// Explicit format; skips dialect sniffing.
  Reader&& WithFormat(Format format) &&;
  /// User-defined dialect (src/dialect), compiled at runtime into the
  /// format; skips sniffing. Mutually exclusive with WithFormat.
  Reader&& WithDialect(dialect::DialectSpec spec) &&;
  /// First row is (true) / is not (false) a header. Default: sniffed.
  Reader&& WithHeader(bool has_header) &&;
  /// What to do with malformed records (kNull/kFail/kSkip/kQuarantine).
  Reader&& WithErrorPolicy(robust::ErrorPolicy policy) &&;
  /// Soft cap on the parse working set; the executor degrades (partitions
  /// shrink until robust::kPipelineDepth of them fit) instead of refusing.
  Reader&& WithMemoryBudget(int64_t bytes) &&;
  Reader&& WithPartitionSize(size_t bytes) &&;
  Reader&& WithThreadPool(ThreadPool* pool) &&;
  /// Assigns the consolidated tuning surface (plan/tuning.h) wholesale:
  /// kernel, chunk size and tagging/transpose modes. The default Tuning
  /// leaves every knob at its auto sentinel, so the planner decides them
  /// from the DFA and the input's length. The partition size is this
  /// builder's own (WithPartitionSize).
  Reader&& WithTuning(Tuning tuning) &&;

  // --- terminal operations ---

  /// The table, materialised.
  Result<Table> Read() &&;

  /// The table plus dialect, quarantine and timings.
  Result<LoadResult> ReadDetailed() &&;

  /// Bounded-memory streaming: `sink` receives each partition's table in
  /// stream order; only the admission-controlled working set is ever
  /// resident. The sink returning an error cancels the ingest. Returns
  /// scheduling stats (partitions, stage overlap).
  Result<exec::IngestStats> ReadStream(
      const std::function<Status(Table&&)>& sink) &&;

  /// What *would* this read do? Resolves dialect/schema from the head
  /// sample and plans the stream without executing the parse. The
  /// returned plan's Explain() renders the decision and the reasoning for
  /// each knob the planner decided (pinned knobs pass through).
  Result<plan::ParsePlan> Explain() &&;

 private:
  Reader() = default;

  bool from_file_ = false;
  std::string path_;
  std::string_view buffer_;
  LoadOptions options_;
};

}  // namespace parparaw

#endif  // PARPARAW_API_READER_H_
