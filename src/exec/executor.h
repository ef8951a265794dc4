#ifndef PARPARAW_EXEC_EXECUTOR_H_
#define PARPARAW_EXEC_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "exec/admission.h"
#include "plan/planner.h"
#include "query/pushdown.h"
#include "util/result.h"

namespace parparaw {
namespace exec {

/// \brief Configuration of a pipelined ingest.
struct ExecOptions {
  /// Per-partition parse configuration. A schema is recommended (without
  /// one, every partition must observe the same column count).
  /// skip_records is refused: it numbers the records of one buffer, and
  /// every partition would skip its own record r (use Parser::Parse).
  ParseOptions base;

  /// A query's WHERE clause; nullopt = a plain parse. When set, each
  /// partition's sort morsel selects (StagedParse::Select, the pushdown of
  /// query/pushdown.h) before it tags, so `base` needs the pushdown's
  /// requirements. parparawd's query requests set it.
  std::optional<Predicate> predicate;

  /// Bytes per partition (before any memory-budget clamp).
  size_t partition_size = 64 * 1024 * 1024;

  /// Hard cap on partitions resident across all stages of this ingest.
  /// 0 = auto: derived from base.memory_budget when one is set (the
  /// admission controller *clamps* concurrency to fit the budget, it
  /// never refuses), otherwise one partition per stage (4).
  int max_inflight_partitions = 0;

  /// Test hook invoked at each stage's entry for each partition:
  /// stage 0 = read, 1 = scan, 2 = sort, 3 = convert. Used by the test
  /// suite to throttle a stage (backpressure) or trigger cancellation at
  /// a deterministic point. Must be thread-safe; null = no hook.
  std::function<void(int stage, int64_t partition)> stage_hook;

  /// Cooperative wall-clock deadline for the whole ingest; time_point::max()
  /// = none. Checked at every partition hand-off (each stage's entry) and
  /// honoured by admission waits, so an expired ingest stops at the next
  /// boundary with StatusCode::kDeadlineExceeded through the same abort
  /// seam as Cancel() — partial output discarded, admission slots drained.
  /// The serving daemon sets this from the request's deadline_ms.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Occupancy/scheduling facts of one ingest, for tests and reporting.
struct IngestStats {
  int num_partitions = 0;
  /// Admission-controller limit that was enforced (resident partitions).
  int admission_limit = 0;
  /// High-water mark of partitions resident at once; <= admission_limit.
  int max_inflight = 0;
  int64_t bytes = 0;
  double wall_seconds = 0;
  /// Per-stage busy time (sum over partitions). With pipelining their sum
  /// exceeds wall_seconds — that surplus is exactly the overlap won.
  double read_seconds = 0;
  double scan_seconds = 0;
  double sort_seconds = 0;
  double convert_seconds = 0;
};

/// What one partition did, recorded at in-order delivery. ModelStream
/// (stream/stream_model.h) replays these records through the PCIe and
/// device models to build the modelled Fig. 7 timeline of the ingest.
struct PartitionRecord {
  /// Stream bytes the partition consumed (excludes its carry-in).
  int64_t bytes = 0;
  /// Bytes of the unterminated trailing record carried into the next
  /// partition.
  int64_t carry_bytes = 0;
  /// Buffer bytes of the partition's table (Table::TotalBufferBytes).
  int64_t output_bytes = 0;
  WorkCounters work;
};

/// Result of a pipelined ingest (the executor is the *real* counterpart of
/// the modelled Fig. 7 schedule; ModelStream derives the modelled timeline
/// from `partitions`).
struct IngestResult {
  Table table;
  /// Under ErrorPolicy::kQuarantine: malformed records across all
  /// partitions. Rows index `table`, spans index the logical byte stream;
  /// record_index stays partition-local.
  robust::QuarantineTable quarantine;
  /// The per-stream tuning decision every partition ran under (PlanParse
  /// of the stream's length and the caller's pins); plan.kernel_level is
  /// the level every partition's context/bitmap passes ran with.
  plan::ParsePlan plan;
  StepTimings timings;
  WorkCounters work;
  IngestStats stats;
  /// One record per delivered partition, in stream order.
  std::vector<PartitionRecord> partitions;
  /// Query ingests (ExecOptions::predicate): records scanned and selected,
  /// summed over the partitions at delivery, in stream order.
  PushdownStats pushdown;
};

/// Consumes per-partition tables in stream order (bounded-memory
/// streaming: the executor then never concatenates). Returning an error
/// cancels the ingest.
using PartitionSink = std::function<Status(Table&&)>;

/// \brief Pipelined asynchronous ingestion executor — the paper's §5
/// streaming schedule (Fig. 7, Fig. 12) on the real CPU path.
///
/// Ingestion runs as a morsel graph over partitions:
///
///   read -> scan morsel -> sort morsel -> convert morsel -> deliver
///
/// The calling thread performs the sequential admission-gated reads;
/// each partition then flows through chained scan/sort/convert morsels
/// scheduled on the shared work-stealing ThreadPool (see
/// docs/architecture.md, "Scheduling"), so partition k's conversion
/// overlaps partition k+1's radix sort, k+2's scan and k+3's read on
/// whatever worker is idle — no thread is pinned to a stage, and several
/// concurrent ingests (multi-file, parparawd) interleave fairly on one
/// pool. The scan stage (context, bitmap and offset steps) is the only
/// sequentially-dependent one (partition k+1's carry-over is known only
/// after partition k's scan), exactly like the carry dependency of the GPU
/// pipeline; a scan token serialises it in stream order while everything
/// downstream, the tag step included, overlaps freely. Converted
/// partitions are re-ordered and delivered in stream order, so results are
/// bit-identical to the serial schedule. Each stage's data-parallel inner
/// work still fans out over the same pool.
///
/// An admission controller clamps the number of partitions resident
/// across all stages so the total working set respects
/// ParseOptions::memory_budget (clamp, not refuse — at worst the
/// pipeline degrades to one partition in flight, the serial schedule).
/// Several files can be ingested concurrently through one executor; they
/// share the admission controller, so the budget holds globally.
///
/// Every dialect runs this schedule, one over the SIMD register budget
/// too: its scan morsel's context step walks the entry states
/// sequentially, and everything after runs chunk-parallel as usual. A
/// query (ExecOptions::predicate) runs the same morsels, its sort morsel
/// selecting before it tags.
/// A parse error surfaces in stream order, so the ingest fails with the
/// error of the first failing partition, as a monolithic parse would.
///
/// Cancellation is cooperative: Cancel() aborts every in-flight ingest
/// at its next stage boundary with StatusCode::kCancelled. Faults from
/// the failpoint registry (exec.queue.*.push/pop, exec.read,
/// exec.ingest) surface as clean errors; the chaos suite asserts
/// clean-error-or-bit-identical against the fault-free run.
class PipelineExecutor {
 public:
  PipelineExecutor() = default;
  /// Shares `admission` (not owned, must outlive the executor) instead of
  /// the executor's private controller. Several executors bound to one
  /// controller admit partitions against a single global inflight count —
  /// the serving daemon binds one executor per request to the server's
  /// controller so every client's ingest draws from the same memory
  /// budget, while Cancel() stays per-request.
  explicit PipelineExecutor(AdmissionController* admission)
      : admission_(admission) {}
  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Ingests a file, reading it partition by partition (never
  /// materialising the whole file).
  Result<IngestResult> IngestFile(const std::string& path,
                                  const ExecOptions& options);

  /// Ingests an in-memory buffer through the same staged pipeline.
  Result<IngestResult> IngestBuffer(std::string_view input,
                                    const ExecOptions& options);

  /// Streaming flavours: each partition's table goes to `sink` in stream
  /// order instead of being concatenated; IngestResult::table stays
  /// empty. Memory stays bounded by the admission limit.
  Result<IngestResult> StreamFile(const std::string& path,
                                  const ExecOptions& options,
                                  const PartitionSink& sink);
  Result<IngestResult> StreamBuffer(std::string_view input,
                                    const ExecOptions& options,
                                    const PartitionSink& sink);

  /// Ingests several files concurrently (bounded by
  /// `max_concurrent_files`), sharing this executor's admission
  /// controller so memory_budget is respected globally. Results are in
  /// input order.
  std::vector<Result<IngestResult>> IngestFiles(
      const std::vector<std::string>& paths, const ExecOptions& options,
      int max_concurrent_files = 2);

  /// Cooperatively cancels every in-flight (and future) ingest on this
  /// executor: stages stop at their next boundary, admission waits wake,
  /// and the ingest returns kCancelled. One-shot — construct a fresh
  /// executor to ingest again.
  void Cancel();

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// The admission controller this executor's ingests draw slots from:
  /// the shared one when constructed with it, the private one otherwise.
  AdmissionController* admission() {
    return admission_ != nullptr ? admission_ : &owned_admission_;
  }

 private:
  friend class PipelineRun;

  /// Admission book-keeping shared by every ingest on this executor (and,
  /// when admission_ points at a shared controller, by every ingest on
  /// every executor bound to it).
  AdmissionController owned_admission_;
  AdmissionController* admission_ = nullptr;

  std::atomic<bool> cancelled_{false};
  /// Abort hooks of in-flight runs, fired by Cancel().
  std::mutex runs_mu_;
  std::vector<std::function<void()>*> active_runs_;
};

}  // namespace exec
}  // namespace parparaw

#endif  // PARPARAW_EXEC_EXECUTOR_H_
