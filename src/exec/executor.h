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
  /// 0 = auto: one partition per stage (robust::kPipelineDepth, 4). With
  /// base.memory_budget set it is the budget over one partition's
  /// estimated working set; the budget clamps partitions so that this
  /// comes out at kPipelineDepth (more when the requested partition is
  /// already small, fewer only at the 256-byte floor). The budget never
  /// refuses an ingest.
  int max_inflight_partitions = 0;

  /// The caller's per-run check, invoked at each stage's entry for each
  /// partition: stage 0 = read (before the partition's slot wait), 1 =
  /// scan, 2 = sort, 3 = convert. A non-OK status fails this run at that
  /// entry, as an exec.queue.*.pop failpoint does, and the ingest returns
  /// exactly that status; other runs on the executor go on. parparawd
  /// returns kCancelled once its client has disconnected; the test suite
  /// throttles a stage (backpressure) or fails a deterministic entry. Runs
  /// on pool workers, so it must be thread-safe; null = no check.
  std::function<Status(int stage, int64_t partition)> stage_hook;

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
/// ParseOptions::memory_budget (clamp, not refuse). A budget shrinks the
/// partitions, not the pipeline: they are cut so that
/// robust::kPipelineDepth of them fit, and the pipeline keeps one per
/// stage in flight; only a budget below the partition floor's working
/// set runs fewer.
/// Several ingests can run concurrently through one executor (parparawd
/// runs every request on one); they share its admission controller, so
/// the budget holds globally.
///
/// Every dialect runs this schedule, one over the SIMD register budget
/// too: its scan morsel's context step walks the entry states
/// sequentially, and everything after runs chunk-parallel as usual. A
/// query (ExecOptions::predicate) runs the same morsels, its sort morsel
/// selecting before it tags.
/// A parse error surfaces in stream order, so the ingest fails with the
/// error of the first failing partition, as a monolithic parse would.
///
/// Every ingest stops only at a stage entry (the reader's, before each
/// partition's slot wait, and each morsel's), which checks in turn the
/// stage's queue failpoint, the abort flag, ExecOptions::deadline and
/// ExecOptions::stage_hook. Cancel() aborts every in-flight ingest there
/// with StatusCode::kCancelled; an expired deadline or a failing hook
/// fails only its own run. Faults from the failpoint registry
/// (exec.queue.*.push/pop, exec.read, exec.ingest) surface as clean
/// errors; the chaos suite asserts clean-error-or-bit-identical against
/// the fault-free run.
class PipelineExecutor {
 public:
  PipelineExecutor() = default;
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

  /// Cooperatively cancels every in-flight (and future) ingest on this
  /// executor: stages stop at their next boundary, admission waits wake,
  /// and the ingest returns kCancelled. One-shot — construct a fresh
  /// executor to ingest again.
  void Cancel();

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// The admission controller every ingest on this executor draws its
  /// partition slots from.
  AdmissionController* admission() { return &admission_; }

 private:
  friend class PipelineRun;

  AdmissionController admission_;

  std::atomic<bool> cancelled_{false};
  /// Abort hooks of in-flight runs, fired by Cancel().
  std::mutex runs_mu_;
  std::vector<std::function<void()>*> active_runs_;
};

}  // namespace exec
}  // namespace parparaw

#endif  // PARPARAW_EXEC_EXECUTOR_H_
