#include "exec/executor.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/staged_parse.h"
#include "dialect/dialect.h"
#include "io/file.h"
#include "obs/obs.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"
#include "plan/planner.h"
#include "robust/failpoint.h"
#include "robust/resource_guard.h"
#include "simd/dispatch.h"

namespace parparaw {
namespace exec {

namespace {

/// One partition's raw bytes on their way from the reader to the scan
/// morsel. `view` points into `owned` (file mode) or, when `borrowed`, into
/// the caller's buffer (buffer mode), which outlives the ingest.
struct RawChunk {
  int64_t index = 0;
  std::string owned;
  std::string_view view;
  bool borrowed = false;
  bool is_last = false;
};

/// One partition flowing through the scan -> sort -> convert morsel
/// chain. Heap-allocated and shared_ptr-held (morsel closures must be
/// copyable): the StagedParse's pipeline state points into `buffer` and
/// into the task itself, so tasks never move between morsels.
struct PartitionTask {
  int64_t index = 0;
  /// Carry-over + partition bytes; what the scan morsel parsed. A view of
  /// the caller's buffer in buffer mode, else of `owned`.
  std::string_view buffer;
  /// File mode: the adopted read buffer, or the carry-over copied in front
  /// of the chunk. Freed after the sort unless a later stage reads it.
  std::string owned;
  /// Stream offset of buffer[0] (for quarantine-span re-basing).
  int64_t buffer_base = 0;
  /// Bytes this partition consumed from the stream (excludes the carry,
  /// already counted when its partition was consumed).
  int64_t partition_bytes = 0;
  /// Bytes this partition carried over into the next one.
  int64_t carry_bytes = 0;
  bool is_last = false;
  StagedParse parse;
  PushdownStats pushdown;  // a query's counts, from the sort morsel
};

/// A converted partition parked until every lower-indexed partition has
/// been delivered (results must reach the sink / the concatenation in
/// stream order no matter which worker converted them first).
struct ConvertedPartition {
  /// A parse error of this partition. It surfaces when delivery reaches
  /// the partition, so the ingest fails with the first failing partition
  /// in stream order no matter which worker failed first.
  Status status;
  ParseOutput output;
  /// Stream offset of the partition buffer's first byte (quarantine spans
  /// are re-based against it at delivery).
  int64_t buffer_base = 0;
  int64_t partition_bytes = 0;
  int64_t carry_bytes = 0;
  PushdownStats pushdown;
};

/// Sequential partition source, either disk-backed or an in-memory view.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;
  virtual int64_t total_bytes() const = 0;
  /// Fills `chunk` with up to `max_bytes`; sets *eof on the chunk that
  /// exhausts the stream (so no empty trailing chunk is ever produced).
  virtual Status Next(size_t max_bytes, RawChunk* chunk, bool* eof) = 0;
};

class FileSource final : public ChunkSource {
 public:
  Status Open(const std::string& path) { return reader_.Open(path); }
  int64_t total_bytes() const override { return reader_.file_size(); }

  Status Next(size_t max_bytes, RawChunk* chunk, bool* eof) override {
    bool read_eof = false;
    PARPARAW_RETURN_NOT_OK(
        reader_.ReadNext(max_bytes, &chunk->owned, &read_eof));
    chunk->view = chunk->owned;
    consumed_ += static_cast<int64_t>(chunk->owned.size());
    *eof = read_eof || consumed_ >= reader_.file_size();
    return Status::OK();
  }

 private:
  FileChunkReader reader_;
  int64_t consumed_ = 0;
};

class BufferSource final : public ChunkSource {
 public:
  explicit BufferSource(std::string_view input) : input_(input) {}
  int64_t total_bytes() const override {
    return static_cast<int64_t>(input_.size());
  }

  Status Next(size_t max_bytes, RawChunk* chunk, bool* eof) override {
    const size_t take = std::min(max_bytes, input_.size() - pos_);
    chunk->view = input_.substr(pos_, take);
    chunk->borrowed = true;
    pos_ += take;
    *eof = pos_ >= input_.size();
    return Status::OK();
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

/// \brief One ingest's worth of morsel machinery: a morsel graph on the
/// shared work-stealing pool. The calling thread performs the sequential
/// admission-gated reads, and each partition then flows through chained
/// scan -> sort -> convert morsels that ANY worker (or the caller, under
/// caller-runs) may execute. Dependencies are encoded in the chaining, not
/// in threads:
///
///   * Scan (context, bitmap, offset) is the only sequentially-dependent
///     stage (partition k+1's carry-over bytes are known only after k's
///     scan, the paper's carry dependency) — a single "scan token"
///     serialises scan morsels in stream order while everything downstream
///     overlaps freely.
///   * Sort (a query's select, tag, then sort or gather) and convert
///     morsels for different partitions run wherever a worker is idle, so
///     partition k's convert overlaps k+1's sort and k+2's scan without any
///     thread being pinned to a stage.
///   * Converted partitions park in a reorder window and are delivered
///     (sink call / table concatenation, quarantine re-basing, stats) in
///     stream order under a delivery token — the output is bit-identical
///     to the serial schedule by construction.
///
/// The reader acquires one admission slot per partition and delivery
/// releases it, so at most admission_limit partitions exist across the
/// whole graph. The exec.queue.{scan,sort,convert}.{push,pop} failpoints
/// fire at the morsel hand-offs (push = submitting the next morsel, pop =
/// entering it).
class PipelineRun {
 public:
  PipelineRun(PipelineExecutor* executor, const ExecOptions& options,
              const PartitionSink* sink)
      : executor_(executor),
        options_(options),
        sink_(sink),
        metrics_(options.base.metrics) {}

  Result<IngestResult> Run(ChunkSource* source) {
    PARPARAW_FAILPOINT("exec.ingest");
    PARPARAW_RETURN_NOT_OK_CTX(options_.base.Validate(), "exec.options");
    if (!options_.base.skip_records.empty()) {
      return Status::Invalid(
          "skip_records numbers the records of one buffer, and every "
          "partition would skip its own; use Parser::Parse");
    }
    if (options_.partition_size == 0) {
      return Status::Invalid("partition size must be positive");
    }

    // Compile a user dialect once per ingest, not once per partition.
    base_ = options_.base;
    PARPARAW_RETURN_NOT_OK(dialect::ResolveParseDialect(&base_).status());

    // Plan once for the whole ingest from the stream's length; every
    // partition then parses under the pinned knobs.
    result_.plan = plan::PlanStream(source->total_bytes(), &base_);

    // Degrade instead of refusing, in two independent ways: partitions
    // shrink until one parse fits the budget, and the admission limit
    // clamps how many of them may be resident at once.
    const int64_t working_set_factor = ParseWorkingSetFactor(base_);
    partition_size_ = static_cast<size_t>(
        robust::ClampPartitionSizeForBudget(
            static_cast<int64_t>(options_.partition_size),
            options_.base.memory_budget, /*floor_bytes=*/256,
            working_set_factor));
    admission_limit_ = options_.max_inflight_partitions;
    if (admission_limit_ <= 0) {
      if (options_.base.memory_budget > 0) {
        const int64_t per_partition = robust::EstimateParseMemory(
            static_cast<int64_t>(partition_size_), working_set_factor);
        admission_limit_ = static_cast<int>(std::max<int64_t>(
            1, options_.base.memory_budget / std::max<int64_t>(
                                                 1, per_partition)));
      } else {
        admission_limit_ = 4;  // read + scan + sort + convert in flight
      }
    }
    result_.stats.admission_limit = admission_limit_;

    // Register with the executor so Cancel() reaches this run.
    std::function<void()> abort_fn = [this] { Abort(); };
    {
      std::lock_guard<std::mutex> lock(executor_->runs_mu_);
      if (executor_->cancelled()) {
        return Status::Cancelled("executor was cancelled");
      }
      executor_->active_runs_.push_back(&abort_fn);
    }

    obs::TraceSpan ingest(base_.tracer, "exec.ingest", "sched", metrics_,
                          "exec.ingest_us", obs::Timing::kTimed,
                          source->total_bytes());
    if (source->total_bytes() > 0) {
      ThreadPool* pool =
          base_.pool != nullptr ? base_.pool : ThreadPool::Default();
      TaskGroup group(pool->scheduler());
      group_ = &group;
      ReaderLoop(source);
      // Caller-runs: the reading thread joins the workers on whatever
      // scan/sort/convert morsels remain instead of parking.
      group.Wait();
      group_ = nullptr;
    }
    result_.stats.wall_seconds = ingest.Stop();

    // Return any admission slots a failed morsel still held, so
    // concurrent ingests sharing this executor's controller (other files,
    // other daemon connections) are not starved.
    const int leftover = slots_held_.exchange(0);
    if (leftover > 0) executor_->admission()->Release(leftover);
    {
      std::lock_guard<std::mutex> lock(executor_->runs_mu_);
      auto& runs = executor_->active_runs_;
      runs.erase(std::remove(runs.begin(), runs.end(), &abort_fn),
                 runs.end());
    }

    if (executor_->cancelled()) {
      obs::AddCount(metrics_, "exec.cancelled", 1);
      return Status::Cancelled("ingest cancelled");
    }
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!first_error_.ok()) return first_error_;
    }

    for (size_t i = 1; i < tables_.size(); ++i) {
      if (tables_[i].schema.num_fields() != tables_[0].schema.num_fields()) {
        return Status::ParseError(
            "partitions observed different column counts; provide a schema "
            "for streaming parses");
      }
    }
    if (sink_ == nullptr) result_.table = ConcatTables(std::move(tables_));
    if (metrics_ != nullptr && metrics_->enabled()) {
      obs::AddCount(metrics_, "exec.ingests", 1);
      obs::AddCount(metrics_, "exec.partitions",
                    result_.stats.num_partitions);
      obs::AddCount(metrics_, "exec.bytes", result_.stats.bytes);
    }
    return std::move(result_);
  }

 private:
  void Hook(int stage, int64_t partition) {
    if (options_.stage_hook) options_.stage_hook(stage, partition);
  }

  /// Records the first error and aborts the pipeline.
  void Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (first_error_.ok()) first_error_ = std::move(status);
    }
    Abort();
  }

  /// Unblocks the run: in-flight morsels finish their current partition
  /// and every queued morsel degrades to an immediate return; admission
  /// waits wake up. Idempotent; called on error and by
  /// PipelineExecutor's Cancel().
  void Abort() {
    aborted_.store(true, std::memory_order_release);
    // Wake() takes the controller mutex first, ordering the flag store
    // before the wakeup so an admission wait cannot miss it.
    executor_->admission()->Wake();
  }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  bool has_deadline() const {
    return options_.deadline != std::chrono::steady_clock::time_point::max();
  }

  /// The cooperative deadline check, run at every morsel entry (plus the
  /// exec.deadline failpoint for deterministic expiry in the chaos
  /// sweep). True = the ingest is out of time; the pipeline aborts
  /// through the same seam as Cancel(), with kDeadlineExceeded recorded
  /// as the first error.
  bool DeadlineExpired(const char* site) {
    const bool forced = !robust::CheckFailpoint("exec.deadline").ok();
    if (!forced) {
      if (!has_deadline()) return false;
      if (std::chrono::steady_clock::now() < options_.deadline) return false;
    }
    Fail(Status::DeadlineExceeded(std::string(site) +
                                  ": ingest deadline expired"));
    return true;
  }

  /// Blocks until a partition may become resident (the backpressure that
  /// keeps the working set inside the memory budget). False on abort.
  bool AcquireSlot() {
    int now;
    if (has_deadline()) {
      now = executor_->admission()->AcquireFor(
          admission_limit_, [this] { return aborted(); }, options_.deadline);
      if (now == AdmissionController::kTimedOut) {
        Fail(Status::DeadlineExceeded(
            "exec.admission: ingest deadline expired waiting for a "
            "partition slot"));
        return false;
      }
    } else {
      now = executor_->admission()->Acquire(
          admission_limit_, [this] { return aborted(); });
    }
    if (now < 0) return false;
    slots_held_.fetch_add(1, std::memory_order_relaxed);
    // Only this run's reader thread acquires, so the stat update is
    // race-free; the count may include partitions of other ingests
    // sharing the controller (that is the point of sharing it).
    result_.stats.max_inflight = std::max(result_.stats.max_inflight, now);
    if (metrics_ != nullptr && metrics_->enabled()) {
      metrics_->SetGauge("exec.inflight", now);
    }
    return true;
  }

  void ReleaseSlot() {
    slots_held_.fetch_sub(1, std::memory_order_relaxed);
    const int now = executor_->admission()->Release();
    if (metrics_ != nullptr && metrics_->enabled()) {
      metrics_->SetGauge("exec.inflight", now);
    }
  }

  // --- reader (calling thread): chunked, admission-gated reads ---
  void ReaderLoop(ChunkSource* source) {
    int64_t index = 0;
    bool eof = false;
    while (!eof) {
      if (aborted()) break;
      if (DeadlineExpired("exec.read")) break;
      if (!AcquireSlot()) break;
      Hook(0, index);
      const Status injected = robust::CheckFailpoint("exec.read");
      if (!injected.ok()) {
        ReleaseSlot();
        Fail(injected.WithContext("exec.read"));
        break;
      }
      auto chunk = std::make_shared<RawChunk>();
      chunk->index = index;
      obs::TraceSpan probe(base_.tracer, "morsel.read", "sched", metrics_,
                           "exec.read_us", obs::Timing::kTimed);
      const Status read = source->Next(partition_size_, chunk.get(), &eof);
      probe.set_bytes(static_cast<int64_t>(chunk->view.size()));
      AddStageSeconds(&result_.stats.read_seconds, probe.Stop());
      if (!read.ok()) {
        ReleaseSlot();
        Fail(read.WithContext("exec.read"));
        break;
      }
      chunk->is_last = eof;
      // The reader -> scan hand-off (the old scan queue's push site).
      const Status pushed =
          robust::CheckFailpoint("exec.queue.scan.push");
      if (!pushed.ok()) {
        ReleaseSlot();
        Fail(pushed.WithContext("exec.queue.scan"));
        break;
      }
      EnqueueChunk(std::move(chunk));
      ++index;
    }
  }

  /// Parks the chunk behind the scan token. Scans must run one at a time
  /// and in stream order (the carry-over dependency); the token holder
  /// chains the next scan morsel itself, so ownership passes without any
  /// dedicated scan thread.
  void EnqueueChunk(std::shared_ptr<RawChunk> chunk) {
    std::shared_ptr<RawChunk> start;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      raw_ready_.push_back(std::move(chunk));
      if (!scan_token_held_) {
        scan_token_held_ = true;
        start = std::move(raw_ready_.front());
        raw_ready_.pop_front();
      }
    }
    if (start != nullptr) {
      group_->Run([this, start] { ScanMorsel(start); });
    }
  }

  // --- scan morsel: carry-over assembly + context/bitmap/offset ---
  void ScanMorsel(const std::shared_ptr<RawChunk>& chunk) {
    Status injected = robust::CheckFailpoint("exec.queue.scan.pop");
    if (!injected.ok()) {
      Fail(injected.WithContext("exec.queue.scan"));
      return;
    }
    if (aborted()) return;
    if (DeadlineExpired("exec.scan")) return;
    Hook(1, chunk->index);
    obs::TraceSpan probe(base_.tracer, "morsel.scan", "sched", metrics_,
                         "exec.scan_us", obs::Timing::kTimed,
                         static_cast<int64_t>(chunk->view.size()));
    auto task = std::make_shared<PartitionTask>();
    task->index = chunk->index;
    task->is_last = chunk->is_last;
    task->partition_bytes = static_cast<int64_t>(chunk->view.size());
    // Stream offset of buffer[0]: the carry bytes were already counted
    // when their partition was consumed, so back them out.
    task->buffer_base =
        stream_consumed_ - static_cast<int64_t>(carry_.size());
    // Assemble carry-over + chunk. In buffer mode the carry is the input
    // right before the chunk, so the partition is a view and nothing is
    // copied; a file chunk with no carry is adopted by move. Only a
    // carried file partition is copied.
    int64_t copied = 0;
    if (chunk->borrowed) {
      task->buffer = std::string_view(chunk->view.data() - carry_.size(),
                                      carry_.size() + chunk->view.size());
    } else if (carry_.empty()) {
      task->owned = std::move(chunk->owned);
      task->buffer = task->owned;
    } else {
      task->owned.reserve(carry_.size() + chunk->view.size());
      task->owned.append(carry_);
      task->owned.append(chunk->view);
      task->buffer = task->owned;
      copied = static_cast<int64_t>(task->owned.size());
      chunk->owned = std::string();  // release the reader's buffer
    }
    obs::AddCount(metrics_, "exec.copied_bytes", copied);

    ParseOptions po = base_;
    po.exclude_trailing_record = !task->is_last;
    // Leading-row pruning applies to the stream, not to every buffer.
    if (!first_) po.skip_rows = 0;
    // The executor *is* the degradation path for the memory budget —
    // partition size and admission are already clamped to fit, so the
    // per-partition parse must not re-apply the monolithic refusal.
    po.memory_budget = 0;
    const Status scanned = task->parse.Scan(task->buffer, po);
    if (!scanned.ok()) {
      // The carry-over is unknown, so the scan chain stops here: the scan
      // token is never passed on and later chunks stay parked until the
      // error's delivery aborts the run.
      Park(task->index, scanned.WithContext("exec.scan"));
      return;
    }
    if (!task->is_last) {
      const int64_t remainder = task->parse.remainder_offset();
      if (remainder < 0 ||
          remainder > static_cast<int64_t>(task->buffer.size())) {
        Park(task->index, Status::Internal("executor remainder out of range"));
        return;
      }
      // A record larger than a partition simply keeps accumulating into
      // the carry-over until its delimiter arrives (the skewed-input
      // case of Fig. 11). A file partition's buffer is freed after its
      // sort, so its carry is copied out.
      carry_ = task->buffer.substr(static_cast<size_t>(remainder));
      if (!chunk->borrowed) {
        carry_owned_.assign(carry_);
        carry_ = carry_owned_;
      }
    } else {
      carry_ = std::string_view();
    }
    task->carry_bytes = static_cast<int64_t>(carry_.size());
    stream_consumed_ += task->partition_bytes;
    first_ = false;
    obs::SetGauge(metrics_, "exec.carry_bytes",
                  static_cast<int64_t>(carry_.size()));
    AddStageSeconds(&result_.stats.scan_seconds, probe.Stop());

    // Hand the partition to the sort morsel (the old sort queue's push).
    const Status sort_push =
        robust::CheckFailpoint("exec.queue.sort.push");
    if (!sort_push.ok()) {
      Fail(sort_push.WithContext("exec.queue.sort"));
      return;
    }
    group_->Run([this, task] { SortMorsel(task); });

    // Pass the scan token: chain the next waiting chunk, or drop the
    // token so the reader re-arms the chain on its next partition. The
    // carry_/stream_consumed_ writes above are published to the next
    // scan morsel through the scheduler's and state_mu_'s locks.
    std::shared_ptr<RawChunk> next;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (!raw_ready_.empty()) {
        next = std::move(raw_ready_.front());
        raw_ready_.pop_front();
      } else {
        scan_token_held_ = false;
      }
    }
    if (next != nullptr) {
      group_->Run([this, next] { ScanMorsel(next); });
    }
  }

  // --- sort morsel: a query's select, then tag + sort or gather ---
  void SortMorsel(const std::shared_ptr<PartitionTask>& task) {
    Status injected = robust::CheckFailpoint("exec.queue.sort.pop");
    if (!injected.ok()) {
      Fail(injected.WithContext("exec.queue.sort"));
      return;
    }
    if (aborted()) return;
    if (DeadlineExpired("exec.sort")) return;
    Hook(2, task->index);
    obs::TraceSpan probe(base_.tracer, "morsel.sort", "sched", metrics_,
                         "exec.sort_us", obs::Timing::kTimed,
                         task->partition_bytes);
    Status sorted = Status::OK();
    if (options_.predicate.has_value()) {
      sorted = task->parse.Select(*options_.predicate, &task->pushdown);
    }
    if (sorted.ok() && !task->parse.finished()) {
      sorted = task->parse.Partition();
    }
    if (!sorted.ok()) {
      Park(task->index, sorted.WithContext("exec.sort"));
      return;
    }
    // The CSS or the columns now hold every value byte; only quarantine
    // spans still read the raw partition.
    if (base_.error_policy != robust::ErrorPolicy::kQuarantine) {
      task->owned = std::string();
      task->buffer = std::string_view();
    }
    AddStageSeconds(&result_.stats.sort_seconds, probe.Stop());
    const Status pushed =
        robust::CheckFailpoint("exec.queue.convert.push");
    if (!pushed.ok()) {
      Fail(pushed.WithContext("exec.queue.convert"));
      return;
    }
    group_->Run([this, task] { ConvertMorsel(task); });
  }

  // --- convert morsel: value generation, then in-order delivery ---
  void ConvertMorsel(const std::shared_ptr<PartitionTask>& task) {
    Status injected = robust::CheckFailpoint("exec.queue.convert.pop");
    if (!injected.ok()) {
      Fail(injected.WithContext("exec.queue.convert"));
      return;
    }
    if (aborted()) return;
    if (DeadlineExpired("exec.convert")) return;
    Hook(3, task->index);
    obs::TraceSpan probe(base_.tracer, "morsel.convert", "sched", metrics_,
                         "exec.convert_us", obs::Timing::kTimed,
                         task->partition_bytes);
    if (!task->parse.finished()) {
      const Status converted = task->parse.Convert();
      if (!converted.ok()) {
        Park(task->index, converted.WithContext("exec.convert"));
        return;
      }
    }
    ConvertedPartition done;
    done.output = task->parse.TakeOutput();
    done.buffer_base = task->buffer_base;
    done.partition_bytes = task->partition_bytes;
    done.carry_bytes = task->carry_bytes;
    done.pushdown = task->pushdown;
    AddStageSeconds(&result_.stats.convert_seconds, probe.Stop());
    Complete(task->index, std::move(done));
  }

  /// Parks a partition's parse error in the reorder window; delivery
  /// fails the run when it reaches the partition.
  void Park(int64_t index, Status status) {
    ConvertedPartition failed;
    failed.status = std::move(status);
    Complete(index, std::move(failed));
  }

  void Complete(int64_t index, ConvertedPartition part) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      completed_.emplace(index, std::move(part));
    }
    TryDeliver();
  }

  /// Delivers converted partitions in stream order under the delivery
  /// token. Whichever morsel completes the next-in-order partition (or
  /// unparks it) drains the reorder window; concurrent completers see the
  /// token held and leave — the holder re-checks after every delivery, so
  /// nothing is stranded.
  void TryDeliver() {
    while (true) {
      std::optional<ConvertedPartition> part;
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        if (deliver_token_held_) return;
        auto it = completed_.find(next_deliver_);
        if (it == completed_.end()) return;
        deliver_token_held_ = true;
        part.emplace(std::move(it->second));
        completed_.erase(it);
        ++next_deliver_;
      }
      const bool proceed = DeliverOne(std::move(*part));
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        deliver_token_held_ = false;
      }
      if (!proceed) return;
    }
  }

  /// Accumulates one partition's output into the result (or the sink),
  /// in stream order. Returns false when delivery must stop (abort or
  /// sink error). Runs only under the delivery token, so the
  /// accumulator state needs no extra locking and the accumulation order
  /// — hence the result — is identical to the serial schedule.
  bool DeliverOne(ConvertedPartition part) {
    if (aborted()) return false;  // teardown drains the remaining slots
    if (!part.status.ok()) {
      Fail(std::move(part.status));
      return false;
    }
    ParseOutput& out = part.output;
    // Re-base quarantined records from partition coordinates to stream
    // coordinates (rows index the concatenated table, spans the logical
    // byte stream) — identical to the serial streaming path.
    for (robust::QuarantineEntry& entry : out.quarantine.entries()) {
      entry.row += rows_accumulated_;
      entry.begin += part.buffer_base;
      entry.end += part.buffer_base;
      result_.quarantine.Add(std::move(entry));
    }
    result_.timings += out.timings;
    result_.work += out.work;
    result_.pushdown.records_scanned += part.pushdown.records_scanned;
    result_.pushdown.records_selected += part.pushdown.records_selected;
    rows_accumulated_ += out.table.num_rows;
    ++result_.stats.num_partitions;
    result_.stats.bytes += part.partition_bytes;
    PartitionRecord record;
    record.bytes = part.partition_bytes;
    record.carry_bytes = part.carry_bytes;
    record.output_bytes = out.table.TotalBufferBytes();
    record.work = out.work;
    result_.partitions.push_back(record);
    if (sink_ != nullptr) {
      const Status sunk = (*sink_)(std::move(out.table));
      if (!sunk.ok()) {
        Fail(sunk.WithContext("exec.sink"));
        ReleaseSlot();
        return false;
      }
    } else {
      tables_.push_back(std::move(out.table));
    }
    // The partition's buffers died with its task; return the admission
    // slot that stood for its working set.
    ReleaseSlot();
    return true;
  }

  void AddStageSeconds(double* accumulator, double seconds) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    *accumulator += seconds;
  }

  PipelineExecutor* executor_;
  const ExecOptions& options_;
  /// options_.base with any dialect resolved into a packed format.
  ParseOptions base_;
  const PartitionSink* sink_;
  obs::MetricsRegistry* metrics_;

  size_t partition_size_ = 0;
  int admission_limit_ = 0;
  /// Slots this run holds; incremented by the reader, decremented at
  /// delivery, drained at teardown after the morsel group joined.
  std::atomic<int> slots_held_{0};

  /// The morsel group every scan/sort/convert task of this ingest joins;
  /// points at a stack-local group alive for the whole pipeline section.
  TaskGroup* group_ = nullptr;

  /// Morsel-graph state (reorder window, scan chain, tokens).
  std::mutex state_mu_;
  std::deque<std::shared_ptr<RawChunk>> raw_ready_;
  bool scan_token_held_ = false;
  std::map<int64_t, ConvertedPartition> completed_;
  int64_t next_deliver_ = 0;
  bool deliver_token_held_ = false;

  /// Scan-chain state: owned by whichever morsel holds the scan token
  /// (hand-offs synchronise through state_mu_ and the scheduler). The
  /// carry-over views the caller's buffer in buffer mode and
  /// `carry_owned_` in file mode.
  std::string_view carry_;
  std::string carry_owned_;
  int64_t stream_consumed_ = 0;
  bool first_ = true;

  /// Delivery-order accumulator: owned by the delivery-token holder.
  int64_t rows_accumulated_ = 0;

  std::atomic<bool> aborted_{false};
  std::mutex error_mu_;
  Status first_error_;
  std::mutex stats_mu_;

  std::vector<Table> tables_;
  IngestResult result_;
};

Result<IngestResult> PipelineExecutor::IngestFile(const std::string& path,
                                                  const ExecOptions& options) {
  FileSource source;
  PARPARAW_RETURN_NOT_OK_CTX(source.Open(path), "exec.open");
  PipelineRun run(this, options, nullptr);
  return run.Run(&source);
}

Result<IngestResult> PipelineExecutor::IngestBuffer(
    std::string_view input, const ExecOptions& options) {
  BufferSource source(input);
  PipelineRun run(this, options, nullptr);
  return run.Run(&source);
}

Result<IngestResult> PipelineExecutor::StreamFile(const std::string& path,
                                                  const ExecOptions& options,
                                                  const PartitionSink& sink) {
  FileSource source;
  PARPARAW_RETURN_NOT_OK_CTX(source.Open(path), "exec.open");
  PipelineRun run(this, options, &sink);
  return run.Run(&source);
}

Result<IngestResult> PipelineExecutor::StreamBuffer(
    std::string_view input, const ExecOptions& options,
    const PartitionSink& sink) {
  BufferSource source(input);
  PipelineRun run(this, options, &sink);
  return run.Run(&source);
}

std::vector<Result<IngestResult>> PipelineExecutor::IngestFiles(
    const std::vector<std::string>& paths, const ExecOptions& options,
    int max_concurrent_files) {
  std::vector<Result<IngestResult>> results(
      paths.size(), Result<IngestResult>(Status::Internal("not run")));
  if (paths.empty()) return results;
  const int workers = std::max(
      1, std::min<int>(max_concurrent_files,
                       static_cast<int>(paths.size())));
  std::atomic<size_t> next{0};
  std::mutex results_mu;
  const auto drain = [&] {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= paths.size()) return;
      Result<IngestResult> result = IngestFile(paths[i], options);
      std::lock_guard<std::mutex> lock(results_mu);
      results[i] = std::move(result);
    }
  };
  // The calling thread ingests alongside the spawned workers; every file
  // shares this executor's admission controller, so the memory budget
  // holds across the whole fleet — and all files' morsels share one
  // work-stealing pool, so an idle worker advances whichever file has
  // work.
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (int w = 1; w < workers; ++w) threads.emplace_back(drain);
  drain();
  for (std::thread& t : threads) t.join();
  return results;
}

void PipelineExecutor::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(runs_mu_);
  for (std::function<void()>* abort : active_runs_) (*abort)();
}

}  // namespace exec
}  // namespace parparaw
