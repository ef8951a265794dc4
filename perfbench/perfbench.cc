// End-to-end benchmark of the parparaw library: parses seeded inputs
// through the public entry points, checks every output, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
//   perfbench --workload quoted_read|numeric_stream|serve_mixed
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that times calls into each layer (spans recorded here, around the
// library's public functions) and reports the per-layer metrics, writing
// the spans as chrome-trace JSON into the work directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/reader.h"
#include "baseline/sequential_parser.h"
#include "checks.h"
#include "columnar/ipc.h"
#include "core/staged_parse.h"
#include "dialect/dialect.h"
#include "exec/executor.h"
#include "harness.h"
#include "io/file.h"
#include "loader/bulk_loader.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "plan/planner.h"
#include "query/pushdown.h"
#include "robust/resource_guard.h"
#include "serve/retry.h"
#include "serve/server.h"
#include "workload/generators.h"
#include "workload/request_stream.h"

namespace parparaw::perfbench {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Minimum timed ops per pool in a file workload, whatever --seconds says.
constexpr size_t kMinOps = 10;
/// Hard stop for a run's timed phase, well inside the 180 s run limit.
constexpr double kMaxTimedSeconds = 120;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

/// Attempted/failed op accounting plus the metrics of one run.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  /// Counts one op; a non-empty `error` makes it a failed op.
  void Op(const std::string& what, const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), error.c_str());
    }
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Independent sub-seeds of the workload seed (splitmix64 finaliser).
uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Median over ops of one span's per-op total duration, in seconds.
double PerOpMedianSeconds(const SpanRecorder& spans, const std::string& name) {
  std::map<int64_t, double> per_op;
  for (const SpanRecorder::Span& s : spans.Spans()) {
    if (s.name == name) {
      per_op[s.op] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::vector<double> values;
  for (const auto& [op, seconds] : per_op) values.push_back(seconds);
  return Median(values);
}

/// Sum of a step histogram in seconds (the steps record microseconds).
double HistogramSeconds(const char* name) {
  return static_cast<double>(
             obs::MetricsRegistry::Global().GetHistogram(name)->Snapshot().sum) *
         1e-6;
}

/// VmHWM in MiB since the last ResetPeakRss; 0 when that reset failed.
double PeakMib(bool reset_ok) {
  return reset_ok ? static_cast<double>(PeakRssKib()) / 1024.0 : 0;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// ---------------------------------------------------------------------
// Decomposed op: the executor's partition loop, one public call at a time.

/// Where the decomposed op reads its bytes from: a file (partitions read
/// with FileChunkReader, as the executor's file source does) or a buffer.
struct Source {
  std::string path;         // non-empty = file
  std::string_view buffer;  // used when path is empty
};

/// Per-op facts the decomposed op gathers besides its spans.
struct DecomposedResult {
  Status status;
  int64_t input_bytes = 0;
  size_t chunk_size = 0;
  int64_t partitions = 0;
  WorkCounters work;
  int64_t ipc_bytes = 0;
  TableDigest digest;
};

Status ReadHead(const std::string& path, size_t max_bytes, std::string* out,
                bool* truncated, SpanRecorder* spans, int64_t op) {
  SpanRecorder::Scope span(spans, "io.read", op);
  FileChunkReader head;
  PARPARAW_RETURN_NOT_OK(head.Open(path));
  out->clear();
  if (head.file_size() > 0) {
    bool eof = false;
    PARPARAW_RETURN_NOT_OK(head.ReadNext(
        std::min<size_t>(static_cast<size_t>(head.file_size()), max_bytes), out,
        &eof));
  }
  *truncated = static_cast<int64_t>(out->size()) < head.file_size();
  return Status::OK();
}

/// Runs the Reader's path as separate calls: head sample, dialect/type
/// resolution (loader), planning (plan), then per partition the read (io),
/// carry-over assembly and StagedParse::Scan / Partition / Convert (core),
/// and SerializeTable on each partition's output (ipc). Partition cuts and
/// carried bytes are the executor's: the same budget clamp of the planned
/// partition size, and the unterminated trailing record carried forward.
/// The step.* histograms fill from `metrics` (passed into ParseOptions).
DecomposedResult RunDecomposed(const Source& source, const LoadOptions& load,
                               SpanRecorder* spans, int64_t op,
                               obs::MetricsRegistry* metrics) {
  DecomposedResult result;
  SpanRecorder::Scope op_span(spans, "op", op);
  const bool from_file = !source.path.empty();
  FileChunkReader reader;
  if (from_file) {
    result.status = reader.Open(source.path);
    if (!result.status.ok()) return result;
    result.input_bytes = reader.file_size();
  } else {
    result.input_bytes = static_cast<int64_t>(source.buffer.size());
  }

  std::string head;
  std::string_view sample = source.buffer;
  bool truncated = false;
  if (from_file) {
    result.status =
        ReadHead(source.path, 256 * 1024, &head, &truncated, spans, op);
    if (!result.status.ok()) return result;
    sample = head;
  }
  ParseOptions base;
  {
    SpanRecorder::Scope span(spans, "loader.resolve", op);
    LoadResult resolution;
    Result<ParseOptions> resolved =
        BulkLoader::ResolveBaseOptions(sample, truncated, load, &resolution);
    if (!resolved.ok()) {
      result.status = resolved.status();
      return result;
    }
    base = std::move(*resolved);
  }
  {
    Result<std::optional<dialect::CompiledDialect>> fallback =
        dialect::ResolveParseDialect(&base);
    if (!fallback.ok() || fallback->has_value()) {
      result.status = fallback.ok() ? Status::Invalid("scalar dialect fallback")
                                    : fallback.status();
      return result;
    }
  }
  base.metrics = metrics;

  // The executor plans from its own head sample of sample_budget bytes.
  std::string plan_head;
  std::string_view plan_sample = source.buffer.substr(
      0, std::min(source.buffer.size(), base.sample_budget));
  bool plan_truncated = source.buffer.size() > base.sample_budget;
  if (from_file) {
    result.status = ReadHead(source.path, base.sample_budget, &plan_head,
                             &plan_truncated, spans, op);
    if (!result.status.ok()) return result;
    plan_sample = plan_head;
  }
  plan::ParsePlan plan;
  {
    SpanRecorder::Scope span(spans, "plan.plan", op);
    Result<plan::ParsePlan> planned =
        plan::PlanStream(plan_sample, plan_truncated, &base);
    if (!planned.ok()) {
      result.status = planned.status();
      return result;
    }
    plan = std::move(*planned);
  }
  result.chunk_size = base.chunk_size;
  const size_t partition_size =
      static_cast<size_t>(robust::ClampPartitionSizeForBudget(
          static_cast<int64_t>(plan.partition_size > 0 ? plan.partition_size
                                                       : load.partition_size),
          load.memory_budget, /*floor_bytes=*/256,
          ParseWorkingSetFactor(base)));

  TableDigester digester;
  std::string carry;
  std::string chunk;
  size_t buffer_pos = 0;
  int64_t consumed = 0;
  bool first = true;
  bool eof = result.input_bytes == 0;
  while (!eof) {
    std::string_view piece;
    if (from_file) {
      SpanRecorder::Scope span(spans, "io.read", op);
      bool read_eof = false;
      result.status = reader.ReadNext(partition_size, &chunk, &read_eof);
      if (!result.status.ok()) return result;
      piece = chunk;
      consumed += static_cast<int64_t>(chunk.size());
      eof = read_eof || consumed >= result.input_bytes;
    } else {
      piece = source.buffer.substr(buffer_pos, partition_size);
      buffer_pos += piece.size();
      eof = buffer_pos >= source.buffer.size();
    }
    std::string buffer;
    {
      SpanRecorder::Scope span(spans, "exec.assemble", op);
      buffer.reserve(carry.size() + piece.size());
      buffer.append(carry);
      buffer.append(piece);
    }

    ParseOptions po = base;
    po.exclude_trailing_record = !eof;
    if (!first) po.skip_rows = 0;
    po.memory_budget = 0;
    StagedParse parse;
    {
      SpanRecorder::Scope span(spans, "core.scan", op);
      result.status = parse.Scan(buffer, po);
    }
    if (!result.status.ok()) return result;
    if (!eof) {
      const int64_t remainder = parse.remainder_offset();
      if (remainder < 0 || remainder > static_cast<int64_t>(buffer.size())) {
        result.status = Status::Internal("remainder out of range");
        return result;
      }
      carry = buffer.substr(static_cast<size_t>(remainder));
    }
    first = false;
    if (!parse.finished()) {
      {
        SpanRecorder::Scope span(spans, "core.partition", op);
        result.status = parse.Partition();
      }
      if (!result.status.ok()) return result;
      {
        SpanRecorder::Scope span(spans, "core.convert", op);
        result.status = parse.Convert();
      }
      if (!result.status.ok()) return result;
    }
    ParseOutput out = parse.TakeOutput();
    result.work += out.work;
    ++result.partitions;
    {
      SpanRecorder::Scope span(spans, "ipc.serialize", op);
      Result<std::string> ipc = SerializeTable(out.table);
      if (!ipc.ok()) {
        result.status = ipc.status();
        return result;
      }
      result.ipc_bytes += static_cast<int64_t>(ipc->size());
    }
    SpanRecorder::Scope span(spans, "check.digest", op);
    digester.Add(out.table);
  }
  result.digest = digester.Finish();
  return result;
}

/// Per-layer metrics of decomposed ops: spans (median over ops), step.*
/// histograms (mean over `ops`) and work counters of the last op.
void AddCoreLayerMetrics(const SpanRecorder& spans,
                         const DecomposedResult& last, int ops,
                         Report* report) {
  const double n = std::max(ops, 1);
  const double bytes = static_cast<double>(std::max<int64_t>(
      last.input_bytes, 1));
  report->Add("io.read_s", PerOpMedianSeconds(spans, "io.read"), "s");
  report->Add("loader.resolve_s", PerOpMedianSeconds(spans, "loader.resolve"),
              "s");
  report->Add("plan.plan_s", PerOpMedianSeconds(spans, "plan.plan"), "s");
  report->Add("plan.chunk_size", static_cast<double>(last.chunk_size),
              "count");
  report->Add("core.scan_s", PerOpMedianSeconds(spans, "core.scan"), "s");
  report->Add("core.partition_s", PerOpMedianSeconds(spans, "core.partition"),
              "s");
  report->Add("core.convert_s", PerOpMedianSeconds(spans, "core.convert"), "s");
  report->Add("core.context_s",
              (HistogramSeconds("step.context.parse_us") +
               HistogramSeconds("step.context.scan_us")) /
                  n,
              "s");
  report->Add("core.bitmap_s", HistogramSeconds("step.bitmap_us") / n, "s");
  report->Add("core.offset_s", HistogramSeconds("step.offset_us") / n, "s");
  report->Add("core.tag_s",
              (HistogramSeconds("step.tag.count_us") +
               HistogramSeconds("step.tag.scan_us") +
               HistogramSeconds("step.tag.write_us")) /
                  n,
              "s");
  report->Add("core.dfa_transitions_per_byte",
              static_cast<double>(last.work.dfa_transitions) / bytes, "ratio");
  report->Add("core.sort_bytes_per_byte",
              static_cast<double>(last.work.sort_bytes_moved) / bytes, "ratio");
  report->Add("core.transpose_peak_mib",
              static_cast<double>(last.work.transpose_peak_bytes) / kMiB,
              "MiB");
  report->Add("ipc.serialize_s", PerOpMedianSeconds(spans, "ipc.serialize"),
              "s");
  report->Add("ipc.bytes_per_input_byte",
              static_cast<double>(last.ipc_bytes) / bytes, "ratio");
}

void AddExecMetrics(const std::vector<exec::IngestStats>& runs,
                    Report* report) {
  std::vector<double> partitions, limit, inflight, overlap, scan_share;
  for (const exec::IngestStats& s : runs) {
    const double wall = std::max(s.wall_seconds, 1e-9);
    partitions.push_back(s.num_partitions);
    limit.push_back(s.admission_limit);
    inflight.push_back(s.max_inflight);
    overlap.push_back((s.read_seconds + s.scan_seconds + s.sort_seconds +
                       s.convert_seconds) /
                      wall);
    scan_share.push_back(s.scan_seconds / wall);
  }
  report->Add("exec.partitions", Median(partitions), "count");
  report->Add("exec.admission_limit", Median(limit), "count");
  report->Add("exec.max_inflight", Median(inflight), "count");
  report->Add("exec.overlap", Median(overlap), "ratio");
  report->Add("exec.scan_share", Median(scan_share), "ratio");
}

void AddCpuMetrics(const Usage& before, const Usage& after, double wall,
                   double input_mib, Report* report) {
  const double user = after.user_s - before.user_s;
  const double sys = after.sys_s - before.sys_s;
  report->Add("cpu.cores_busy", (user + sys) / std::max(wall, 1e-9), "ratio");
  report->Add("cpu.sys_share", sys / std::max(user + sys, 1e-9), "ratio");
  report->Add("mem.minor_faults_per_mib",
              static_cast<double>(after.minor_faults - before.minor_faults) /
                  std::max(input_mib, 1e-9),
              "1/MiB");
}

void AddZeroMetrics(std::initializer_list<std::pair<const char*, const char*>>
                        names_and_units,
                    Report* report) {
  for (const auto& [name, unit] : names_and_units) report->Add(name, 0, unit);
}

// ---------------------------------------------------------------------
// File workloads: quoted_read and numeric_stream.

struct FileSpec {
  std::string name;
  Schema schema;
  size_t target_bytes = 0;
  /// WithMemoryBudget; 0 = none.
  int64_t memory_budget = 0;
  /// ReadStream into a counting sink (true) or Read (false).
  bool stream = false;
  std::string (*generate)(uint64_t seed, size_t bytes) = nullptr;
};

FileSpec QuotedRead() {
  // Just under the 64 MiB default partition, so the file is one partition.
  return {"quoted_read", YelpSchema(), 63u << 20, 0, false, GenerateYelpLike};
}

FileSpec NumericStream() {
  return {"numeric_stream", TaxiSchema(), 32u << 20, 64 << 20, true,
          GenerateTaxiLike};
}

LoadOptions FileLoadOptions(const FileSpec& spec) {
  LoadOptions load;
  load.schema = spec.schema;
  load.header = 0;
  load.memory_budget = spec.memory_budget;
  load.collect_statistics = false;
  return load;
}

struct FileOp {
  Status status;
  /// Wall time of the Reader call, and that time scaled to the CPU the
  /// hypervisor granted (GrantedSeconds) — the op time every metric uses.
  double wall = 0;
  double seconds = 0;
  int64_t rows = 0;
  /// Columns of the table (of every partition when streaming; -1 when
  /// partitions disagree).
  int columns = 0;
  exec::IngestStats stats;
  std::optional<TableDigest> digest;
};

/// One timed op: the Reader call and nothing else. With `digest`, the
/// output is kept and digested after the clock stopped.
FileOp RunFileOp(const FileSpec& spec, const std::string& path,
                 ThreadPool* pool, bool digest) {
  FileOp op;
  Reader reader = Reader::FromFile(path)
                      .WithSchema(spec.schema)
                      .WithHeader(false)
                      .WithMemoryBudget(spec.memory_budget)
                      .WithThreadPool(pool);
  if (!spec.stream) {
    const CpuProbe p0 = ProbeCpu();
    Result<Table> table = std::move(reader).Read();
    const CpuProbe p1 = ProbeCpu();
    op.wall = p1.wall - p0.wall;
    op.seconds = GrantedSeconds(p0, p1);
    if (!table.ok()) {
      op.status = table.status();
      return op;
    }
    op.rows = table->num_rows;
    op.columns = table->num_columns();
    if (digest) op.digest = DigestTable(*table);
    return op;
  }
  std::vector<Table> kept;
  bool first_part = true;
  const auto sink = [&](Table&& part) -> Status {
    op.rows += part.num_rows;
    if (first_part) {
      op.columns = part.num_columns();
      first_part = false;
    } else if (op.columns != part.num_columns()) {
      op.columns = -1;
    }
    if (digest) kept.push_back(std::move(part));
    return Status::OK();
  };
  const CpuProbe p0 = ProbeCpu();
  Result<exec::IngestStats> stats = std::move(reader).ReadStream(sink);
  const CpuProbe p1 = ProbeCpu();
  op.wall = p1.wall - p0.wall;
  op.seconds = GrantedSeconds(p0, p1);
  if (!stats.ok()) {
    op.status = stats.status();
    return op;
  }
  op.stats = *stats;
  if (digest) {
    TableDigester digester;
    for (const Table& part : kept) digester.Add(part);
    op.digest = digester.Finish();
  }
  return op;
}

std::string CheckFileOp(const FileOp& op, const TableDigest& truth) {
  if (!op.status.ok()) return op.status.ToString();
  if (op.rows != truth.rows) {
    return "row count " + std::to_string(op.rows) + " != expected " +
           std::to_string(truth.rows);
  }
  if (op.columns != static_cast<int>(truth.columns.size())) {
    return "column count " + std::to_string(op.columns) + " != expected " +
           std::to_string(truth.columns.size());
  }
  return op.digest.has_value() ? CompareDigests(*op.digest, truth) : "";
}

int RunFileWorkload(const FileSpec& spec, const Args& args,
                    SpanRecorder* spans, Report* report) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::path(args.work_dir) / (spec.name + "-" + std::to_string(args.seed) +
                                  ".csv"))
          .string();

  // --- input preparation (not part of setup_s) ---
  TableDigest truth;
  int64_t input_bytes = 0;
  {
    const std::string data =
        spec.generate(Derive(args.seed, 1), spec.target_bytes);
    input_bytes = static_cast<int64_t>(data.size());
    const Status written = WriteStringToFile(path, data);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    // Ground truth: the sequential reference parser under explicit
    // RFC 4180 options, independent of the loader's dialect sniffing.
    ParseOptions truth_options;
    Result<Format> rfc = Rfc4180Format();
    truth_options.format = *rfc;
    truth_options.schema = spec.schema;
    Result<ParseOutput> parsed = SequentialParser::Parse(data, truth_options);
    if (!parsed.ok()) {
      std::fprintf(stderr, "ground truth parse failed: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    truth = DigestTable(parsed->table);
  }
  const double input_gib = static_cast<double>(input_bytes) / kGiB;
  // Peak memory counts from here: the generator's buffers and the ground
  // truth table are gone.
  const bool rss_reset = ResetPeakRss();

  // --- set-up, kSetups times: pools and one warm-up op on each ---
  std::unique_ptr<ThreadPool> pool1;
  std::vector<double> setup_times;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = NowSeconds();
    pool1.reset();
    pool1 = std::make_unique<ThreadPool>(1);
    ThreadPool::Default();
    const double pools_s = NowSeconds() - t0;
    const FileOp warm = RunFileOp(spec, path, nullptr, /*digest=*/true);
    report->Op("warm-up op", CheckFileOp(warm, truth));
    const FileOp warm1 = RunFileOp(spec, path, pool1.get(), /*digest=*/true);
    report->Op("warm-up op (1 worker)", CheckFileOp(warm1, truth));
    setup_times.push_back(pools_s + warm.seconds + warm1.seconds);
  }

  if (!args.trace) {
    // --- timed ops: the default and the 1-worker pool take turns, until
    // --seconds elapsed and both have kMinOps samples. 1-worker op times
    // spread most, so they get as many samples as the default pool. ---
    std::vector<double> times, times_1w, walls;
    const double start = NowSeconds();
    while ((times.size() < kMinOps || times_1w.size() < kMinOps ||
            NowSeconds() - start < args.seconds) &&
           NowSeconds() - start < kMaxTimedSeconds) {
      const FileOp op = RunFileOp(spec, path, nullptr, false);
      const std::string error = CheckFileOp(op, truth);
      report->Op("op", error);
      if (error.empty()) {
        times.push_back(op.seconds);
        walls.push_back(op.wall);
      }
      const FileOp op1 = RunFileOp(spec, path, pool1.get(), false);
      const std::string error1 = CheckFileOp(op1, truth);
      report->Op("op (1 worker)", error1);
      if (error1.empty()) times_1w.push_back(op1.seconds);
    }
    const double median = Median(times);
    std::fprintf(stderr,
                 "%zu ops: median %.4f s granted, %.4f s wall; %zu ops on "
                 "1 worker\n",
                 times.size(), median, Median(walls), times_1w.size());
    for (const auto* series : {&times, &walls, &times_1w}) {
      for (double t : *series) std::fprintf(stderr, " %.3f", t);
      std::fprintf(stderr, "\n");
    }
    // Throughput is aggregate (input over summed op time): op times on a
    // 1-worker pool are bimodal when streaming, which a median amplifies.
    report->Add("gibps", input_gib * static_cast<double>(times.size()) / Sum(times),
                "GiB/s");
    report->Add("gibps_1w",
                input_gib * static_cast<double>(times_1w.size()) / Sum(times_1w),
                "GiB/s");
    report->Add("requests_per_s",
                static_cast<double>(times.size()) / Sum(times), "1/s");
    report->Add("latency_ms", median * 1e3, "ms");
    report->Add("latency_p90_ms", Percentile(times, 0.9) * 1e3, "ms");
    report->Add("peak_rss_mb", PeakMib(rss_reset), "MiB");
    report->Add("setup_s", Median(setup_times), "s");
    std::filesystem::remove(path);
    return 0;
  }

  // --- traced run ---
  // (1) Untraced reference ops, with CPU and fault accounting.
  std::vector<double> untraced;
  const Usage usage0 = ReadUsage();
  const double untraced_start = NowSeconds();
  while (untraced.size() < 5 ||
         NowSeconds() - untraced_start < args.seconds / 4) {
    const FileOp op = RunFileOp(spec, path, nullptr, false);
    const std::string error = CheckFileOp(op, truth);
    report->Op("op", error);
    if (error.empty()) untraced.push_back(op.seconds);
    if (NowSeconds() - untraced_start > kMaxTimedSeconds / 4) break;
  }
  const Usage usage1 = ReadUsage();
  const double untraced_wall = NowSeconds() - untraced_start;
  std::vector<double> times_1w;
  for (int i = 0; i < 3; ++i) {
    const FileOp op = RunFileOp(spec, path, pool1.get(), false);
    const std::string error = CheckFileOp(op, truth);
    report->Op("op (1 worker)", error);
    if (error.empty()) times_1w.push_back(op.seconds);
  }

  // (2) Traced ops: the Reader's path with spans around the loader and the
  // executor, scheduler counters on.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.SetEnabled(true);
  registry.Reset();
  const LoadOptions load = FileLoadOptions(spec);
  std::vector<exec::IngestStats> exec_runs;
  std::vector<double> traced;
  constexpr int kTracedOps = 3;
  for (int i = 0; i < kTracedOps; ++i) {
    const int64_t op_id = 100 + i;
    const CpuProbe p0 = ProbeCpu();
    SpanRecorder::Scope op_span(spans, "op.traced", op_id);
    std::string head;
    bool truncated = false;
    Status status = ReadHead(path, 256 * 1024, &head, &truncated, spans, op_id);
    ParseOptions base;
    if (status.ok()) {
      SpanRecorder::Scope span(spans, "loader.resolve", op_id);
      LoadResult resolution;
      Result<ParseOptions> resolved =
          BulkLoader::ResolveBaseOptions(head, truncated, load, &resolution);
      status = resolved.status();
      if (resolved.ok()) base = std::move(*resolved);
    }
    FileOp op;
    if (status.ok()) {
      SpanRecorder::Scope span(spans, "exec.ingest", op_id);
      exec::PipelineExecutor executor;
      exec::ExecOptions exec_options;
      exec_options.base = base;
      exec_options.partition_size = load.partition_size;
      bool first_part = true;
      const auto sink = [&](Table&& part) {
        op.rows += part.num_rows;
        op.columns = first_part || op.columns == part.num_columns()
                         ? part.num_columns()
                         : -1;
        first_part = false;
        return Status::OK();
      };
      Result<exec::IngestResult> ingested =
          spec.stream ? executor.StreamFile(path, exec_options, sink)
                      : executor.IngestFile(path, exec_options);
      status = ingested.status();
      if (ingested.ok()) {
        exec_runs.push_back(ingested->stats);
        if (!spec.stream) {
          op.rows = ingested->table.num_rows;
          op.columns = ingested->table.num_columns();
        }
      }
    }
    op.status = status;
    traced.push_back(GrantedSeconds(p0, ProbeCpu()));
    report->Op("traced op", CheckFileOp(op, truth));
  }
  const double steals = static_cast<double>(CounterValue("sched.steals"));
  const double waits = static_cast<double>(CounterValue("sched.waits"));

  // (3) Decomposed ops, step.* histograms on.
  registry.Reset();
  constexpr int kDecomposedOps = 3;
  DecomposedResult last;
  for (int i = 0; i < kDecomposedOps; ++i) {
    last = RunDecomposed(Source{path, {}}, load, spans, 200 + i, &registry);
    report->Op("decomposed op", last.status.ok()
                                    ? CompareDigests(last.digest, truth)
                                    : last.status.ToString());
  }
  registry.SetEnabled(false);

  // (4) The sequential reference parser on the same bytes.
  std::vector<double> baseline;
  {
    Result<std::string> data = ReadFileToString(path);
    ParseOptions options;
    options.format = *Rfc4180Format();
    options.schema = spec.schema;
    for (int i = 0; i < 2 && data.ok(); ++i) {
      const CpuProbe p0 = ProbeCpu();
      SpanRecorder::Scope span(spans, "baseline.parse", 300 + i);
      Result<ParseOutput> parsed = SequentialParser::Parse(*data, options);
      baseline.push_back(GrantedSeconds(p0, ProbeCpu()));
      report->Op("baseline parse",
                 parsed.ok() ? CompareDigests(DigestTable(parsed->table), truth)
                             : parsed.status().ToString());
    }
  }
  std::filesystem::remove(path);

  const double gibps_1w =
      input_gib * static_cast<double>(times_1w.size()) / Sum(times_1w);
  const double sequential_gibps = input_gib / Median(baseline);
  AddCoreLayerMetrics(*spans, last, kDecomposedOps, report);
  AddExecMetrics(exec_runs, report);
  AddCpuMetrics(usage0, usage1, untraced_wall,
                static_cast<double>(input_bytes) / kMiB *
                    static_cast<double>(untraced.size()),
                report);
  report->Add("sched.steals_per_op", steals / kTracedOps, "count");
  report->Add("sched.waits_per_op", waits / kTracedOps, "count");
  AddZeroMetrics({{"query.pushdown_s", "s"},
                  {"serve.rtt_parse_ms", "ms"},
                  {"serve.rtt_stream_ms", "ms"},
                  {"serve.rtt_query_ms", "ms"},
                  {"serve.rtt_ping_ms", "ms"},
                  {"serve.overhead_ms", "ms"},
                  {"serve.attempts_per_request", "ratio"},
                  {"serve.busy_sheds", "count"}},
                 report);
  report->Add("baseline.sequential_gibps", sequential_gibps, "GiB/s");
  report->Add("work_efficiency", gibps_1w / sequential_gibps, "ratio");
  report->Add("trace.overhead", Median(traced) / Median(untraced), "ratio");
  return 0;
}

// ---------------------------------------------------------------------
// serve_mixed: an in-process parparawd under 4 closed-loop clients.

constexpr int kServeDatasets = 6;
constexpr size_t kServeDatasetBytes = 2u << 20;
constexpr int kClients = 4;

/// What a reply for one dataset must contain: the in-process Reader
/// result (parse and stream requests) and the in-process pushdown result
/// (query requests).
struct ServeDataset {
  std::string bytes;
  TableDigest parse;
  TableDigest query;
  int64_t query_selected = 0;
};

const Predicate& ServePredicate() {
  static const Predicate predicate(0, CompareOp::kIsNotNull);
  return predicate;
}

/// The server's query path in-process: resolve (types inferred), robust
/// column counts, then the pushdown parse.
Result<ParseOutput> InProcessQuery(std::string_view data,
                                   PushdownStats* stats) {
  LoadOptions load;
  load.collect_statistics = false;
  LoadResult resolution;
  PARPARAW_ASSIGN_OR_RETURN(
      ParseOptions base,
      BulkLoader::ResolveBaseOptions(data, false, load, &resolution));
  base.column_count_policy = ColumnCountPolicy::kRobust;
  return ParseWithPushdown(data, base, ServePredicate(), stats);
}

/// Generates the datasets and their expected replies; checks the
/// in-process Reader result against the sequential reference parser.
Status PrepareServeDatasets(uint64_t seed, std::vector<ServeDataset>* out) {
  out->resize(kServeDatasets);
  for (int i = 0; i < kServeDatasets; ++i) {
    ServeDataset& d = (*out)[static_cast<size_t>(i)];
    const uint64_t s = Derive(seed, 10 + static_cast<uint64_t>(i));
    switch (i % 3) {
      case 0:
        d.bytes = GenerateYelpLike(s, kServeDatasetBytes);
        break;
      case 1:
        d.bytes = GenerateTaxiLike(s, kServeDatasetBytes);
        break;
      default:
        d.bytes = GenerateLogLike(s, kServeDatasetBytes);
        break;
    }
    PARPARAW_ASSIGN_OR_RETURN(Table table, Reader::FromBuffer(d.bytes).Read());
    d.parse = DigestTable(table);

    LoadOptions load;
    load.collect_statistics = false;
    LoadResult resolution;
    PARPARAW_ASSIGN_OR_RETURN(
        ParseOptions truth_options,
        BulkLoader::ResolveBaseOptions(d.bytes, false, load, &resolution));
    PARPARAW_ASSIGN_OR_RETURN(std::optional<dialect::CompiledDialect> fallback,
                              dialect::ResolveParseDialect(&truth_options));
    if (!fallback.has_value()) {
      PARPARAW_ASSIGN_OR_RETURN(
          ParseOutput truth, SequentialParser::Parse(d.bytes, truth_options));
      const std::string diff = CompareDigests(d.parse, DigestTable(truth.table));
      if (!diff.empty()) {
        return Status::Internal("dataset " + std::to_string(i) +
                                ": Reader differs from the sequential "
                                "parser: " + diff);
      }
    }

    PushdownStats stats;
    PARPARAW_ASSIGN_OR_RETURN(ParseOutput queried,
                              InProcessQuery(d.bytes, &stats));
    d.query = DigestTable(queried.table);
    d.query_selected = stats.records_selected;
  }
  return Status::OK();
}

serve::RetryPolicy ClientPolicy(uint64_t seed) {
  serve::RetryPolicy policy;
  policy.seed = seed;
  // Bounded waits: a hung daemon fails the run instead of stalling it.
  policy.io_timeout_ms = 60'000;
  return policy;
}

/// Issues one logical request and checks its reply. Returns "" or the
/// error; *seconds is the request's round trip (retries included).
std::string IssueRequest(serve::RetryingClient* client, RequestKind kind,
                         const ServeDataset& d, double* seconds,
                         int64_t* bytes) {
  const double t0 = NowSeconds();
  *bytes = 0;
  switch (kind) {
    case RequestKind::kPing: {
      const Status st = client->Ping();
      *seconds = NowSeconds() - t0;
      return st.ok() ? "" : st.ToString();
    }
    case RequestKind::kQuery: {
      Result<serve::QueryReply> reply = client->Query(d.bytes, ServePredicate());
      *seconds = NowSeconds() - t0;
      if (!reply.ok()) return reply.status().ToString();
      if (reply->busy) return "busy after retries";
      *bytes = static_cast<int64_t>(d.bytes.size());
      if (reply->records_selected != d.query_selected) {
        return "query selected " + std::to_string(reply->records_selected) +
               " records, expected " + std::to_string(d.query_selected);
      }
      return CompareDigests(DigestTable(reply->table), d.query);
    }
    case RequestKind::kStreamParse:
    case RequestKind::kParse:
    default: {
      serve::RequestOptions options;
      options.stream = kind == RequestKind::kStreamParse;
      Result<serve::ParseReply> reply = client->Parse(d.bytes, options);
      *seconds = NowSeconds() - t0;
      if (!reply.ok()) return reply.status().ToString();
      if (reply->busy) return "busy after retries";
      *bytes = static_cast<int64_t>(d.bytes.size());
      if (!options.stream) return CompareDigests(DigestTable(reply->table), d.parse);
      TableDigester digester;
      for (const Table& part : reply->parts) digester.Add(part);
      return CompareDigests(digester.Finish(), d.parse);
    }
  }
}

/// A running daemon and its connected clients.
struct ServeRig {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::RetryingClient>> clients;

  ~ServeRig() {
    for (auto& client : clients) client->Close();
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

struct LoopResult {
  /// Granted seconds of the loop window (GrantedSeconds); every latency
  /// below is scaled by the window's granted/wall ratio.
  double wall = 0;
  int64_t bytes = 0;
  std::vector<double> latencies;
  /// Round trips per request kind (indexed by RequestKind).
  std::vector<double> by_kind[4];
  /// Parse round trips paired with their dataset.
  std::vector<std::pair<int, double>> parses;
  serve::RetryStats retry;
};

/// Closed loop: each client sends its next request when the previous
/// reply has arrived and been checked, until `seconds` have passed.
LoopResult RunClosedLoop(ServeRig* rig, const std::vector<ServeDataset>& data,
                         uint64_t seed, double seconds, SpanRecorder* spans,
                         Report* report) {
  struct PerClient {
    LoopResult result;
    size_t attempted = 0;
    std::vector<std::string> errors;
  };
  std::vector<PerClient> per_client(kClients);
  std::vector<serve::RetryStats> before(kClients);
  for (int t = 0; t < kClients; ++t) before[t] = rig->clients[t]->stats();
  const CpuProbe p0 = ProbeCpu();
  const double start = p0.wall;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      PerClient& mine = per_client[static_cast<size_t>(t)];
      RequestStream::Options options;
      options.seed = Derive(seed, static_cast<uint64_t>(t));
      options.num_datasets = kServeDatasets;
      RequestStream stream(options);
      static const char* const kSpanNames[] = {"serve.parse", "serve.stream",
                                               "serve.query", "serve.ping"};
      while (NowSeconds() - start < seconds) {
        const Request request = stream.Next();
        const int dataset = static_cast<int>(request.dataset % kServeDatasets);
        double rtt = 0;
        int64_t bytes = 0;
        std::string error;
        {
          SpanRecorder::Scope span(spans,
                                   kSpanNames[static_cast<int>(request.kind)],
                                   static_cast<int64_t>(request.sequence) *
                                           kClients +
                                       t);
          error = IssueRequest(rig->clients[t].get(), request.kind,
                               data[static_cast<size_t>(dataset)], &rtt,
                               &bytes);
        }
        ++mine.attempted;
        if (!error.empty()) {
          mine.errors.push_back(error);
          continue;
        }
        mine.result.latencies.push_back(rtt);
        mine.result.by_kind[static_cast<int>(request.kind)].push_back(rtt);
        if (request.kind == RequestKind::kParse) {
          mine.result.parses.emplace_back(dataset, rtt);
        }
        mine.result.bytes += bytes;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CpuProbe p1 = ProbeCpu();
  LoopResult merged;
  merged.wall = GrantedSeconds(p0, p1);
  const double scale = merged.wall / std::max(p1.wall - p0.wall, 1e-9);
  for (int t = 0; t < kClients; ++t) {
    PerClient& mine = per_client[static_cast<size_t>(t)];
    for (const std::string& error : mine.errors) report->Op("request", error);
    for (size_t i = mine.errors.size(); i < mine.attempted; ++i) {
      report->Op("request", "");
    }
    LoopResult& r = mine.result;
    for (double& v : r.latencies) v *= scale;
    for (auto& kind : r.by_kind) {
      for (double& v : kind) v *= scale;
    }
    for (auto& [dataset, v] : r.parses) v *= scale;
    merged.bytes += r.bytes;
    merged.latencies.insert(merged.latencies.end(), r.latencies.begin(),
                            r.latencies.end());
    for (int k = 0; k < 4; ++k) {
      merged.by_kind[k].insert(merged.by_kind[k].end(), r.by_kind[k].begin(),
                               r.by_kind[k].end());
    }
    merged.parses.insert(merged.parses.end(), r.parses.begin(),
                         r.parses.end());
    const serve::RetryStats& now = rig->clients[t]->stats();
    merged.retry.requests += now.requests - before[t].requests;
    merged.retry.attempts += now.attempts - before[t].attempts;
    merged.retry.busy_sheds += now.busy_sheds - before[t].busy_sheds;
  }
  return merged;
}

/// One set-up: start the daemon, connect the clients, and warm every
/// dataset up through each request kind (replies checked). Returns the
/// set-up time, checks excluded.
double SetUpServe(const std::vector<ServeDataset>& data, uint64_t seed,
                  ServeRig* rig, Report* report) {
  const CpuProbe p0 = ProbeCpu();
  double setup = 0;
  const double t0 = p0.wall;
  rig->server = std::make_unique<serve::Server>(serve::ServeOptions{});
  Result<uint16_t> port = rig->server->Start();
  if (!port.ok()) {
    report->Op("server start", port.status().ToString());
    return NowSeconds() - t0;
  }
  for (int t = 0; t < kClients; ++t) {
    rig->clients.push_back(std::make_unique<serve::RetryingClient>(
        *port, ClientPolicy(Derive(seed, 100 + static_cast<uint64_t>(t)))));
    const Status connected = rig->clients.back()->Ping();
    if (!connected.ok()) report->Op("connect", connected.ToString());
  }
  setup += NowSeconds() - t0;
  for (int i = 0; i < kServeDatasets; ++i) {
    for (RequestKind kind : {RequestKind::kParse, RequestKind::kQuery,
                             RequestKind::kStreamParse}) {
      double rtt = 0;
      int64_t bytes = 0;
      const std::string error =
          IssueRequest(rig->clients[static_cast<size_t>(i) % kClients].get(),
                       kind, data[static_cast<size_t>(i)], &rtt, &bytes);
      report->Op("warm-up request", error);
      setup += rtt;
    }
  }
  const CpuProbe p1 = ProbeCpu();
  return setup * GrantedSeconds(p0, p1) / std::max(p1.wall - p0.wall, 1e-9);
}

/// In-process parses of every dataset on `pool`; returns the pass time.
double ParseAllInProcess(const std::vector<ServeDataset>& data,
                         ThreadPool* pool, Report* report) {
  const CpuProbe p0 = ProbeCpu();
  std::vector<Result<Table>> tables;
  for (const ServeDataset& d : data) {
    tables.push_back(Reader::FromBuffer(d.bytes).WithThreadPool(pool).Read());
  }
  const double granted = GrantedSeconds(p0, ProbeCpu());
  for (size_t i = 0; i < data.size(); ++i) {
    const ServeDataset& d = data[i];
    const Result<Table>& table = tables[i];
    report->Op("in-process parse",
               !table.ok() ? table.status().ToString()
                           : CheckShape(*table, d.parse.rows,
                                        static_cast<int>(d.parse.columns.size())));
  }
  return granted;
}

int RunServeWorkload(const Args& args, SpanRecorder* spans, Report* report) {
  std::vector<ServeDataset> data;
  const Status prepared = PrepareServeDatasets(args.seed, &data);
  if (!prepared.ok()) {
    std::fprintf(stderr, "serve datasets: %s\n", prepared.ToString().c_str());
    return 1;
  }
  double total_bytes = 0;
  for (const ServeDataset& d : data) {
    total_bytes += static_cast<double>(d.bytes.size());
  }
  const bool rss_reset = ResetPeakRss();

  std::vector<double> setup_times;
  auto rig = std::make_unique<ServeRig>();
  std::unique_ptr<ThreadPool> pool1;
  for (int s = 0; s < kSetups; ++s) {
    rig = std::make_unique<ServeRig>();
    pool1.reset();
    const double t0 = NowSeconds();
    pool1 = std::make_unique<ThreadPool>(1);
    const double pool_s = NowSeconds() - t0;
    setup_times.push_back(pool_s + SetUpServe(data, args.seed, rig.get(),
                                              report) +
                          ParseAllInProcess(data, pool1.get(), report));
  }
  if (report->failed > 0) return 0;

  if (!args.trace) {
    const LoopResult loop = RunClosedLoop(rig.get(), data, Derive(args.seed, 1000),
                                          args.seconds * 0.8, nullptr, report);
    std::vector<double> passes;
    const double start = NowSeconds();
    while (passes.size() < 3 || NowSeconds() - start < args.seconds * 0.2) {
      passes.push_back(ParseAllInProcess(data, pool1.get(), report));
    }
    const double completed = static_cast<double>(loop.latencies.size());
    report->Add("gibps", static_cast<double>(loop.bytes) / kGiB / loop.wall,
                "GiB/s");
    report->Add("gibps_1w",
                total_bytes / kGiB * static_cast<double>(passes.size()) /
                    Sum(passes),
                "GiB/s");
    report->Add("requests_per_s", completed / loop.wall, "1/s");
    report->Add("latency_ms", Median(loop.latencies) * 1e3, "ms");
    report->Add("latency_p90_ms", Percentile(loop.latencies, 0.9) * 1e3, "ms");
    report->Add("peak_rss_mb", PeakMib(rss_reset), "MiB");
    report->Add("setup_s", Median(setup_times), "s");
    std::fprintf(stderr, "serve_mixed: %zu requests in %.2f s\n",
                 loop.latencies.size(), loop.wall);
    static const char* const kKinds[] = {"parse", "stream", "query", "ping"};
    for (int k = 0; k < 4; ++k) {
      std::fprintf(stderr, "  %-7s %5zu requests, median %.2f ms\n", kKinds[k],
                   loop.by_kind[k].size(), Median(loop.by_kind[k]) * 1e3);
    }
    std::fprintf(stderr, "  deciles (ms):");
    for (int q = 1; q < 10; ++q) {
      std::fprintf(stderr, " %.1f", Percentile(loop.latencies, q / 10.0) * 1e3);
    }
    std::fprintf(stderr, "\n");
    return 0;
  }

  // --- traced run ---
  // (1) Untraced closed loop: the reference latency and CPU accounting.
  const Usage usage0 = ReadUsage();
  const LoopResult plain = RunClosedLoop(rig.get(), data, Derive(args.seed, 2000),
                                         args.seconds * 0.3, nullptr, report);
  const Usage usage1 = ReadUsage();

  // (2) Traced closed loop: spans per request, scheduler counters on.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.SetEnabled(true);
  registry.Reset();
  const LoopResult traced = RunClosedLoop(rig.get(), data, Derive(args.seed, 3000),
                                          args.seconds * 0.3, spans, report);
  const double requests = std::max<double>(traced.latencies.size(), 1);
  const double steals = static_cast<double>(CounterValue("sched.steals"));
  const double waits = static_cast<double>(CounterValue("sched.waits"));
  rig.reset();  // the daemon is idle from here on

  // (3) In-process cost of a parse reply per dataset: Read + serialise.
  std::vector<double> inprocess(kServeDatasets);
  std::vector<exec::IngestStats> exec_runs;
  std::vector<double> pushdown;
  for (int i = 0; i < kServeDatasets; ++i) {
    const ServeDataset& d = data[static_cast<size_t>(i)];
    std::vector<double> times;
    for (int r = 0; r < 3; ++r) {
      const CpuProbe p0 = ProbeCpu();
      Result<Table> table = Reader::FromBuffer(d.bytes).Read();
      Result<std::string> ipc =
          table.ok() ? SerializeTable(*table) : Result<std::string>(table.status());
      times.push_back(GrantedSeconds(p0, ProbeCpu()));
      report->Op("in-process parse", ipc.ok() ? "" : ipc.status().ToString());
    }
    inprocess[static_cast<size_t>(i)] = Median(times);

    // The executor's facts for a served parse (server partition size).
    LoadOptions load;
    load.collect_statistics = false;
    LoadResult resolution;
    Result<ParseOptions> base =
        BulkLoader::ResolveBaseOptions(d.bytes, false, load, &resolution);
    if (base.ok()) {
      exec::PipelineExecutor executor;
      exec::ExecOptions exec_options;
      exec_options.base = *base;
      exec_options.partition_size = serve::ServeOptions{}.partition_size;
      Result<exec::IngestResult> ingested =
          executor.IngestBuffer(d.bytes, exec_options);
      if (ingested.ok()) exec_runs.push_back(ingested->stats);
      report->Op("executor parse",
                 ingested.ok() ? CompareDigests(DigestTable(ingested->table),
                                                d.parse)
                               : ingested.status().ToString());
    } else {
      report->Op("executor parse", base.status().ToString());
    }

    {
      const CpuProbe p0 = ProbeCpu();
      SpanRecorder::Scope span(spans, "query.pushdown", 400 + i);
      PushdownStats stats;
      Result<ParseOutput> queried = InProcessQuery(d.bytes, &stats);
      pushdown.push_back(GrantedSeconds(p0, ProbeCpu()));
      report->Op("in-process query",
                 queried.ok() ? CompareDigests(DigestTable(queried->table), d.query)
                              : queried.status().ToString());
    }
  }
  std::vector<double> overheads;
  for (const auto& [dataset, rtt] : traced.parses) {
    overheads.push_back(rtt - inprocess[static_cast<size_t>(dataset)]);
  }

  // (4) Decomposed parses of every dataset, step.* histograms on.
  registry.Reset();
  DecomposedResult first;
  LoadOptions load;
  load.collect_statistics = false;
  for (int i = 0; i < kServeDatasets; ++i) {
    const ServeDataset& d = data[static_cast<size_t>(i)];
    DecomposedResult r =
        RunDecomposed(Source{"", d.bytes}, load, spans, 500 + i, &registry);
    report->Op("decomposed op", r.status.ok() ? CompareDigests(r.digest, d.parse)
                                              : r.status.ToString());
    if (i == 0) first = std::move(r);
  }
  registry.SetEnabled(false);

  // (5) 1-worker in-process parses and the sequential reference parser.
  std::vector<double> passes;
  for (int i = 0; i < 3; ++i) {
    passes.push_back(ParseAllInProcess(data, pool1.get(), report));
  }
  double baseline = 0;
  for (const ServeDataset& d : data) {
    LoadResult resolution;
    Result<ParseOptions> options =
        BulkLoader::ResolveBaseOptions(d.bytes, false, load, &resolution);
    if (options.ok()) {
      (void)dialect::ResolveParseDialect(&*options);
      const CpuProbe p0 = ProbeCpu();
      SpanRecorder::Scope span(spans, "baseline.parse", 600);
      Result<ParseOutput> parsed = SequentialParser::Parse(d.bytes, *options);
      baseline += GrantedSeconds(p0, ProbeCpu());
      report->Op("baseline parse", parsed.ok() ? "" : parsed.status().ToString());
    }
  }

  const double gibps_1w =
      total_bytes / kGiB * static_cast<double>(passes.size()) / Sum(passes);
  const double sequential_gibps = total_bytes / kGiB / baseline;
  // Per-op core metrics are over the dataset-0 decomposition, scaled to a
  // mean dataset for the histogram sums.
  AddCoreLayerMetrics(*spans, first, kServeDatasets, report);
  AddExecMetrics(exec_runs, report);
  AddCpuMetrics(usage0, usage1, plain.wall,
                static_cast<double>(plain.bytes) / kMiB, report);
  report->Add("sched.steals_per_op", steals / requests, "count");
  report->Add("sched.waits_per_op", waits / requests, "count");
  report->Add("query.pushdown_s", Median(pushdown), "s");
  report->Add("serve.rtt_parse_ms",
              Median(traced.by_kind[static_cast<int>(RequestKind::kParse)]) * 1e3,
              "ms");
  report->Add(
      "serve.rtt_stream_ms",
      Median(traced.by_kind[static_cast<int>(RequestKind::kStreamParse)]) * 1e3,
      "ms");
  report->Add("serve.rtt_query_ms",
              Median(traced.by_kind[static_cast<int>(RequestKind::kQuery)]) * 1e3,
              "ms");
  report->Add("serve.rtt_ping_ms",
              Median(traced.by_kind[static_cast<int>(RequestKind::kPing)]) * 1e3,
              "ms");
  report->Add("serve.overhead_ms", Median(overheads) * 1e3, "ms");
  report->Add("serve.attempts_per_request",
              static_cast<double>(traced.retry.attempts) /
                  std::max<double>(traced.retry.requests, 1),
              "ratio");
  report->Add("serve.busy_sheds", static_cast<double>(traced.retry.busy_sheds),
              "count");
  report->Add("baseline.sequential_gibps", sequential_gibps, "GiB/s");
  report->Add("work_efficiency", gibps_1w / sequential_gibps, "ratio");
  report->Add("trace.overhead", Median(traced.latencies) / Median(plain.latencies),
              "ratio");
  return 0;
}

// ---------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload quoted_read|numeric_stream|"
                 "serve_mixed --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  SpanRecorder spans(args.trace);
  Report report;
  int rc = 0;
  if (args.workload == "quoted_read") {
    rc = RunFileWorkload(QuotedRead(), args, &spans, &report);
  } else if (args.workload == "numeric_stream") {
    rc = RunFileWorkload(NumericStream(), args, &spans, &report);
  } else if (args.workload == "serve_mixed") {
    rc = RunServeWorkload(args, &spans, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;

  if (args.trace) {
    const std::string trace_path =
        (std::filesystem::path(args.work_dir) /
         (args.workload + "-" + std::to_string(args.seed) + ".trace.json"))
            .string();
    const Status written = WriteStringToFile(trace_path, spans.ChromeTraceJson());
    std::fprintf(stderr, "spans: %zu written to %s (%s)\n",
                 spans.Spans().size(), trace_path.c_str(),
                 written.ok() ? "ok" : written.ToString().c_str());
    std::fprintf(stderr, "self time by span:\n");
    for (const auto& [name, seconds] : spans.SelfSeconds()) {
      std::fprintf(stderr, "  %-20s %10.4f s\n", name.c_str(), seconds);
    }
  }
  std::fprintf(stderr, "%s: attempted %lld, failed %lld\n",
               args.workload.c_str(), static_cast<long long>(report.attempted),
               static_cast<long long>(report.failed));
  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("%s\n", ResultJson(correct, report.attempted, report.failed,
                                 report.metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace parparaw::perfbench

int main(int argc, char** argv) {
  return parparaw::perfbench::Main(argc, argv);
}
