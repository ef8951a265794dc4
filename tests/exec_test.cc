#include "exec/executor.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/parser.h"
#include "io/file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pushdown_oracle.h"
#include "robust/failpoint.h"
#include "robust/resource_guard.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

using exec::ExecOptions;
using exec::IngestResult;
using exec::PipelineExecutor;
using robust::ErrorPolicy;

// Input with quoted delimiters/newlines, empty fields, malformed ints and
// short records, sized to span many partitions at the test partition size.
std::string ExecInput(int rows = 400) {
  std::string csv;
  for (int i = 0; i < rows; ++i) {
    switch (i % 8) {
      case 3:
        csv += "\"q" + std::to_string(i) + ",x\"," + std::to_string(i) +
               ",\"line\nbreak\"\n";
        break;
      case 5:
        csv += "row" + std::to_string(i) + ",notanint,plain\n";
        break;
      case 6:
        csv += std::to_string(i) + ",,\n";
        break;
      case 7:
        csv += "short" + std::to_string(i) + "\n";
        break;
      default:
        csv += "f" + std::to_string(i) + "," + std::to_string(i * 7) +
               ",tail" + std::to_string(i) + "\n";
        break;
    }
  }
  return csv;
}

Schema ExecSchema() {
  Schema schema;
  schema.AddField(Field("s", DataType::String()));
  schema.AddField(Field("n", DataType::Int64()));
  schema.AddField(Field("t", DataType::String()));
  return schema;
}

ParseOptions BaseOptions(ErrorPolicy policy, simd::KernelKind kernel) {
  ParseOptions options;
  options.schema = ExecSchema();
  options.error_policy = policy;
  options.kernel = kernel;
  return options;
}

void ExpectQuarantineEqual(const robust::QuarantineTable& got,
                           const robust::QuarantineTable& want) {
  ASSERT_EQ(got.size(), want.size());
  for (int64_t i = 0; i < got.size(); ++i) {
    const robust::QuarantineEntry& g = got.entries()[i];
    const robust::QuarantineEntry& w = want.entries()[i];
    EXPECT_EQ(g.row, w.row) << "entry " << i;
    EXPECT_EQ(g.begin, w.begin) << "entry " << i;
    EXPECT_EQ(g.end, w.end) << "entry " << i;
    EXPECT_EQ(g.raw, w.raw) << "entry " << i;
    EXPECT_EQ(g.column, w.column) << "entry " << i;
    EXPECT_EQ(g.stage, w.stage) << "entry " << i;
  }
}

// The pipelined schedule must be invisible in the output: for every kernel
// and error policy, the table, rejected vector and quarantine spans are
// bit-identical to one monolithic parse of the whole input.
TEST(ExecTest, DifferentialAgainstSerialAcrossKernelsAndPolicies) {
  const std::string input = ExecInput();
  for (simd::KernelKind kernel :
       {simd::KernelKind::kScalar, simd::KernelKind::kAuto}) {
    for (ErrorPolicy policy :
         {ErrorPolicy::kNull, ErrorPolicy::kSkip, ErrorPolicy::kQuarantine}) {
      auto want = Parser::Parse(input, BaseOptions(policy, kernel));
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (size_t partition_size :
           {size_t{257}, size_t{700}, size_t{4096}, size_t{1} << 20}) {
        PipelineExecutor executor;
        ExecOptions options;
        options.base = BaseOptions(policy, kernel);
        options.partition_size = partition_size;
        auto got = executor.IngestBuffer(input, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();

        ASSERT_TRUE(got->table.Equals(want->table))
            << "kernel=" << static_cast<int>(kernel)
            << " policy=" << static_cast<int>(policy)
            << " partition=" << partition_size;
        EXPECT_EQ(got->table.rejected, want->table.rejected);
        ExpectQuarantineEqual(got->quarantine, want->quarantine);
        EXPECT_EQ(got->stats.num_partitions,
                  static_cast<int>((input.size() + partition_size - 1) /
                                   partition_size));
      }
    }
  }
}

TEST(ExecTest, FileIngestMatchesBufferIngest) {
  const std::string input = ExecInput(800);
  const std::string path = "/tmp/parparaw_exec_test.csv";
  ASSERT_TRUE(WriteStringToFile(path, input).ok());

  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kQuarantine, simd::KernelKind::kAuto);
  options.partition_size = 1000;
  auto from_file = executor.IngestFile(path, options);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();

  PipelineExecutor buffer_executor;
  auto from_buffer = buffer_executor.IngestBuffer(input, options);
  ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();

  ASSERT_TRUE(from_file->table.Equals(from_buffer->table));
  ExpectQuarantineEqual(from_file->quarantine, from_buffer->quarantine);
  EXPECT_EQ(from_file->stats.bytes, static_cast<int64_t>(input.size()));
  std::remove(path.c_str());
}

TEST(ExecTest, FileIngestOpensItsFileOnce) {
  // The plan needs only the file's length, which the streaming reader
  // already has: no second open for a head sample.
  const std::string path = "/tmp/parparaw_exec_open_once.csv";
  ASSERT_TRUE(WriteStringToFile(path, ExecInput(200)).ok());
  robust::FailpointRegistry& registry = robust::FailpointRegistry::Instance();
  registry.Arm("io.open", robust::CountTrigger(0));  // counts, never fires
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kAuto);
  options.partition_size = 1000;
  auto ingested = executor.IngestFile(path, options);
  const int64_t opens = registry.hits("io.open");
  registry.Disarm("io.open");
  std::remove(path.c_str());
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_GT(ingested->plan.chunk_size, 0u);
  EXPECT_EQ(opens, 1);
}

TEST(ExecTest, EmptyInputYieldsEmptyTable) {
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  auto result = executor.IngestBuffer("", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows, 0);
  EXPECT_EQ(result->stats.num_partitions, 0);
}

TEST(ExecTest, InvalidOptionsRejectedUpFront) {
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.base.skip_rows = -2;
  auto result = executor.IngestBuffer("a,b,c\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// skip_records numbers the records of one buffer: each partition would skip
// its own record 1 (here `1` and `5`), so the executor refuses it.
TEST(ExecTest, SkipRecordsRejectedUpFront) {
  std::string input;
  for (int i = 0; i < 8; ++i) input += std::to_string(i) + "\n";
  PipelineExecutor executor;
  ExecOptions options;
  options.base.schema.AddField(Field("v", DataType::Int64()));
  options.base.skip_records = {1};
  options.partition_size = 8;
  auto result = executor.IngestBuffer(input, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("Parser::Parse"),
            std::string::npos)
      << result.status().ToString();
}

// A query selects inside each partition's sort morsel; the partitioned
// answer and its counts must equal the two-parse pushdown over the whole
// input, from a buffer or a file, under every keeping policy, with records
// straddling partition seams.
TEST(ExecTest, QueryMatchesWholeInputPushdown) {
  const std::string input = ExecInput(600);
  const std::string path = "/tmp/parparaw_exec_query_test.csv";
  ASSERT_TRUE(WriteStringToFile(path, input).ok());
  const Predicate predicate(1, CompareOp::kGt, "1000");
  for (ErrorPolicy policy :
       {ErrorPolicy::kNull, ErrorPolicy::kSkip, ErrorPolicy::kQuarantine}) {
    ParseOptions base = BaseOptions(policy, simd::KernelKind::kAuto);
    base.column_count_policy = ColumnCountPolicy::kRobust;
    PushdownStats want_counts;
    auto want = TwoParsePushdown(input, base, predicate, &want_counts);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_GT(want_counts.records_selected, 0);
    ASSERT_LT(want_counts.records_selected, want_counts.records_scanned);
    for (size_t partition_size :
         {size_t{64}, size_t{257}, size_t{700}, size_t{1} << 20}) {
      for (bool from_file : {false, true}) {
        PipelineExecutor executor;
        ExecOptions options;
        options.base = base;
        options.predicate = predicate;
        options.partition_size = partition_size;
        auto got = from_file ? executor.IngestFile(path, options)
                             : executor.IngestBuffer(input, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(got->table.Equals(want->table))
            << "policy=" << static_cast<int>(policy)
            << " partition=" << partition_size << " file=" << from_file;
        EXPECT_EQ(got->table.rejected, want->table.rejected);
        ExpectQuarantineEqual(got->quarantine, want->quarantine);
        EXPECT_EQ(got->pushdown.records_scanned, want_counts.records_scanned);
        EXPECT_EQ(got->pushdown.records_selected,
                  want_counts.records_selected);
      }
    }
  }
  std::remove(path.c_str());
}

// A query under a dialect over the SIMD register budget still answers:
// every partition's one staged parse walks the entry states sequentially
// in its context step, and its select stage reads the same indexes.
TEST(ExecTest, QueryUnderOverBudgetDialectScansEachPartitionOnce) {
  dialect::DialectSpec spec;
  spec.name = "fixed-wide";
  spec.fixed_widths = {10, 10};  // 20 positions + EOL + INV > 16 states
  spec.quote = 0;
  std::string input;
  for (int i = 0; i < 40; ++i) {
    const std::string left = std::to_string(i * 7919);
    const std::string right = "row" + std::to_string(i);
    input += left + std::string(10 - left.size(), ' ') + right +
             std::string(10 - right.size(), '.') + "\n";
  }
  ParseOptions base;
  base.dialect = spec;
  base.schema.AddField(Field("left", DataType::String()));
  base.schema.AddField(Field("right", DataType::String()));
  base.column_count_policy = ColumnCountPolicy::kRobust;
  const Predicate predicate(1, CompareOp::kContains, "row1");
  PushdownStats want_counts;
  auto want = TwoParsePushdown(input, base, predicate, &want_counts);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want_counts.records_scanned, 40);
  ASSERT_EQ(want_counts.records_selected, 11);  // row1, row10..row19

  obs::MetricsRegistry metrics;
  PipelineExecutor executor;
  ExecOptions options;
  options.base = base;
  options.base.metrics = &metrics;
  options.predicate = predicate;
  options.partition_size = 64;  // 21-byte records straddle seams
  auto got = executor.IngestBuffer(input, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->table.Equals(want->table));
  EXPECT_EQ(got->pushdown.records_scanned, 40);
  EXPECT_EQ(got->pushdown.records_selected, 11);
  // One pipeline parse per partition, on the scalar level.
  ASSERT_GT(got->stats.num_partitions, 1);
  EXPECT_EQ(metrics.GetCounter("parse.runs")->Value(),
            got->stats.num_partitions);
  EXPECT_EQ(got->plan.kernel_level, simd::KernelLevel::kScalar);
}

// A query scans each partition once: one staged parse and one context step
// per partition, and the same multi-DFA work as the plain ingest of the
// same input.
TEST(ExecTest, QueryScansEachPartitionOnce) {
  const std::string input = ExecInput(600);
  const auto ingest = [&](bool query, obs::MetricsRegistry* metrics,
                          obs::Tracer* tracer) {
    PipelineExecutor executor;
    ExecOptions options;
    options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kAuto);
    options.base.metrics = metrics;
    options.base.tracer = tracer;
    if (query) options.predicate = Predicate(1, CompareOp::kGt, "1000");
    options.partition_size = 4096;
    return executor.IngestBuffer(input, options);
  };
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  auto query = ingest(true, &metrics, &tracer);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto plain = ingest(false, nullptr, nullptr);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  const int partitions = query->stats.num_partitions;
  ASSERT_GE(partitions, 3);
  EXPECT_GT(query->pushdown.records_selected, 0);
  EXPECT_EQ(metrics.GetCounter("parse.runs")->Value(), partitions);
  int context_spans = 0;
  for (const obs::TraceEvent& e : tracer.Events()) {
    context_spans += std::string(e.name) == "step.context" ? 1 : 0;
  }
  EXPECT_EQ(context_spans, partitions);
  EXPECT_EQ(query->work.dfa_transitions, plain->work.dfa_transitions);
}

// Backpressure: with a stalled convert stage, the admission controller
// must clamp how many partitions become resident — the reader cannot run
// ahead of the budget no matter how fast the disk is.
TEST(ExecTest, BackpressureClampsResidentPartitionsUnderBudget) {
  const std::string input = ExecInput(1200);
  std::atomic<int> convert_calls{0};
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.partition_size = 600;
  options.max_inflight_partitions = 2;
  options.stage_hook = [&](int stage, int64_t) {
    if (stage == 3) {
      // A slow consumer: every partition's conversion stalls, so upstream
      // stages fill their queues and must block on admission.
      ++convert_calls;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::OK();
  };
  auto result = executor.IngestBuffer(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.num_partitions, 4);
  EXPECT_EQ(result->stats.admission_limit, 2);
  EXPECT_LE(result->stats.max_inflight, 2);
  EXPECT_EQ(convert_calls.load(), result->stats.num_partitions);
}

// The auto admission limit derives from the memory budget: a budget that
// clamps the partitions still admits one per pipeline stage (degrade the
// partition size, not the pipeline; never refuse).
TEST(ExecTest, MemoryBudgetDerivesAdmissionLimit) {
  const std::string input = ExecInput(600);
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.base.memory_budget = 64 * 1024;
  options.partition_size = 1 << 20;  // gets clamped to fit the budget
  auto result = executor.IngestBuffer(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.admission_limit, robust::kPipelineDepth);
  EXPECT_LE(result->stats.max_inflight, result->stats.admission_limit);
  // The clamp shrank partitions: the input must have been split.
  EXPECT_GT(result->stats.num_partitions, 1);

  // Differential: the degraded schedule still produces the monolithic
  // answer.
  ParseOptions monolithic = options.base;
  monolithic.memory_budget = 0;
  auto want = Parser::Parse(input, monolithic);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(result->table.Equals(want->table));
}

// A budgeted ingest overlaps like an unbudgeted one: with a stalled
// convert stage the reader runs ahead to robust::kPipelineDepth resident
// partitions, and their estimated working sets still fit the budget.
TEST(ExecTest, MemoryBudgetKeepsPipelineDepth) {
  const std::string input = ExecInput(1200);
  constexpr int64_t kBudget = 64 * 1024;
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.base.memory_budget = kBudget;
  options.partition_size = 1 << 20;  // clamps to 2 KiB at the 8x factor
  options.stage_hook = [](int stage, int64_t) {
    if (stage == 3) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Status::OK();
  };
  auto result = executor.IngestBuffer(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const exec::IngestStats& stats = result->stats;
  EXPECT_EQ(stats.admission_limit, robust::kPipelineDepth);
  EXPECT_GT(stats.max_inflight, 1);
  EXPECT_LE(stats.max_inflight, stats.admission_limit);
  EXPECT_GT(stats.num_partitions, robust::kPipelineDepth);
  const int64_t factor = ParseWorkingSetFactor(options.base);
  const int64_t partition = robust::ClampPartitionSizeForBudget(
      static_cast<int64_t>(options.partition_size), kBudget,
      /*floor_bytes=*/256, factor);
  EXPECT_LE(stats.admission_limit * factor * partition, kBudget);

  ParseOptions monolithic = options.base;
  monolithic.memory_budget = 0;
  auto want = Parser::Parse(input, monolithic);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(result->table.Equals(want->table));
}

// Budgeted partitions are small, so a record longer than four of them is
// carried through several in-flight partitions; buffer and file ingests
// must still equal one monolithic parse.
TEST(ExecTest, MemoryBudgetParsesRecordLongerThanFourPartitions) {
  constexpr int64_t kBudget = 64 * 1024;
  const std::string path =
      "/tmp/parparaw_exec_giant_" + std::to_string(::getpid()) + ".csv";
  for (bool yelp_like : {false, true}) {
    ParseOptions base;
    base.schema = yelp_like ? YelpSchema() : TaxiSchema();
    const int64_t partition = robust::ClampPartitionSizeForBudget(
        1 << 20, kBudget, /*floor_bytes=*/256, ParseWorkingSetFactor(base));
    const std::string input =
        GenerateSkewed(7, 24 * 1024,
                       /*giant_field_bytes=*/static_cast<size_t>(5 * partition),
                       yelp_like);
    auto want = Parser::Parse(input, base);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(WriteStringToFile(path, input).ok());

    ExecOptions options;
    options.base = base;
    options.base.memory_budget = kBudget;
    options.partition_size = 1 << 20;
    PipelineExecutor executor;
    auto from_buffer = executor.IngestBuffer(input, options);
    ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();
    EXPECT_TRUE(from_buffer->table.Equals(want->table))
        << "buffer, yelp_like=" << yelp_like;
    EXPECT_GT(from_buffer->stats.num_partitions, robust::kPipelineDepth);
    auto from_file = executor.IngestFile(path, options);
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
    EXPECT_TRUE(from_file->table.Equals(want->table))
        << "file, yelp_like=" << yelp_like;
    EXPECT_EQ(executor.admission()->inflight(), 0);
  }
  std::remove(path.c_str());
}

TEST(ExecTest, CancellationMidPipelineReturnsCancelled) {
  const std::string input = ExecInput(1200);
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.partition_size = 600;
  std::atomic<bool> fired{false};
  options.stage_hook = [&](int stage, int64_t partition) {
    // Cancel from inside the pipeline once partition 2 reaches the scan
    // stage — upstream reads are already in flight at that point.
    if (stage == 1 && partition == 2 && !fired.exchange(true)) {
      executor.Cancel();
    }
    return Status::OK();
  };
  auto result = executor.IngestBuffer(input, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(executor.cancelled());

  // A cancelled executor refuses new work immediately.
  auto again = executor.IngestBuffer("a,1,b\n", options);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kCancelled);
}

// Streaming mode: per-partition tables arrive in stream order, and a sink
// error cancels the rest of the ingest cleanly.
TEST(ExecTest, StreamSinkReceivesPartitionsInOrder) {
  const std::string input = ExecInput(400);
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.partition_size = 700;
  std::vector<Table> batches;
  auto result = executor.StreamBuffer(input, options, [&](Table&& batch) {
    batches.push_back(std::move(batch));
    return Status::OK();
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows, 0);  // sink consumed everything
  ASSERT_EQ(static_cast<int>(batches.size()), result->stats.num_partitions);

  int64_t rows = 0;
  for (const Table& batch : batches) rows += batch.num_rows;
  auto monolithic =
      Parser::Parse(input, BaseOptions(ErrorPolicy::kNull,
                                       simd::KernelKind::kScalar));
  ASSERT_TRUE(monolithic.ok());
  EXPECT_EQ(rows, monolithic->table.num_rows);
}

TEST(ExecTest, StreamSinkErrorCancelsIngest) {
  const std::string input = ExecInput(400);
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.partition_size = 700;
  int seen = 0;
  auto result = executor.StreamBuffer(input, options, [&](Table&&) {
    return ++seen >= 2 ? Status::IoError("sink full") : Status::OK();
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_EQ(seen, 2);
}

// A parse error surfaces in stream order. Partition 0's conversion is
// stalled, so partition 1 fails first on another worker, yet the ingest
// reports partition 0's error: the one a monolithic parse hits first.
TEST(ExecTest, ParseErrorsSurfaceInStreamOrder) {
  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += (i == 1 || i == 7) ? "x,Z,abc\n" : "x,1,abc\n";
  }
  auto want = Parser::Parse(
      input, BaseOptions(ErrorPolicy::kFail, simd::KernelKind::kScalar));
  ASSERT_FALSE(want.ok());

  ThreadPool pool(4);
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kFail, simd::KernelKind::kScalar);
  options.base.pool = &pool;
  options.partition_size = 32;  // four 8-byte records per partition
  options.stage_hook = [](int stage, int64_t partition) {
    if (stage == 3 && partition == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return Status::OK();
  };
  auto result = executor.IngestBuffer(input, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), want.status().code());
  EXPECT_NE(result.status().message().find(want.status().message()),
            std::string::npos)
      << result.status().ToString() << " vs " << want.status().ToString();
}

// A stage hook's failure stops only its own run: it fails at that stage
// entry with exactly the hook's status, while a concurrent ingest on the
// same executor completes and every partition slot comes back.
TEST(ExecTest, StageHookFailureStopsOnlyItsRun) {
  const std::string input = ExecInput(1200);
  ThreadPool pool(4);
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.base.pool = &pool;
  options.partition_size = 600;
  options.max_inflight_partitions = 3;
  ExecOptions failing = options;
  const Status gone = Status::Cancelled("client gone");
  failing.stage_hook = [&](int stage, int64_t partition) {
    return stage == 1 && partition == 2 ? gone : Status::OK();
  };

  Result<IngestResult> failed(Status::Internal("not run"));
  std::thread other([&] { failed = executor.IngestBuffer(input, failing); });
  auto result = executor.IngestBuffer(input, options);
  other.join();

  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status(), gone) << failed.status().ToString();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PipelineExecutor solo;
  auto want = solo.IngestBuffer(input, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(result->table.Equals(want->table));
  EXPECT_FALSE(executor.cancelled());
  EXPECT_EQ(executor.admission()->inflight(), 0);
}

// Concurrent file ingests on one executor share its admission controller,
// so the partition limit holds across files, and each file's table is
// the one it gets alone.
TEST(ExecTest, ConcurrentFileIngestsShareOneAdmissionController) {
  std::vector<std::string> paths;
  std::vector<std::string> inputs;
  for (int f = 0; f < 3; ++f) {
    inputs.push_back(ExecInput(300 + 50 * f));
    paths.push_back("/tmp/parparaw_exec_multi_" + std::to_string(f) +
                    ".csv");
    ASSERT_TRUE(WriteStringToFile(paths[f], inputs[f]).ok());
  }
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.partition_size = 900;
  options.max_inflight_partitions = 3;
  std::vector<Result<IngestResult>> results(
      paths.size(), Result<IngestResult>(Status::Internal("not run")));
  std::vector<std::thread> threads;
  for (size_t f = 0; f < paths.size(); ++f) {
    threads.emplace_back(
        [&, f] { results[f] = executor.IngestFile(paths[f], options); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t f = 0; f < paths.size(); ++f) {
    ASSERT_TRUE(results[f].ok()) << results[f].status().ToString();
    // Global admission: no single file may have exceeded the shared limit.
    EXPECT_LE(results[f]->stats.max_inflight, 3);
    PipelineExecutor solo;
    auto want = solo.IngestBuffer(inputs[f], options);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(results[f]->table.Equals(want->table)) << "file " << f;
    std::remove(paths[f].c_str());
  }
  EXPECT_EQ(executor.admission()->inflight(), 0);
}

// Queue hand-off failpoints surface as clean errors with the queue's name
// in the context, never as hangs or corrupt output.
TEST(ExecTest, QueueFailpointsFailCleanly) {
  const std::string input = ExecInput(400);
  for (const char* site :
       {"exec.queue.scan.push", "exec.queue.scan.pop",
        "exec.queue.sort.push", "exec.queue.sort.pop",
        "exec.queue.convert.push", "exec.queue.convert.pop", "exec.read"}) {
    robust::FailpointRegistry::Instance().Arm(site,
                                              robust::CountTrigger(2));
    PipelineExecutor executor;
    ExecOptions options;
    options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
    options.partition_size = 700;
    auto result = executor.IngestBuffer(input, options);
    robust::FailpointRegistry::Instance().DisarmAll();
    ASSERT_FALSE(result.ok()) << site;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError) << site;
  }
}

// A record larger than one partition accumulates through the carry-over
// without stalling or splitting mid-record.
TEST(ExecTest, RecordLargerThanPartition) {
  std::string input = "a,1,b\n";
  input += "\"" + std::string(5000, 'x') + "\",2,c\n";
  input += "d,3,e\n";
  PipelineExecutor executor;
  ExecOptions options;
  options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kScalar);
  options.partition_size = 256;
  auto result = executor.IngestBuffer(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto want = Parser::Parse(input, options.base);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(result->table.Equals(want->table));
}

// Buffer-mode partitions parse the caller's bytes in place: a partition's
// carry-over is the view of the input right before its chunk. Partitions far
// smaller than a record (quotes and newlines spanning several partitions)
// must still quarantine exactly the spans one monolithic parse does.
TEST(ExecTest, InPlaceCarryViewKeepsQuarantineSpans) {
  std::string input = "skipped header\n";
  for (int i = 0; i < 60; ++i) {
    input += "\"multi\nline, " + std::to_string(i) + "\"," +
             (i % 3 == 0 ? std::string("bad") + std::to_string(i)
                         : std::to_string(i)) +
             ",\"" + std::string(static_cast<size_t>(i % 40), 'z') + "\"\n";
  }
  input += "trailing,oops,\"unterminated\nrecord\"";
  for (simd::KernelKind kernel :
       {simd::KernelKind::kScalar, simd::KernelKind::kAuto}) {
    ParseOptions base = BaseOptions(ErrorPolicy::kQuarantine, kernel);
    base.skip_rows = 1;
    auto want = Parser::Parse(input, base);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_GT(want->quarantine.size(), 0);
    for (size_t partition_size : {size_t{16}, size_t{37}, size_t{90}}) {
      obs::MetricsRegistry metrics;
      PipelineExecutor executor;
      ExecOptions options;
      options.base = base;
      options.base.metrics = &metrics;
      options.partition_size = partition_size;
      auto got = executor.IngestBuffer(input, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got->table.Equals(want->table))
          << "partition=" << partition_size;
      EXPECT_EQ(got->table.rejected, want->table.rejected);
      ExpectQuarantineEqual(got->quarantine, want->quarantine);
      EXPECT_EQ(metrics.GetCounter("exec.copied_bytes")->Value(), 0);
    }
  }
}

// exec.copied_bytes counts only the bytes the scan morsel copies to build a
// partition buffer: none in buffer mode (views) or for a file partition
// with no carry-over (the read buffer is adopted), carry + chunk bytes for
// every carried file partition.
TEST(ExecTest, CopiedBytesCountOnlyCarriedFilePartitions) {
  const std::string input = ExecInput(300);
  const std::string path = "/tmp/parparaw_exec_copied_test.csv";
  ASSERT_TRUE(WriteStringToFile(path, input).ok());
  auto want = Parser::Parse(
      input, BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kAuto));
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  const auto ingest = [&](bool from_file, size_t partition_size,
                          int64_t* copied) {
    obs::MetricsRegistry metrics;
    PipelineExecutor executor;
    ExecOptions options;
    options.base = BaseOptions(ErrorPolicy::kNull, simd::KernelKind::kAuto);
    options.base.metrics = &metrics;
    options.partition_size = partition_size;
    auto got = from_file ? executor.IngestFile(path, options)
                         : executor.IngestBuffer(input, options);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) return IngestResult();
    EXPECT_TRUE(got->table.Equals(want->table))
        << "file=" << from_file << " partition=" << partition_size;
    *copied = metrics.GetCounter("exec.copied_bytes")->Value();
    return std::move(got).ValueOrDie();
  };

  int64_t copied = -1;
  ingest(/*from_file=*/false, 500, &copied);
  EXPECT_EQ(copied, 0);
  const IngestResult one = ingest(/*from_file=*/true, size_t{1} << 20, &copied);
  EXPECT_EQ(one.stats.num_partitions, 1);
  EXPECT_EQ(copied, 0);

  const IngestResult many = ingest(/*from_file=*/true, 500, &copied);
  ASSERT_GT(many.partitions.size(), 2u);
  int64_t expected = 0;
  for (size_t i = 1; i < many.partitions.size(); ++i) {
    const int64_t carry = many.partitions[i - 1].carry_bytes;
    if (carry > 0) expected += carry + many.partitions[i].bytes;
  }
  EXPECT_GT(expected, 0);
  EXPECT_EQ(copied, expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace parparaw
