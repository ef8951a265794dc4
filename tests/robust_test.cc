#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/parser.h"
#include "exec/executor.h"
#include "io/file.h"
#include "loader/bulk_loader.h"
#include "obs/obs.h"
#include "robust/failpoint.h"
#include "robust/quarantine.h"
#include "robust/resource_guard.h"

namespace parparaw {
namespace {

using robust::CountTrigger;
using robust::ErrorPolicy;
using robust::EveryNthTrigger;
using robust::FailpointRegistry;
using robust::FailpointTrigger;
using robust::ProbabilityTrigger;

// Every test in this file may arm failpoints; tear them all down so no
// schedule leaks into later tests (or later files in the same binary).
class RobustTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Failpoint registry.
// ---------------------------------------------------------------------------

TEST_F(RobustTest, DisarmedFailpointIsFree) {
  EXPECT_FALSE(FailpointRegistry::AnyArmed());
  EXPECT_TRUE(robust::CheckFailpoint("never.armed").ok());
}

TEST_F(RobustTest, CountTriggerFiresFirstNHits) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.Arm("t.count", CountTrigger(2));
  EXPECT_TRUE(FailpointRegistry::AnyArmed());
  EXPECT_FALSE(robust::CheckFailpoint("t.count").ok());
  EXPECT_FALSE(robust::CheckFailpoint("t.count").ok());
  EXPECT_TRUE(robust::CheckFailpoint("t.count").ok());
  EXPECT_TRUE(robust::CheckFailpoint("t.count").ok());
  EXPECT_EQ(registry.hits("t.count"), 4);
  EXPECT_EQ(registry.fires("t.count"), 2);
  registry.Disarm("t.count");
  EXPECT_FALSE(FailpointRegistry::AnyArmed());
}

TEST_F(RobustTest, EveryNthTriggerFiresPeriodically) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.Arm("t.nth", EveryNthTrigger(3));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(!robust::CheckFailpoint("t.nth").ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true}));
}

TEST_F(RobustTest, ProbabilityTriggerReplaysExactly) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  const auto run = [&] {
    registry.Arm("t.prob", ProbabilityTrigger(0.5, /*seed=*/42));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!robust::CheckFailpoint("t.prob").ok());
    }
    return fired;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  // p=0.5 over 64 draws: both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);

  registry.Arm("t.sure", ProbabilityTrigger(1.0, 7));
  EXPECT_FALSE(robust::CheckFailpoint("t.sure").ok());
  registry.Arm("t.never", ProbabilityTrigger(0.0, 7));
  EXPECT_TRUE(robust::CheckFailpoint("t.never").ok());
}

TEST_F(RobustTest, SpecParsing) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(
      registry.ArmFromSpec("a=2; b=every:3; c=prob:0.5:7").ok());
  EXPECT_FALSE(robust::CheckFailpoint("a").ok());
  EXPECT_FALSE(robust::CheckFailpoint("a").ok());
  EXPECT_TRUE(robust::CheckFailpoint("a").ok());
  EXPECT_TRUE(robust::CheckFailpoint("b").ok());
  EXPECT_TRUE(robust::CheckFailpoint("b").ok());
  EXPECT_FALSE(robust::CheckFailpoint("b").ok());

  // Flags select the injected code and the transient bit.
  ASSERT_TRUE(registry.ArmFromSpec("t=1:transient; p=1:parse; r=1:resource")
                  .ok());
  bool transient = false;
  const Status t = robust::CheckFailpoint("t", &transient);
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(transient);
  EXPECT_EQ(robust::CheckFailpoint("p").code(), StatusCode::kParseError);
  EXPECT_EQ(robust::CheckFailpoint("r").code(),
            StatusCode::kResourceExhausted);
}

TEST_F(RobustTest, MalformedSpecsAreRejected) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  EXPECT_FALSE(registry.ArmFromSpec("noequals").ok());
  EXPECT_FALSE(registry.ArmFromSpec("x=").ok());
  EXPECT_FALSE(registry.ArmFromSpec("=1").ok());
  EXPECT_FALSE(registry.ArmFromSpec("x=count:").ok());
  EXPECT_FALSE(registry.ArmFromSpec("x=bogus:1").ok());
  EXPECT_FALSE(registry.ArmFromSpec("x=1:unknownflag").ok());
}

// ---------------------------------------------------------------------------
// Status context threading.
// ---------------------------------------------------------------------------

TEST_F(RobustTest, WithContextPrependsStage) {
  const Status inner = Status::ParseError("bad value");
  const Status outer = inner.WithContext("step.convert");
  EXPECT_EQ(outer.code(), StatusCode::kParseError);
  EXPECT_EQ(outer.message(), "step.convert: bad value");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST_F(RobustTest, ParseErrorsCarryStepContext) {
  ParseOptions options;
  options.validate = true;
  // An unterminated quote fails DFA validation inside the context step.
  const auto result = Parser::Parse("a,\"broken\nrow,3\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("step."), std::string::npos)
      << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Resource guards.
// ---------------------------------------------------------------------------

TEST_F(RobustTest, GuardedAssignMapsFailpointCode) {
  FailpointTrigger trigger = CountTrigger(1);
  trigger.code = StatusCode::kResourceExhausted;
  FailpointRegistry::Instance().Arm("alloc.test", trigger);
  std::vector<uint8_t> v;
  const Status st = robust::GuardedAssign("alloc.test", &v, 16, uint8_t{0});
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(robust::GuardedAssign("alloc.test", &v, 16, uint8_t{0}).ok());
  EXPECT_EQ(v.size(), 16u);
}

TEST_F(RobustTest, ClampPartitionSizeForBudget) {
  // No budget: untouched.
  EXPECT_EQ(robust::ClampPartitionSizeForBudget(1 << 20, 0), 1 << 20);
  // Budget of 64 KiB affords kPipelineDepth (4) partitions of 1 KiB at the
  // 16x working set.
  EXPECT_EQ(robust::ClampPartitionSizeForBudget(1 << 20, 64 * 1024), 1024);
  // Already affordable: untouched.
  EXPECT_EQ(robust::ClampPartitionSizeForBudget(512, 64 * 1024), 512);
  // Absurdly small budgets clamp to the floor rather than zero.
  EXPECT_EQ(robust::ClampPartitionSizeForBudget(1 << 20, 64), 256);
}

TEST_F(RobustTest, RetryPolicyBackoffDoublesAndCaps) {
  robust::RetryPolicy policy;
  EXPECT_EQ(policy.DelayUs(1), 50);
  EXPECT_EQ(policy.DelayUs(2), 100);
  EXPECT_EQ(policy.DelayUs(3), 200);
  EXPECT_EQ(policy.DelayUs(30), 5000);  // capped
}

TEST_F(RobustTest, RetryTransientRetriesOnlyTransientErrors) {
  robust::RetryPolicy fast{/*max_attempts=*/4, /*base_delay_us=*/1,
                           /*max_delay_us=*/2};
  const auto transient = [](const Status& st) {
    return st.code() == StatusCode::kIoError;
  };

  int calls = 0;
  Status st = robust::RetryTransient(
      fast,
      [&] {
        ++calls;
        return calls < 3 ? Status::IoError("flaky") : Status::OK();
      },
      transient);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);

  calls = 0;
  st = robust::RetryTransient(
      fast,
      [&] {
        ++calls;
        return Status::ParseError("fatal");
      },
      transient);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(calls, 1);  // non-transient: no retry

  calls = 0;
  st = robust::RetryTransient(
      fast,
      [&] {
        ++calls;
        return Status::IoError("always");
      },
      transient);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 4);  // budget exhausted
}

// ---------------------------------------------------------------------------
// I/O failpoints and transient recovery.
// ---------------------------------------------------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& contents)
      : path_("/tmp/parparaw_robust_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".tmp") {
    EXPECT_TRUE(WriteStringToFile(path_, contents).ok());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST_F(RobustTest, TransientReadFaultsAreRetried) {
  const std::string payload = "a,b\n1,2\n";
  TempFile file(payload);
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .ArmFromSpec("io.read=count:2:transient")
                  .ok());
  const auto contents = ReadFileToString(file.path());
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(*contents, payload);
  EXPECT_GE(FailpointRegistry::Instance().fires("io.read"), 2);
}

TEST_F(RobustTest, FatalReadFaultPropagates) {
  TempFile file("x\n");
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmFromSpec("io.read=count:1").ok());
  const auto contents = ReadFileToString(file.path());
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kIoError);
}

TEST_F(RobustTest, TransientWriteFaultsAreRetried) {
  const std::string path = "/tmp/parparaw_robust_write.tmp";
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .ArmFromSpec("io.write=count:2:transient")
                  .ok());
  ASSERT_TRUE(WriteStringToFile(path, "payload").ok());
  FailpointRegistry::Instance().DisarmAll();
  const auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "payload");
  std::remove(path.c_str());
}

TEST_F(RobustTest, FatalWriteFaultPropagates) {
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmFromSpec("io.write=count:1").ok());
  EXPECT_FALSE(
      WriteStringToFile("/tmp/parparaw_robust_fatal.tmp", "payload").ok());
  std::remove("/tmp/parparaw_robust_fatal.tmp");
}

TEST_F(RobustTest, TellFaultLeavesReaderClosed) {
  TempFile file("1,2\n3,4\n");
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmFromSpec("io.tell=1").ok());
  FileChunkReader reader;
  EXPECT_FALSE(reader.Open(file.path()).ok());
  std::string chunk;
  bool eof = false;
  // A failed Open must not leave a half-open reader behind.
  EXPECT_FALSE(reader.ReadNext(16, &chunk, &eof).ok());
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(reader.Open(file.path()).ok());
  EXPECT_EQ(reader.file_size(), 8);
}

TEST_F(RobustTest, PoolTaskFaultReportsWithoutSkippingWork) {
  ThreadPool pool(4);
  FailpointRegistry::Instance().Arm("pool.task", CountTrigger(1));
  std::vector<int> hits(1000, 0);
  const Status st = ParallelForEach(&pool, 0, 1000,
                                    [&](int64_t i) { hits[i] = 1; });
  EXPECT_FALSE(st.ok());
  // Slice bodies always run: a fault changes error reporting, never the
  // computation (the invariant the chaos suite's bit-identity check needs).
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(hits[i], 1) << i;
}

// ---------------------------------------------------------------------------
// Memory budget degradation.
// ---------------------------------------------------------------------------

std::string MakeCsv(int rows) {
  std::string csv;
  for (int i = 0; i < rows; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i * 10) + ",name" +
           std::to_string(i) + "\n";
  }
  return csv;
}

Schema ThreeColumnSchema() {
  Schema schema;
  schema.AddField(Field("a", DataType::Int64()));
  schema.AddField(Field("b", DataType::Int64()));
  schema.AddField(Field("s", DataType::String()));
  return schema;
}

TEST_F(RobustTest, MonolithicParseRefusesOverBudget) {
  const std::string csv = MakeCsv(200);
  ParseOptions options;
  options.schema = ThreeColumnSchema();
  options.memory_budget = 1024;  // ~16x input needed, way over
  const auto result = Parser::Parse(csv, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(RobustTest, StreamingDegradesInsteadOfRefusing) {
  const std::string csv = MakeCsv(200);
  ParseOptions base;
  base.schema = ThreeColumnSchema();

  const auto reference = Parser::Parse(csv, base);
  ASSERT_TRUE(reference.ok());

  exec::ExecOptions streaming;
  streaming.base = base;
  // Affords four 512-byte partitions at the field gather's 8x.
  streaming.base.memory_budget = 16 * 1024;
  exec::PipelineExecutor executor;
  const auto result = executor.IngestBuffer(csv, streaming);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.num_partitions, 1);
  EXPECT_TRUE(result->table.Equals(reference->table));
}

TEST_F(RobustTest, LoaderDegradesToDiskStreaming) {
  const std::string csv = "a,b,s\n" + MakeCsv(500);
  TempFile file(csv);

  LoadOptions unrestricted;
  const auto full = BulkLoader::LoadFile(file.path(), unrestricted);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  LoadOptions budgeted;
  // The file is ~8 KB, and 8x of it won't fit: the budget affords four
  // 1 KiB partitions at the field gather's 8x.
  budgeted.memory_budget = 32 * 1024;
  const auto degraded = BulkLoader::LoadFile(file.path(), budgeted);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->rows_loaded, full->rows_loaded);
  EXPECT_TRUE(degraded->table.Equals(full->table));
}

// ---------------------------------------------------------------------------
// Quarantine capture.
// ---------------------------------------------------------------------------

TEST_F(RobustTest, QuarantineCapturesByteAccurateSpans) {
  const std::string csv =
      "1,10,alpha\n"
      "oops,20,beta\n"
      "3,30,gamma\n";
  ParseOptions options;
  options.schema = ThreeColumnSchema();
  options.error_policy = ErrorPolicy::kQuarantine;
  const auto result = Parser::Parse(csv, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->table.num_rows, 3);  // quarantined rows stay in place
  ASSERT_EQ(result->quarantine.size(), 1);
  const robust::QuarantineEntry& entry = result->quarantine.entries()[0];
  EXPECT_EQ(entry.row, 1);
  EXPECT_EQ(entry.raw, "oops,20,beta");
  EXPECT_EQ(csv.substr(static_cast<size_t>(entry.begin),
                       static_cast<size_t>(entry.end - entry.begin)),
            entry.raw);
  EXPECT_EQ(entry.column, 0);
  EXPECT_EQ(entry.stage, "convert");
  EXPECT_EQ(entry.code, StatusCode::kParseError);
  EXPECT_NE(entry.message.find("row 1"), std::string::npos);

  // Table::rejected is exactly the view over the quarantine.
  EXPECT_EQ(result->quarantine.RejectedBitmap(result->table.num_rows),
            result->table.rejected);
  EXPECT_NE(result->quarantine.FindRow(1), nullptr);
  EXPECT_EQ(result->quarantine.FindRow(0), nullptr);
  // The bad value is NULL, intact rows parsed normally.
  EXPECT_TRUE(result->table.columns[0].IsNull(1));
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(2), 3);
}

TEST_F(RobustTest, QuarantineSpansSurviveSkippedHeader) {
  const std::string csv =
      "a,b,s\n"
      "1,10,alpha\n"
      "bad,20,beta\n";
  ParseOptions options;
  options.schema = ThreeColumnSchema();
  options.skip_rows = 1;
  options.error_policy = ErrorPolicy::kQuarantine;
  const auto result = Parser::Parse(csv, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->quarantine.size(), 1);
  const robust::QuarantineEntry& entry = result->quarantine.entries()[0];
  // Spans are relative to the caller's buffer, not the trimmed one.
  EXPECT_EQ(csv.substr(static_cast<size_t>(entry.begin),
                       static_cast<size_t>(entry.end - entry.begin)),
            "bad,20,beta");
}

TEST_F(RobustTest, QuarantineKeepsColumnCountMismatches) {
  const std::string csv =
      "1,10,alpha\n"
      "2,20\n"
      "3,30,gamma\n";
  ParseOptions options;
  options.schema = ThreeColumnSchema();
  options.column_count_policy = ColumnCountPolicy::kReject;

  // Historical behaviour: the short record is dropped.
  const auto dropped = Parser::Parse(csv, options);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->table.num_rows, 2);
  EXPECT_EQ(dropped->records_dropped, 1);

  // Under quarantine it is kept — its bytes must exist for repair.
  options.error_policy = ErrorPolicy::kQuarantine;
  const auto kept = Parser::Parse(csv, options);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept->table.num_rows, 3);
  ASSERT_EQ(kept->quarantine.size(), 1);
  const robust::QuarantineEntry& entry = kept->quarantine.entries()[0];
  EXPECT_EQ(entry.row, 1);
  EXPECT_EQ(entry.raw, "2,20");
  EXPECT_EQ(entry.stage, "tag");
  EXPECT_EQ(entry.column, -1);  // record-level problem
}

TEST_F(RobustTest, ErrorPolicyFailStopsAtFirstBadRecord) {
  ParseOptions options;
  options.schema = ThreeColumnSchema();
  options.error_policy = ErrorPolicy::kFail;
  const auto result = Parser::Parse("1,10,a\nbad,20,b\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("row 1"), std::string::npos)
      << result.status().ToString();
}

TEST_F(RobustTest, ErrorPolicySkipCompactsRows) {
  ParseOptions options;
  options.schema = ThreeColumnSchema();
  options.error_policy = ErrorPolicy::kSkip;
  const auto result = Parser::Parse("1,10,a\nbad,20,b\n3,30,c\n", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->records_dropped, 1);
  EXPECT_EQ(result->table.NumRejected(), 0);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(0), 1);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(1), 3);
}

// ---------------------------------------------------------------------------
// Streaming integration.
// ---------------------------------------------------------------------------

TEST_F(RobustTest, StreamingSkipsLeadingRowsOnlyOnce) {
  std::string csv = "a,b,s\n" + MakeCsv(50);
  ParseOptions base;
  base.schema = ThreeColumnSchema();
  base.skip_rows = 1;

  exec::ExecOptions streaming;
  streaming.base = base;
  streaming.partition_size = 64;  // many partitions
  exec::PipelineExecutor executor;
  const auto result = executor.IngestBuffer(csv, streaming);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->stats.num_partitions, 2);
  // skip_rows prunes the stream head once, not one row per partition.
  EXPECT_EQ(result->table.num_rows, 50);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(0), 0);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(49), 49);
}

TEST_F(RobustTest, StreamingQuarantineIsStreamRelative) {
  // Bad rows land in different partitions.
  std::string csv;
  for (int i = 0; i < 40; ++i) {
    if (i == 7 || i == 29) {
      csv += "bad" + std::to_string(i) + ",1,x\n";
    } else {
      csv += std::to_string(i) + ",1,x\n";
    }
  }
  ParseOptions base;
  base.schema = ThreeColumnSchema();
  base.error_policy = ErrorPolicy::kQuarantine;

  exec::ExecOptions streaming;
  streaming.base = base;
  streaming.partition_size = 48;
  exec::PipelineExecutor executor;
  const auto result = executor.IngestBuffer(csv, streaming);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->stats.num_partitions, 2);
  EXPECT_EQ(result->table.num_rows, 40);
  ASSERT_EQ(result->quarantine.size(), 2);
  for (const robust::QuarantineEntry& entry : result->quarantine.entries()) {
    // Rows index the concatenated table; spans index the original stream.
    EXPECT_TRUE(entry.row == 7 || entry.row == 29) << entry.row;
    EXPECT_EQ(csv.substr(static_cast<size_t>(entry.begin),
                         static_cast<size_t>(entry.end - entry.begin)),
              entry.raw);
    EXPECT_EQ(result->table.rejected[static_cast<size_t>(entry.row)], 1);
  }
  EXPECT_EQ(result->quarantine.RejectedBitmap(result->table.num_rows),
            result->table.rejected);
}

TEST_F(RobustTest, StreamChunkFaultFailsCleanly) {
  const std::string csv = MakeCsv(50);
  ParseOptions base;
  base.schema = ThreeColumnSchema();
  exec::ExecOptions streaming;
  streaming.base = base;
  streaming.partition_size = 128;
  // exec.read fires at each partition boundary of the executor.
  FailpointRegistry::Instance().Arm("exec.read", EveryNthTrigger(2));
  exec::PipelineExecutor executor;
  const auto result = executor.IngestBuffer(csv, streaming);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(RobustTest, QuarantineSummaryTextMentionsEveryEntry) {
  robust::QuarantineTable q;
  robust::QuarantineEntry entry;
  entry.row = 3;
  entry.raw = "x,y";
  entry.stage = "convert";
  entry.message = "value is not a valid int64";
  q.Add(entry);
  const std::string text = q.SummaryText();
  EXPECT_NE(text.find("convert"), std::string::npos);
  EXPECT_NE(text.find("int64"), std::string::npos);
}

}  // namespace
}  // namespace parparaw
