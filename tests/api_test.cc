#include "api/reader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/parser.h"
#include "exec/executor.h"
#include "io/file.h"

namespace parparaw {
namespace {

const char kCsv[] =
    "id,price,name\n"
    "1,9.50,\"chair, oak\"\n"
    "2,19.99,table\n"
    "3,4.25,\"lamp\n2-arm\"\n";

TEST(ReaderTest, FromBufferReadsTable) {
  auto table = Reader::FromBuffer(kCsv).Read();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows, 3);
  EXPECT_EQ(table->num_columns(), 3);
  // Sniffed header: column names come from the first row.
  EXPECT_EQ(table->schema.field(0).name, "id");
  EXPECT_EQ(table->schema.field(2).name, "name");
}

TEST(ReaderTest, FromFileMatchesFromBuffer) {
  const std::string path = "/tmp/parparaw_api_test.csv";
  ASSERT_TRUE(WriteStringToFile(path, kCsv).ok());
  auto from_file = Reader::FromFile(path).Read();
  auto from_buffer = Reader::FromBuffer(kCsv).Read();
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();
  EXPECT_TRUE(from_file->Equals(*from_buffer));
  std::remove(path.c_str());
}

TEST(ReaderTest, WithSchemaAndHeaderOverrideSniffing) {
  Schema schema;
  schema.AddField(Field("a", DataType::Int64()));
  schema.AddField(Field("b", DataType::Float64()));
  schema.AddField(Field("c", DataType::String()));
  auto table = Reader::FromBuffer("1,2.5,x\n2,3.5,y\n")
                   .WithSchema(schema)
                   .WithHeader(false)
                   .Read();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows, 2);
  EXPECT_TRUE(table->schema.field(0).type == DataType::Int64());
  EXPECT_EQ(table->columns[0].Value<int64_t>(1), 2);
}

TEST(ReaderTest, ReadDetailedCarriesQuarantine) {
  auto result = Reader::FromBuffer("a,b\n1,2\nnotanint,4\n")
                    .WithSchema([] {
                      Schema s;
                      s.AddField(Field("a", DataType::Int64()));
                      s.AddField(Field("b", DataType::Int64()));
                      return s;
                    }())
                    .WithHeader(true)
                    .WithErrorPolicy(robust::ErrorPolicy::kQuarantine)
                    .ReadDetailed();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_loaded, 2);
  ASSERT_EQ(result->quarantine.size(), 1);
  EXPECT_EQ(result->quarantine.entries()[0].row, 1);
}

TEST(ReaderTest, SerialAndPipelinedAreBitIdentical) {
  std::string csv = "n,s\n";
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + ",row" + std::to_string(i) + "\n";
  }
  auto pipelined = Reader::FromBuffer(csv).WithPartitionSize(700).Read();
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  // The serial reference: one monolithic parse under the options the
  // Reader resolves from the same head.
  LoadResult resolution;
  auto base = BulkLoader::ResolveBaseOptions(csv, /*sample_truncated=*/false,
                                             LoadOptions{}, &resolution);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto serial = Parser::Parse(csv, *base);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_TRUE(pipelined->Equals(serial->table));
}

TEST(ReaderTest, ReadStreamDeliversAllRowsInBatches) {
  std::string csv = "n,s\n";
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + ",row" + std::to_string(i) + "\n";
  }
  int64_t rows = 0;
  int batches = 0;
  auto stats = Reader::FromBuffer(csv).WithPartitionSize(900).ReadStream(
      [&](Table&& batch) {
        rows += batch.num_rows;
        ++batches;
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(rows, 500);
  EXPECT_EQ(batches, stats->num_partitions);
  EXPECT_GT(stats->num_partitions, 1);
}

TEST(ReaderTest, MissingFileFailsCleanly) {
  auto table = Reader::FromFile("/nonexistent/parparaw.csv").Read();
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

// --- ParseOptions::Validate, wired into every entry point ---

TEST(ValidateTest, AcceptsDefaults) {
  EXPECT_TRUE(ParseOptions().Validate().ok());
}

TEST(ValidateTest, RejectsNegativeSkips) {
  ParseOptions options;
  options.skip_rows = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = ParseOptions();
  options.skip_records = {3, -2};
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = ParseOptions();
  options.skip_columns = {-1};
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = ParseOptions();
  options.memory_budget = -5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, RejectsOversizedChunk) {
  ParseOptions options;
  options.chunk_size = size_t{1} << 30;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, RejectsInvertedCollaborationThresholds) {
  ParseOptions options;
  options.block_collaboration_threshold = 1 << 20;
  options.device_collaboration_threshold = 256;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, RejectsZeroBlockCollaborationThreshold) {
  // A zero-byte block segment would never advance the block-level copy of
  // a value of 1..device_collaboration_threshold bytes.
  ParseOptions options;
  options.block_collaboration_threshold = 0;
  options.device_collaboration_threshold = 1024;
  const Status status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("block_collaboration_threshold"),
            std::string::npos)
      << status.message();
  // Every entry point refuses it before parsing.
  EXPECT_EQ(Parser::Parse("abc,de\n", options).status().code(),
            StatusCode::kInvalidArgument);
  options.block_collaboration_threshold = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ValidateTest, RejectsInlineTerminatorCollidingWithDelimiter) {
  ParseOptions options;
  options.tagging_mode = TaggingMode::kInlineTerminated;
  options.terminator = ',';  // the RFC 4180 field delimiter
  const Status status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  options.terminator = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.terminator = 0x1F;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ValidateTest, RejectsValidatePolicyWithQuarantine) {
  ParseOptions options;
  options.column_count_policy = ColumnCountPolicy::kValidate;
  options.error_policy = robust::ErrorPolicy::kQuarantine;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, EveryEntryPointRejectsInvalidOptionsUpFront) {
  ParseOptions bad;
  bad.skip_rows = -1;
  EXPECT_EQ(Parser::Parse("a,b\n", bad).status().code(),
            StatusCode::kInvalidArgument);

  exec::ExecOptions pipelined;
  pipelined.base = bad;
  exec::PipelineExecutor executor;
  EXPECT_EQ(executor.IngestBuffer("a,b\n", pipelined).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReaderTest, WithTuningPinsTheParseConfiguration) {
  Tuning tuning;
  tuning.kernel = simd::KernelKind::kScalar;
  tuning.chunk_size = 31;
  tuning.transpose_mode = TransposeMode::kSymbolSort;
  auto pinned = Reader::FromBuffer(kCsv).WithTuning(tuning).Read();
  auto defaults = Reader::FromBuffer(kCsv).Read();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  EXPECT_TRUE(pinned->Equals(*defaults));
}

TEST(ReaderTest, WithTuningSurfacesContradictionsBeforeReading) {
  Tuning oversized;
  oversized.chunk_size = (size_t{16} << 20) + 1;
  auto table = Reader::FromBuffer(kCsv).WithTuning(oversized).Read();
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReaderTest, ExplainReportsThePlanWithoutParsing) {
  auto plan = Reader::FromBuffer(kCsv).Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan->chunk_size, 0u);
  EXPECT_NE(plan->tagging_mode, TaggingMode::kAuto);
  EXPECT_NE(plan->transpose_mode, TransposeMode::kAuto);
  EXPECT_NE(plan->Explain().find("reason: "), std::string::npos)
      << plan->Explain();
}

TEST(ReaderTest, ExplainMatchesBetweenFileAndBuffer) {
  const std::string path = "/tmp/parparaw_api_explain.csv";
  ASSERT_TRUE(WriteStringToFile(path, kCsv).ok());
  auto from_file = Reader::FromFile(path).Explain();
  auto from_buffer = Reader::FromBuffer(kCsv).Explain();
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_TRUE(from_buffer.ok()) << from_buffer.status().ToString();
  // Same bytes, same plan: the planner must not care where they came from.
  EXPECT_EQ(from_file->chunk_size, from_buffer->chunk_size);
  EXPECT_EQ(from_file->kernel, from_buffer->kernel);
  EXPECT_EQ(from_file->tagging_mode, from_buffer->tagging_mode);
  EXPECT_EQ(from_file->Explain(), from_buffer->Explain());
  std::remove(path.c_str());
}

TEST(ReaderTest, ExplainPassesPinnedKnobsThrough) {
  // A pinned chunk is reported as pinned: the plan carries it and gives
  // no reason for it.
  Tuning tuning;
  tuning.chunk_size = 31;
  auto plan = Reader::FromBuffer(kCsv).WithTuning(tuning).Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->chunk_size, 31u);
  EXPECT_NE(plan->Explain().find("chunk=31"), std::string::npos)
      << plan->Explain();
  EXPECT_EQ(plan->reason.find("chunk="), std::string::npos) << plan->reason;
}

}  // namespace
}  // namespace parparaw
