#include <gtest/gtest.h>

#include <cstdio>

#include "baseline/sequential_parser.h"
#include "exec/executor.h"
#include "io/file.h"
#include "stream/stream_model.h"
#include "workload/generators.h"

// The streaming schedule of §4.4: the executor's partitioned ingest and
// its modelled Fig. 7 timeline (ModelStream).

namespace parparaw {
namespace {

exec::ExecOptions Partitioned(ParseOptions base, size_t partition_size) {
  exec::ExecOptions options;
  options.base = std::move(base);
  options.partition_size = partition_size;
  return options;
}

TEST(StreamingTest, SmallPartitionsMatchOneShotParse) {
  const std::string input = GenerateYelpLike(3, 64 * 1024);
  ParseOptions base;
  base.schema = YelpSchema();
  auto expected = SequentialParser::Parse(input, base);
  ASSERT_TRUE(expected.ok());

  for (size_t partition : {1024u, 4096u, 16384u, 1u << 20}) {
    exec::PipelineExecutor executor;
    auto got = executor.IngestBuffer(input, Partitioned(base, partition));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->table.Equals(expected->table))
        << "partition " << partition;
    EXPECT_EQ(got->stats.num_partitions,
              static_cast<int>((input.size() + partition - 1) / partition));
  }
}

TEST(StreamingTest, CarryOverSpansPartitionBoundary) {
  // Records straddling every partition boundary (partition smaller than a
  // record) must be reassembled via the carry-over.
  std::string input;
  for (int i = 0; i < 40; ++i) {
    input += "row" + std::to_string(i) + ",\"payload with, commas and\n"
             "a quoted newline number " + std::to_string(i) + "\"\n";
  }
  ParseOptions base;
  base.schema.AddField(Field("id", DataType::String()));
  base.schema.AddField(Field("text", DataType::String()));
  auto expected = SequentialParser::Parse(input, base);
  ASSERT_TRUE(expected.ok());

  exec::PipelineExecutor executor;
  // far below one record
  auto got = executor.IngestBuffer(input, Partitioned(base, 17));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->table.Equals(expected->table));
}

TEST(StreamingTest, GiantRecordLargerThanPartition) {
  const std::string input =
      GenerateSkewed(9, 32 * 1024, /*giant_field_bytes=*/200 * 1024,
                     /*yelp_like=*/true);
  ParseOptions base;
  base.schema = YelpSchema();
  auto expected = SequentialParser::Parse(input, base);
  ASSERT_TRUE(expected.ok());

  exec::PipelineExecutor executor;
  // the giant record spans many partitions
  auto got = executor.IngestBuffer(input, Partitioned(base, 16 * 1024));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->table.Equals(expected->table));
}

TEST(StreamingTest, ModeledOverlapBeatsSerialExecution) {
  const std::string input = GenerateTaxiLike(4, 256 * 1024);
  ParseOptions base;
  base.schema = TaxiSchema();
  exec::PipelineExecutor executor;
  auto got = executor.IngestBuffer(input, Partitioned(base, 32 * 1024));
  ASSERT_TRUE(got.ok());
  ASSERT_GT(got->stats.num_partitions, 2);
  const StreamModel model = ModelStream(*got);
  EXPECT_EQ(model.timeline.parses.size(), got->partitions.size());
  EXPECT_LT(model.modeled_end_to_end_seconds, model.modeled_serial_seconds);
  EXPECT_GT(model.modeled_end_to_end_seconds, 0);
  EXPECT_EQ(model.modeled_end_to_end_seconds, model.timeline.makespan);
}

TEST(StreamingTest, SinglePartitionWhenInputFits) {
  ParseOptions base;
  base.schema.AddField(Field("a", DataType::String()));
  exec::PipelineExecutor executor;
  auto got = executor.IngestBuffer("x\ny\n", Partitioned(base, 1 << 20));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->stats.num_partitions, 1);
  EXPECT_EQ(got->table.num_rows, 2);
}

TEST(StreamingTest, InvalidPartitionSize) {
  exec::PipelineExecutor executor;
  EXPECT_FALSE(executor.IngestBuffer("a\n", Partitioned({}, 0)).ok());
}

TEST(StreamingTest, ParseFileMatchesInMemory) {
  const std::string path = "/tmp/parparaw_stream_file.csv";
  const std::string input = GenerateTaxiLike(12, 128 * 1024);
  ASSERT_TRUE(WriteStringToFile(path, input).ok());

  ParseOptions base;
  base.schema = TaxiSchema();
  const exec::ExecOptions options = Partitioned(base, 16 * 1024);
  exec::PipelineExecutor executor;
  auto in_memory = executor.IngestBuffer(input, options);
  ASSERT_TRUE(in_memory.ok());
  auto from_file = executor.IngestFile(path, options);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_TRUE(from_file->table.Equals(in_memory->table));
  EXPECT_EQ(from_file->stats.num_partitions, in_memory->stats.num_partitions);
  std::remove(path.c_str());
}

TEST(StreamingTest, ParseFileMissingAndEmpty) {
  ParseOptions base;
  base.schema.AddField(Field("a", DataType::String()));
  const exec::ExecOptions options = Partitioned(base, 64 * 1024 * 1024);
  exec::PipelineExecutor executor;
  EXPECT_FALSE(executor.IngestFile("/nonexistent/x.csv", options).ok());

  const std::string path = "/tmp/parparaw_stream_empty.csv";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  auto result = executor.IngestFile(path, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows, 0);
  EXPECT_EQ(result->stats.num_partitions, 0);
  EXPECT_EQ(ModelStream(*result).modeled_end_to_end_seconds, 0);
  std::remove(path.c_str());
}

TEST(StreamingTest, EmptyInput) {
  ParseOptions base;
  base.schema.AddField(Field("a", DataType::String()));
  exec::PipelineExecutor executor;
  auto got = executor.IngestBuffer("", Partitioned(base, 64 * 1024 * 1024));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->table.num_rows, 0);
  EXPECT_EQ(got->stats.num_partitions, 0);
}

}  // namespace
}  // namespace parparaw
