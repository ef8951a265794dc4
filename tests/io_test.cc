#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "baseline/sequential_parser.h"
#include "io/csv_writer.h"
#include "io/file.h"

namespace parparaw {
namespace {

Table MakeSampleTable() {
  Table table;
  table.schema.AddField(Field("id", DataType::Int64()));
  table.schema.AddField(Field("name", DataType::String()));
  table.schema.AddField(Field("score", DataType::Float64()));
  Column id(DataType::Int64());
  id.AppendValue<int64_t>(1);
  id.AppendValue<int64_t>(2);
  id.AppendNull();
  Column name(DataType::String());
  name.AppendString("plain");
  name.AppendString("needs, \"quoting\"\nhere");
  name.AppendString("");
  Column score(DataType::Float64());
  score.AppendValue<double>(0.5);
  score.AppendNull();
  score.AppendValue<double>(-3.25);
  table.columns = {std::move(id), std::move(name), std::move(score)};
  table.num_rows = 3;
  table.rejected.assign(3, 0);
  return table;
}

TEST(CsvWriterTest, QuotesOnlyWhenNeeded) {
  auto csv = WriteCsv(MakeSampleTable());
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(*csv,
            "1,plain,0.5\n"
            "2,\"needs, \"\"quoting\"\"\nhere\",\n"
            ",,-3.25\n");
}

TEST(CsvWriterTest, HeaderAndQuoteAll) {
  CsvWriteOptions options;
  options.header = true;
  options.quote_all = true;
  auto csv = WriteCsv(MakeSampleTable(), options);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->substr(0, csv->find('\n')), "\"id\",\"name\",\"score\"");
}

TEST(CsvWriterTest, NullLiteral) {
  CsvWriteOptions options;
  options.null_literal = "NA";
  auto csv = WriteCsv(MakeSampleTable(), options);
  ASSERT_TRUE(csv.ok());
  EXPECT_NE(csv->find(",NA\n"), std::string::npos);
  EXPECT_NE(csv->find("NA,"), std::string::npos);
}

TEST(CsvWriterTest, CustomDelimiters) {
  CsvWriteOptions options;
  options.field_delimiter = '\t';
  auto csv = WriteCsv(MakeSampleTable(), options);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->substr(0, 8), "1\tplain\t");
  // Commas no longer force quoting, but the embedded newline still does.
  EXPECT_NE(csv->find("\"needs, \"\"quoting\"\"\nhere\""), std::string::npos);

  options.field_delimiter = '\n';
  EXPECT_FALSE(WriteCsv(MakeSampleTable(), options).ok());
}

TEST(CsvWriterTest, TemporalFormatting) {
  Table table;
  table.schema.AddField(Field("d", DataType::Date32()));
  table.schema.AddField(Field("ts", DataType::TimestampMicros()));
  Column d(DataType::Date32());
  d.AppendValue<int32_t>(0);
  d.AppendValue<int32_t>(17697);
  Column ts(DataType::TimestampMicros());
  ts.AppendValue<int64_t>(0);
  ts.AppendValue<int64_t>(1500000);  // 1.5 s
  table.columns = {std::move(d), std::move(ts)};
  table.num_rows = 2;
  table.rejected.assign(2, 0);
  auto csv = WriteCsv(table);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(*csv,
            "1970-01-01,1970-01-01 00:00:00\n"
            "2018-06-15,1970-01-01 00:00:01.500000\n");
}

TEST(FileTest, WriteAndReadBack) {
  const std::string path = "/tmp/parparaw_io_test.txt";
  const std::string payload = "hello\nworld\n";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, payload);
  std::remove(path.c_str());
}

TEST(FileTest, MissingFileIsIoError) {
  auto result = ReadFileToString("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(FileTest, ChunkReaderWalksWholeFile) {
  const std::string path = "/tmp/parparaw_chunk_test.txt";
  std::string payload;
  for (int i = 0; i < 1000; ++i) payload += "line " + std::to_string(i) + "\n";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());

  FileChunkReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.file_size(), static_cast<int64_t>(payload.size()));
  std::string reassembled;
  std::string chunk;
  bool eof = false;
  while (!eof) {
    ASSERT_TRUE(reader.ReadNext(333, &chunk, &eof).ok());
    reassembled += chunk;
  }
  EXPECT_EQ(reassembled, payload);
  std::remove(path.c_str());
}

TEST(FileTest, ReadNextIsSizedByTheFile) {
  // A partition-sized read of a small file allocates (and fills) the
  // file's bytes, not the partition's, and its one read reports eof.
  const std::string path = "/tmp/parparaw_small_read_test.txt";
  std::string payload;
  for (int i = 0; i < 200; ++i) payload += "row," + std::to_string(i) + "\n";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  FileChunkReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string chunk;
  bool eof = false;
  ASSERT_TRUE(reader.ReadNext(size_t{64} << 20, &chunk, &eof).ok());
  EXPECT_EQ(chunk, payload);
  EXPECT_TRUE(eof);
  EXPECT_LT(chunk.capacity(), 2 * payload.size());
  std::remove(path.c_str());
}

TEST(FileTest, ReadNextWithoutOpenFails) {
  FileChunkReader reader;
  std::string chunk;
  bool eof;
  EXPECT_FALSE(reader.ReadNext(16, &chunk, &eof).ok());
}

}  // namespace
}  // namespace parparaw
