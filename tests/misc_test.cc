#include <gtest/gtest.h>

#include <cstdio>

#include "core/parser.h"
#include "dfa/sniffer.h"
#include "io/csv_writer.h"
#include "io/file.h"

namespace parparaw {
namespace {

TEST(TimingsTest, AccumulationAndToString) {
  StepTimings a;
  a.parse_ms = 1;
  a.scan_ms = 2;
  a.tag_ms = 3;
  a.partition_ms = 4;
  a.convert_ms = 5;
  StepTimings b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b.TotalMs(), 30);
  EXPECT_NE(a.ToString().find("parse=1.00ms"), std::string::npos);
  EXPECT_NE(a.ToString().find("total=15.00ms"), std::string::npos);
}

TEST(TimingsTest, WorkCounterAccumulation) {
  WorkCounters a;
  a.input_bytes = 10;
  a.dfa_transitions = 60;
  a.sort_passes = 1;
  WorkCounters b;
  b.input_bytes = 5;
  b.sort_passes = 2;
  a += b;
  EXPECT_EQ(a.input_bytes, 15);
  EXPECT_EQ(a.dfa_transitions, 60);
  EXPECT_EQ(a.sort_passes, 3);
}

TEST(CsvWriterTest, BoolAndDecimalRoundTrip) {
  ParseOptions options;
  options.schema.AddField(Field("flag", DataType::Bool()));
  options.schema.AddField(Field("price", DataType::Decimal64(2)));
  auto first = Parser::Parse("true,12.50\nfalse,0.05\n,\n", options);
  ASSERT_TRUE(first.ok());
  auto rewritten = WriteCsv(first->table);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(*rewritten, "true,12.50\nfalse,0.05\n,\n");
  auto second = Parser::Parse(*rewritten, options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->table.Equals(first->table));
}

TEST(SnifferTest, SpaceDelimitedLog) {
  // Space-delimited request lines: the sniffer should pick ' ' and a
  // consistent column count.
  const std::string sample =
      "GET /a 200 12\nPOST /b 404 7\nGET /c 200 3\nGET /d 200 9\n";
  auto result = SniffDsvFormat(sample);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->options.field_delimiter, ' ');
  EXPECT_EQ(result->num_columns, 4u);
}

TEST(DfaBuilderTest, InvalidStartStateRejected) {
  DfaBuilder b;
  b.AddState("only", true);
  b.SetDefaultTransition(0, 0, 0);
  b.SetStartState(7);
  EXPECT_FALSE(b.Build().ok());
  b.SetStartState(-1);
  EXPECT_FALSE(b.Build().ok());
  b.SetStartState(0);
  EXPECT_TRUE(b.Build().ok());
}

TEST(FileTest, ChunkReaderReopen) {
  const std::string path_a = "/tmp/parparaw_reopen_a.txt";
  const std::string path_b = "/tmp/parparaw_reopen_b.txt";
  ASSERT_TRUE(WriteStringToFile(path_a, "aaaa").ok());
  ASSERT_TRUE(WriteStringToFile(path_b, "bb").ok());
  FileChunkReader reader;
  ASSERT_TRUE(reader.Open(path_a).ok());
  EXPECT_EQ(reader.file_size(), 4);
  ASSERT_TRUE(reader.Open(path_b).ok());  // reopen switches files cleanly
  EXPECT_EQ(reader.file_size(), 2);
  std::string chunk;
  bool eof = false;
  ASSERT_TRUE(reader.ReadNext(16, &chunk, &eof).ok());
  EXPECT_EQ(chunk, "bb");
  EXPECT_TRUE(eof);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ParseOutputTest, TimingsCoverEveryStepOnRealParse) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::Int64()));
  options.schema.AddField(Field("b", DataType::String()));
  std::string csv;
  for (int i = 0; i < 5000; ++i) {
    csv += std::to_string(i) + ",value" + std::to_string(i) + "\n";
  }
  auto result = Parser::Parse(csv, options);
  ASSERT_TRUE(result.ok());
  // Every bucket saw work (wall clocks can round to 0.0 only for trivial
  // inputs; 5000 records is enough on any machine for >= 0).
  EXPECT_GE(result->timings.parse_ms, 0);
  EXPECT_GT(result->timings.TotalMs(), 0);
  EXPECT_EQ(result->work.input_bytes, static_cast<int64_t>(csv.size()));
  EXPECT_GT(result->work.tag_bytes_written, 0);
  EXPECT_GT(result->work.output_bytes, 0);
}

}  // namespace
}  // namespace parparaw
