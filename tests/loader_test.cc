#include <gtest/gtest.h>

#include <cstdio>

#include "api/reader.h"
#include "dialect/spec.h"
#include "io/file.h"
#include "loader/bulk_loader.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

TEST(BulkLoaderTest, SniffsHeaderAndTypes) {
  const std::string csv =
      "id,name,amount,day\n"
      "1,alice,10.5,2023-01-01\n"
      "2,bob,3.25,2023-01-02\n"
      "3,carol,7.0,2023-01-03\n";
  auto result = BulkLoader::LoadBuffer(csv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& table = result->table;
  ASSERT_EQ(table.num_rows, 3);
  ASSERT_EQ(table.num_columns(), 4);
  EXPECT_EQ(table.schema.field(0).name, "id");
  EXPECT_TRUE(table.schema.field(0).type == DataType::Int64());
  EXPECT_EQ(table.schema.field(2).name, "amount");
  EXPECT_TRUE(table.schema.field(2).type == DataType::Float64());
  EXPECT_TRUE(table.schema.field(3).type == DataType::Date32());
  EXPECT_EQ(table.columns[1].StringValue(2), "carol");
  EXPECT_EQ(result->rows_rejected, 0);
  ASSERT_EQ(result->statistics.size(), 4u);
  EXPECT_DOUBLE_EQ(*result->statistics[0].numeric_max, 3);
  EXPECT_FALSE(result->ReportToString().empty());
}

TEST(BulkLoaderTest, ExplicitSchemaAndFormat) {
  DsvOptions dsv;
  dsv.field_delimiter = '|';
  dsv.quote = 0;
  auto format = DsvFormat(dsv);
  ASSERT_TRUE(format.ok());
  LoadOptions options;
  options.format = *format;
  options.schema = LineitemSchema();
  options.header = 0;
  options.partition_size = 16 * 1024;
  const std::string data = GenerateLineitemLike(1, 64 * 1024);
  auto result = BulkLoader::LoadBuffer(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.num_columns(), 16);
  EXPECT_GT(result->rows_loaded, 100);
  EXPECT_EQ(result->rows_rejected, 0);
}

TEST(BulkLoaderTest, LoadFileRoundTrip) {
  const std::string path = "/tmp/parparaw_loader_test.csv";
  const std::string csv = GenerateTaxiLike(44, 32 * 1024);
  ASSERT_TRUE(WriteStringToFile(path, csv).ok());
  LoadOptions options;
  options.schema = TaxiSchema();
  options.header = 0;
  auto from_file = BulkLoader::LoadFile(path, options);
  ASSERT_TRUE(from_file.ok());
  auto from_buffer = BulkLoader::LoadBuffer(csv, options);
  ASSERT_TRUE(from_buffer.ok());
  EXPECT_TRUE(from_file->table.Equals(from_buffer->table));
  std::remove(path.c_str());
}

TEST(BulkLoaderTest, MissingFileAndEmptyBuffer) {
  EXPECT_FALSE(BulkLoader::LoadFile("/nonexistent/x.csv").ok());
  LoadOptions options;
  options.schema.AddField(Field("a", DataType::String()));
  options.header = 0;
  auto result = BulkLoader::LoadBuffer("", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_loaded, 0);
}

TEST(BulkLoaderTest, RejectAccounting) {
  LoadOptions options;
  options.schema.AddField(Field("id", DataType::Int64()));
  options.schema.AddField(Field("v", DataType::Float64()));
  options.header = 0;
  auto result =
      BulkLoader::LoadBuffer("1,2.5\nbad,3.5\n3,oops\n4,4.5\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_loaded, 4);
  EXPECT_EQ(result->rows_rejected, 2);
}

// A delimiter inside a quoted header field belongs to the column name, and
// a doubled quote inside the quotes is a literal quote.
TEST(BulkLoaderTest, QuotedHeaderNamesKeepDelimitersAndQuotes) {
  LoadOptions options;
  options.header = 1;
  auto result = BulkLoader::LoadBuffer(
      "\"id\",\"note, extra\",n,\"say \"\"hi\"\"\"\n"
      "1,\"a, b\",2,x\n"
      "3,c,4,y\n",
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Schema& schema = result->table.schema;
  ASSERT_EQ(schema.num_fields(), 4);
  EXPECT_EQ(schema.field(0).name, "id");
  EXPECT_EQ(schema.field(1).name, "note, extra");
  EXPECT_EQ(schema.field(2).name, "n");
  EXPECT_EQ(schema.field(3).name, "say \"hi\"");
  EXPECT_EQ(result->rows_loaded, 2);
}

// A fixed-width dialect has no field delimiter: its header row is cut by
// the field widths, like every other record.
TEST(BulkLoaderTest, FixedWidthHeaderSplitsByWidths) {
  dialect::DialectSpec spec;
  spec.fixed_widths = {10, 10};
  spec.quote = 0;
  const std::string input =
      "left      right     \n"
      "aaaaaaaaaa0123456789\n"
      "bbbbbbbbbb9876543210\n";
  auto table =
      Reader::FromBuffer(input).WithDialect(spec).WithHeader(true).Read();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_columns(), 2);
  EXPECT_EQ(table->schema.field(0).name, "left");
  EXPECT_EQ(table->schema.field(1).name, "right");
  EXPECT_EQ(table->num_rows, 2);

  LoadOptions options;
  options.header = 1;
  options.dialect = spec;
  auto loaded =
      BulkLoader::LoadBuffer("left......right.....\n0123456789abcdefghij\n",
                             options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->table.schema.num_fields(), 2);
  EXPECT_EQ(loaded->table.schema.field(0).name, "left......");
  EXPECT_EQ(loaded->table.schema.field(1).name, "right.....");
  EXPECT_EQ(loaded->rows_loaded, 1);
}

TEST(BulkLoaderTest, TsvSniffedEndToEnd) {
  std::string tsv = "k\tcount\n";
  for (int i = 0; i < 50; ++i) {
    tsv += "key" + std::to_string(i % 5) + "\t" + std::to_string(i) + "\n";
  }
  auto result = BulkLoader::LoadBuffer(tsv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->dialect.options.field_delimiter, '\t');
  EXPECT_EQ(result->table.num_columns(), 2);
  EXPECT_EQ(result->table.num_rows, 50);
  EXPECT_EQ(result->table.schema.field(1).name, "count");
  EXPECT_TRUE(result->table.schema.field(1).type == DataType::Int64());
}

}  // namespace
}  // namespace parparaw
