#include <gtest/gtest.h>

#include "dfa/sniffer.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

TEST(SnifferTest, DetectsCommaWithHeader) {
  auto result = SniffDsvFormat(
      "id,name,amount\n1,alice,10.5\n2,bob,3.25\n3,carol,7.0\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->options.field_delimiter, ',');
  EXPECT_EQ(result->num_columns, 3u);
  EXPECT_TRUE(result->has_header);
  EXPECT_GT(result->confidence, 0.99);
}

TEST(SnifferTest, DetectsTsvWithoutHeader) {
  auto result = SniffDsvFormat("1\taa\t2.5\n2\tbb\t3.5\n3\tcc\t4.5\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->options.field_delimiter, '\t');
  EXPECT_EQ(result->num_columns, 3u);
  EXPECT_FALSE(result->has_header);
}

TEST(SnifferTest, DetectsPipeSeparatedLineitem) {
  const std::string sample = GenerateLineitemLike(2, 8 * 1024);
  auto result = SniffDsvFormat(sample);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->options.field_delimiter, '|');
  EXPECT_EQ(result->num_columns, 16u);
  EXPECT_FALSE(result->has_header);
  EXPECT_GT(result->confidence, 0.99);
}

TEST(SnifferTest, QuotedCommasDoNotConfuseColumnCount) {
  const std::string sample = GenerateYelpLike(2, 16 * 1024);
  auto result = SniffDsvFormat(sample);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->options.field_delimiter, ',');
  EXPECT_EQ(result->options.quote, '"');
  EXPECT_EQ(result->num_columns, 9u);
}

TEST(SnifferTest, CrlfDetection) {
  auto result = SniffDsvFormat("a,b\r\nc,d\r\ne,f\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->options.ignore_carriage_return);
  EXPECT_EQ(result->num_columns, 2u);
  auto lf_only = SniffDsvFormat("a,b\nc,d\n");
  ASSERT_TRUE(lf_only.ok());
  EXPECT_FALSE(lf_only->options.ignore_carriage_return);
}

TEST(SnifferTest, SemicolonDialect) {
  auto result = SniffDsvFormat("1;2,5;x\n3;4,5;y\n7;8,25;z\n");
  ASSERT_TRUE(result.ok());
  // Continental CSV: ';' delimits, ',' is the decimal mark.
  EXPECT_EQ(result->options.field_delimiter, ';');
  EXPECT_EQ(result->num_columns, 3u);
}

TEST(SnifferTest, EmptySampleFails) {
  EXPECT_FALSE(SniffDsvFormat("").ok());
}

}  // namespace
}  // namespace parparaw
