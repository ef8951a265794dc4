#include <gtest/gtest.h>

#include "core/parser.h"
#include "query/predicate.h"

namespace parparaw {
namespace {

Table MakeOrders() {
  ParseOptions options;
  options.schema.AddField(Field("id", DataType::Int64()));
  options.schema.AddField(Field("customer", DataType::String()));
  options.schema.AddField(Field("amount", DataType::Float64()));
  options.schema.AddField(Field("day", DataType::Date32()));
  auto result = Parser::Parse(
      "1,alice,10.5,2023-01-01\n"
      "2,bob,3.25,2023-01-02\n"
      "3,alice,7.0,2023-01-02\n"
      "4,carol,,2023-01-03\n"
      "5,bob,12.0,2023-01-03\n",
      options);
  EXPECT_TRUE(result.ok());
  return result->table;
}

TEST(PredicateTest, NumericComparisons) {
  const Table table = MakeOrders();
  auto ge = EvaluatePredicate(table, {2, CompareOp::kGe, "7"});
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(*ge, (std::vector<uint8_t>{1, 0, 1, 0, 1}));
  auto lt = EvaluatePredicate(table, {0, CompareOp::kLt, "3"});
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(*lt, (std::vector<uint8_t>{1, 1, 0, 0, 0}));
  auto ne = EvaluatePredicate(table, {0, CompareOp::kNe, "2"});
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(*ne, (std::vector<uint8_t>{1, 0, 1, 1, 1}));
}

TEST(PredicateTest, DateLiteralBinding) {
  const Table table = MakeOrders();
  auto eq = EvaluatePredicate(table, {3, CompareOp::kEq, "2023-01-02"});
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(*eq, (std::vector<uint8_t>{0, 1, 1, 0, 0}));
  // Malformed literal is a TypeError, not a crash.
  auto bad = EvaluatePredicate(table, {3, CompareOp::kEq, "yesterday"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST(PredicateTest, StringOperators) {
  const Table table = MakeOrders();
  auto eq = EvaluatePredicate(table, {1, CompareOp::kEq, "alice"});
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(*eq, (std::vector<uint8_t>{1, 0, 1, 0, 0}));
  auto contains = EvaluatePredicate(table, {1, CompareOp::kContains, "aro"});
  ASSERT_TRUE(contains.ok());
  EXPECT_EQ(*contains, (std::vector<uint8_t>{0, 0, 0, 1, 0}));
  auto prefix = EvaluatePredicate(table, {1, CompareOp::kStartsWith, "b"});
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(*prefix, (std::vector<uint8_t>{0, 1, 0, 0, 1}));
  // contains on a numeric column is a type error.
  EXPECT_FALSE(EvaluatePredicate(table, {0, CompareOp::kContains, "1"}).ok());
}

TEST(PredicateTest, NullHandling) {
  const Table table = MakeOrders();
  // Row 4's amount is NULL: it never matches value comparisons.
  auto ge = EvaluatePredicate(table, {2, CompareOp::kGe, "0"});
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ((*ge)[3], 0);
  auto is_null = EvaluatePredicate(table, {2, CompareOp::kIsNull});
  ASSERT_TRUE(is_null.ok());
  EXPECT_EQ(*is_null, (std::vector<uint8_t>{0, 0, 0, 1, 0}));
  auto not_null = EvaluatePredicate(table, {2, CompareOp::kIsNotNull});
  ASSERT_TRUE(not_null.ok());
  EXPECT_EQ(*not_null, (std::vector<uint8_t>{1, 1, 1, 0, 1}));
}

TEST(PredicateTest, ColumnOutOfRange) {
  const Table table = MakeOrders();
  EXPECT_FALSE(EvaluatePredicate(table, {9, CompareOp::kEq, "x"}).ok());
}

}  // namespace
}  // namespace parparaw
