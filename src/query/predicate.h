#ifndef PARPARAW_QUERY_PREDICATE_H_
#define PARPARAW_QUERY_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "parallel/thread_pool.h"
#include "util/result.h"

namespace parparaw {

/// Comparison operators for column predicates. String columns support all
/// operators (lexicographic ordering); kContains/kStartsWith are
/// string-only.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kContains,
  kStartsWith,
  kIsNull,
  kIsNotNull,
};

/// \brief A single column-vs-literal predicate.
///
/// The literal is textual and converted once to the column's type when the
/// predicate is bound (so "12.5" works against float64/decimal columns and
/// "2020-01-01" against date columns). NULL slots never match except under
/// kIsNull.
struct Predicate {
  int column = 0;
  CompareOp op = CompareOp::kEq;
  std::string literal;

  Predicate() = default;
  Predicate(int column_in, CompareOp op_in, std::string literal_in = "")
      : column(column_in), op(op_in), literal(std::move(literal_in)) {}
};

/// Evaluates one predicate over a table into a 0/1 selection vector.
Result<std::vector<uint8_t>> EvaluatePredicate(const Table& table,
                                               const Predicate& predicate,
                                               ThreadPool* pool = nullptr);

}  // namespace parparaw

#endif  // PARPARAW_QUERY_PREDICATE_H_
