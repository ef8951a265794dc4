#include "query/predicate.h"

#include <algorithm>
#include <cstring>

#include "convert/numeric.h"
#include "convert/temporal.h"

namespace parparaw {

namespace {

// Typed literal bound to a column's physical representation.
struct BoundLiteral {
  int64_t i64 = 0;       // int64/decimal/timestamp/bool(0/1)/date(widened)
  double f64 = 0;        // float64
  std::string text;      // string
};

Status BindLiteral(const DataType& type, const std::string& literal,
                   BoundLiteral* out) {
  switch (type.id) {
    case TypeId::kBool: {
      bool v;
      if (!ParseBool(literal, &v)) {
        return Status::TypeError("'" + literal + "' is not a bool");
      }
      out->i64 = v ? 1 : 0;
      return Status::OK();
    }
    case TypeId::kInt32:
    case TypeId::kInt64: {
      if (!ParseInt64(literal, &out->i64)) {
        return Status::TypeError("'" + literal + "' is not an integer");
      }
      return Status::OK();
    }
    case TypeId::kFloat64: {
      if (!ParseFloat64(literal, &out->f64)) {
        return Status::TypeError("'" + literal + "' is not a float");
      }
      return Status::OK();
    }
    case TypeId::kDecimal64: {
      if (!ParseDecimal64(literal, type.scale, &out->i64)) {
        return Status::TypeError("'" + literal + "' is not a decimal(" +
                                 std::to_string(type.scale) + ")");
      }
      return Status::OK();
    }
    case TypeId::kDate32: {
      int32_t days;
      if (!ParseDate32(literal, &days)) {
        return Status::TypeError("'" + literal + "' is not a date");
      }
      out->i64 = days;
      return Status::OK();
    }
    case TypeId::kTimestampMicros: {
      if (!ParseTimestampMicros(literal, &out->i64)) {
        return Status::TypeError("'" + literal + "' is not a timestamp");
      }
      return Status::OK();
    }
    case TypeId::kString:
      out->text = literal;
      return Status::OK();
  }
  return Status::TypeError("unsupported column type");
}

// Maps a three-way comparison result through the operator.
inline bool ApplyOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

template <typename T>
inline int ThreeWay(T a, T b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

Result<std::vector<uint8_t>> EvaluatePredicate(const Table& table,
                                               const Predicate& predicate,
                                               ThreadPool* pool) {
  if (predicate.column < 0 || predicate.column >= table.num_columns()) {
    return Status::Invalid("predicate column out of range");
  }
  const Column& column = table.columns[predicate.column];
  const DataType& type = column.type();
  const int64_t rows = table.num_rows;
  std::vector<uint8_t> selection(rows, 0);

  if (predicate.op == CompareOp::kIsNull ||
      predicate.op == CompareOp::kIsNotNull) {
    const bool want_null = predicate.op == CompareOp::kIsNull;
    ParallelFor(pool, 0, rows, [&](int64_t b, int64_t e) {
      for (int64_t r = b; r < e; ++r) {
        selection[r] = column.IsNull(r) == want_null ? 1 : 0;
      }
    });
    return selection;
  }

  const bool string_only = predicate.op == CompareOp::kContains ||
                           predicate.op == CompareOp::kStartsWith;
  if (string_only && type.id != TypeId::kString) {
    return Status::TypeError("contains/starts-with require a string column");
  }

  BoundLiteral literal;
  PARPARAW_RETURN_NOT_OK(BindLiteral(type, predicate.literal, &literal));

  const CompareOp op = predicate.op;
  ParallelFor(pool, 0, rows, [&](int64_t b, int64_t e) {
    for (int64_t r = b; r < e; ++r) {
      if (column.IsNull(r)) continue;  // NULL never matches comparisons
      bool match = false;
      switch (type.id) {
        case TypeId::kBool:
          match = ApplyOp(op, ThreeWay<int64_t>(column.Value<uint8_t>(r),
                                                literal.i64));
          break;
        case TypeId::kInt32:
          match = ApplyOp(op, ThreeWay<int64_t>(column.Value<int32_t>(r),
                                                literal.i64));
          break;
        case TypeId::kDate32:
          match = ApplyOp(op, ThreeWay<int64_t>(column.Value<int32_t>(r),
                                                literal.i64));
          break;
        case TypeId::kInt64:
        case TypeId::kDecimal64:
        case TypeId::kTimestampMicros:
          match = ApplyOp(op, ThreeWay<int64_t>(column.Value<int64_t>(r),
                                                literal.i64));
          break;
        case TypeId::kFloat64:
          match = ApplyOp(op,
                          ThreeWay<double>(column.Value<double>(r),
                                           literal.f64));
          break;
        case TypeId::kString: {
          const std::string_view value = column.StringValue(r);
          if (op == CompareOp::kContains) {
            match = value.find(literal.text) != std::string_view::npos;
          } else if (op == CompareOp::kStartsWith) {
            match = value.substr(0, literal.text.size()) == literal.text;
          } else {
            match = ApplyOp(op, value.compare(literal.text) < 0
                                    ? -1
                                    : (value == literal.text ? 0 : 1));
          }
          break;
        }
      }
      selection[r] = match ? 1 : 0;
    }
  });
  return selection;
}

}  // namespace parparaw
