#include "columnar/types.h"

namespace parparaw {

std::string DataType::ToString() const {
  switch (id) {
    case TypeId::kBool:
      return "bool";
    case TypeId::kInt32:
      return "int32";
    case TypeId::kInt64:
      return "int64";
    case TypeId::kFloat64:
      return "float64";
    case TypeId::kDecimal64:
      return "decimal64(" + std::to_string(scale) + ")";
    case TypeId::kDate32:
      return "date32";
    case TypeId::kTimestampMicros:
      return "timestamp[us]";
    case TypeId::kString:
      return "string";
  }
  return "unknown";
}

int FixedWidth(TypeId id) {
  switch (id) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt32:
    case TypeId::kDate32:
      return 4;
    case TypeId::kInt64:
    case TypeId::kFloat64:
    case TypeId::kDecimal64:
    case TypeId::kTimestampMicros:
      return 8;
    case TypeId::kString:
      return 0;
  }
  return 0;
}

}  // namespace parparaw
