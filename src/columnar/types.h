#ifndef PARPARAW_COLUMNAR_TYPES_H_
#define PARPARAW_COLUMNAR_TYPES_H_

#include <cstdint>
#include <string>

namespace parparaw {

/// Logical column types of the Arrow-style columnar output format.
///
/// The output of the parser is configured to comply with the Apache Arrow
/// columnar memory layout (validity bitmap + data buffer; strings use an
/// offsets buffer plus a contiguous data buffer).
enum class TypeId : uint8_t {
  kBool,
  kInt32,
  kInt64,
  kFloat64,
  /// Fixed-point decimal stored as a scaled int64.
  kDecimal64,
  /// Days since the UNIX epoch, 32-bit (Arrow date32).
  kDate32,
  /// Microseconds since the UNIX epoch, 64-bit (Arrow timestamp[us]).
  kTimestampMicros,
  /// UTF-8 string with 64-bit offsets (Arrow large_utf8).
  kString,
};

/// \brief A logical data type: a TypeId plus its parameters.
struct DataType {
  TypeId id = TypeId::kString;
  /// Decimal scale (number of fractional digits); used by kDecimal64 only.
  int32_t scale = 0;

  static DataType Bool() { return {TypeId::kBool, 0}; }
  static DataType Int32() { return {TypeId::kInt32, 0}; }
  static DataType Int64() { return {TypeId::kInt64, 0}; }
  static DataType Float64() { return {TypeId::kFloat64, 0}; }
  static DataType Decimal64(int32_t scale) {
    return {TypeId::kDecimal64, scale};
  }
  static DataType Date32() { return {TypeId::kDate32, 0}; }
  static DataType TimestampMicros() { return {TypeId::kTimestampMicros, 0}; }
  static DataType String() { return {TypeId::kString, 0}; }

  bool operator==(const DataType& other) const {
    return id == other.id && scale == other.scale;
  }

  std::string ToString() const;
};

/// Width in bytes of a fixed-width type's value slot; 0 for variable-width
/// (string) types.
int FixedWidth(TypeId id);

/// True for types whose values occupy a fixed-width data buffer.
inline bool IsFixedWidth(TypeId id) { return FixedWidth(id) > 0; }

}  // namespace parparaw

#endif  // PARPARAW_COLUMNAR_TYPES_H_
