#ifndef PARPARAW_COLUMNAR_COLUMN_H_
#define PARPARAW_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/types.h"
#include "util/bit_util.h"

namespace parparaw {

/// \brief A single column in the Arrow-style columnar memory layout.
///
/// Fixed-width types use one contiguous data buffer (`FixedWidth(type)`
/// bytes per slot) plus a validity bitmap. Strings use a 64-bit offsets
/// buffer of length `num_rows + 1` into a contiguous byte buffer, plus the
/// validity bitmap — the layout Apache Arrow specifies for large_utf8.
///
/// The parser's convert step writes value slots from many threads at once,
/// so the column supports both positional writes into preallocated buffers
/// (parallel path) and appends (baseline/builder path). The two must not be
/// mixed on the same instance.
class Column {
 public:
  Column() = default;
  explicit Column(DataType type) : type_(type) {}

  const DataType& type() const { return type_; }
  int64_t length() const { return length_; }

  /// Preallocates `num_rows` slots for positional writes. A string
  /// column's value buffer starts empty: the parallel path sizes it once
  /// the offsets are known, the sequential path grows it by appends. A
  /// fixed-width buffer larger than huge_pages::kAdviseInPlaceBytes is
  /// advised for huge pages before its zero-fill (util/huge_pages.h).
  void Allocate(int64_t num_rows);

  // --- positional writes (parallel convert path) ---

  void SetNull(int64_t i) { validity_.Clear(i); }
  void SetValid(int64_t i) { validity_.Set(i); }

  /// Writes a fixed-width value slot; T must match the physical width.
  template <typename T>
  void SetValue(int64_t i, T value) {
    std::memcpy(data_.data() + i * sizeof(T), &value, sizeof(T));
    validity_.Set(i);
  }

  /// Raw string buffer access for parallel byte copies.
  std::vector<uint8_t>* mutable_string_data() { return &string_data_; }
  /// Raw fixed-width buffer access for parallel value writes.
  std::vector<uint8_t>* mutable_data() { return &data_; }

  // --- appends (builder path) ---

  void AppendNull();
  template <typename T>
  void AppendValue(T value) {
    const int64_t i = length_;
    data_.resize(data_.size() + sizeof(T));
    GrowValidity(i + 1);
    length_ = i + 1;
    std::memcpy(data_.data() + i * sizeof(T), &value, sizeof(T));
    validity_.Set(i);
  }
  void AppendString(std::string_view value);

  // --- reads ---

  bool IsNull(int64_t i) const { return !validity_.Get(i); }
  bool IsValid(int64_t i) const { return validity_.Get(i); }

  template <typename T>
  T Value(int64_t i) const {
    T v;
    std::memcpy(&v, data_.data() + i * sizeof(T), sizeof(T));
    return v;
  }

  std::string_view StringValue(int64_t i) const {
    const int64_t begin = offsets_[i];
    const int64_t end = offsets_[i + 1];
    return std::string_view(
        reinterpret_cast<const char*>(string_data_.data()) + begin,
        static_cast<size_t>(end - begin));
  }

  /// Renders slot i as text ("NULL" for nulls); used by examples/tests.
  std::string ValueToString(int64_t i) const;

  /// Deep value equality (type, length, validity, values).
  bool Equals(const Column& other) const;

  /// Appends all of `other`'s rows (types must match); used to merge
  /// streaming partitions.
  void Concat(const Column& other);

  const std::vector<uint8_t>& data() const { return data_; }
  const std::vector<int64_t>& offsets() const { return offsets_; }
  const std::vector<uint8_t>& string_data() const { return string_data_; }
  const bit_util::Bitmap& validity() const { return validity_; }
  std::vector<int64_t>* mutable_offsets() { return &offsets_; }
  /// Raw validity words (IPC deserialisation).
  std::vector<uint64_t>* mutable_validity_words() {
    return &validity_.mutable_words();
  }

  /// Total bytes across all buffers (for the PCIe return-transfer model).
  int64_t TotalBufferBytes() const;

 private:
  void GrowValidity(int64_t new_length);

  DataType type_;
  int64_t length_ = 0;
  std::vector<uint8_t> data_;
  std::vector<int64_t> offsets_;
  std::vector<uint8_t> string_data_;
  bit_util::Bitmap validity_;
};

}  // namespace parparaw

#endif  // PARPARAW_COLUMNAR_COLUMN_H_
