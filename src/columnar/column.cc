#include "columnar/column.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/huge_pages.h"

namespace parparaw {

void Column::Allocate(int64_t num_rows) {
  length_ = num_rows;
  validity_.Resize(static_cast<size_t>(num_rows));
  if (IsFixedWidth(type_.id)) {
    huge_pages::Assign(&data_,
                       static_cast<size_t>(num_rows) * FixedWidth(type_.id),
                       uint8_t{0});
  } else {
    offsets_.assign(static_cast<size_t>(num_rows) + 1, 0);
    string_data_.clear();
  }
}

void Column::GrowValidity(int64_t new_length) {
  if (static_cast<size_t>(new_length) > validity_.size()) {
    // Amortised doubling; Bitmap::Resize reallocates, so grow in bulk.
    bit_util::Bitmap grown(
        std::max<size_t>(static_cast<size_t>(new_length) * 2, 64));
    for (size_t i = 0; i < validity_.size(); ++i) {
      if (validity_.Get(i)) grown.Set(i);
    }
    validity_ = std::move(grown);
  }
}

void Column::AppendNull() {
  const int64_t i = length_;
  GrowValidity(i + 1);
  validity_.Clear(i);
  if (IsFixedWidth(type_.id)) {
    data_.resize(data_.size() + FixedWidth(type_.id), 0);
  } else {
    if (offsets_.empty()) offsets_.push_back(0);
    offsets_.push_back(offsets_.back());
  }
  length_ = i + 1;
}

void Column::AppendString(std::string_view value) {
  const int64_t i = length_;
  GrowValidity(i + 1);
  validity_.Set(i);
  if (offsets_.empty()) offsets_.push_back(0);
  string_data_.insert(string_data_.end(), value.begin(), value.end());
  offsets_.push_back(static_cast<int64_t>(string_data_.size()));
  length_ = i + 1;
}

std::string Column::ValueToString(int64_t i) const {
  if (IsNull(i)) return "NULL";
  char buf[64];
  switch (type_.id) {
    case TypeId::kBool:
      return Value<uint8_t>(i) ? "true" : "false";
    case TypeId::kInt32:
      return std::to_string(Value<int32_t>(i));
    case TypeId::kInt64:
      return std::to_string(Value<int64_t>(i));
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%g", Value<double>(i));
      return buf;
    case TypeId::kDecimal64: {
      int64_t scaled = Value<int64_t>(i);
      int64_t pow10 = 1;
      for (int d = 0; d < type_.scale; ++d) pow10 *= 10;
      if (type_.scale == 0) return std::to_string(scaled);
      const char* sign = scaled < 0 ? "-" : "";
      const uint64_t mag = scaled < 0 ? static_cast<uint64_t>(-(scaled + 1)) + 1
                                      : static_cast<uint64_t>(scaled);
      std::snprintf(buf, sizeof(buf), "%s%llu.%0*llu", sign,
                    static_cast<unsigned long long>(mag / pow10), type_.scale,
                    static_cast<unsigned long long>(mag % pow10));
      return buf;
    }
    case TypeId::kDate32:
      return std::to_string(Value<int32_t>(i));
    case TypeId::kTimestampMicros:
      return std::to_string(Value<int64_t>(i));
    case TypeId::kString:
      return std::string(StringValue(i));
  }
  return "?";
}

bool Column::Equals(const Column& other) const {
  if (!(type_ == other.type_) || length_ != other.length_) return false;
  for (int64_t i = 0; i < length_; ++i) {
    if (IsNull(i) != other.IsNull(i)) return false;
    if (IsNull(i)) continue;
    if (type_.id == TypeId::kString) {
      if (StringValue(i) != other.StringValue(i)) return false;
    } else {
      const int width = FixedWidth(type_.id);
      if (std::memcmp(data_.data() + i * width,
                      other.data_.data() + i * width, width) != 0) {
        return false;
      }
    }
  }
  return true;
}

void Column::Concat(const Column& other) {
  const int64_t base = length_;
  GrowValidity(base + other.length_);
  for (int64_t i = 0; i < other.length_; ++i) {
    validity_.SetTo(base + i, other.validity_.Get(i));
  }
  if (IsFixedWidth(type_.id)) {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  } else {
    if (offsets_.empty()) offsets_.push_back(0);
    const int64_t shift = offsets_.back();
    for (int64_t i = 1; i <= other.length_; ++i) {
      offsets_.push_back(other.offsets_[i] + shift);
    }
    string_data_.insert(string_data_.end(), other.string_data_.begin(),
                        other.string_data_.end());
  }
  length_ = base + other.length_;
}

int64_t Column::TotalBufferBytes() const {
  return static_cast<int64_t>(data_.size()) +
         static_cast<int64_t>(offsets_.size() * sizeof(int64_t)) +
         static_cast<int64_t>(string_data_.size()) +
         static_cast<int64_t>(validity_.words().size() * sizeof(uint64_t));
}

}  // namespace parparaw
