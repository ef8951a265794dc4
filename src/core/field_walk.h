#ifndef PARPARAW_CORE_FIELD_WALK_H_
#define PARPARAW_CORE_FIELD_WALK_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "core/pipeline_state.h"

namespace parparaw {

/// \brief Whether a field is part of the output: its record exists (bytes
/// past the last record delimiter of an input that does not end mid-record
/// belong to no record), is not dropped (skip_records, the column-count
/// policy, an excluded trailing record), and its column is not skipped.
/// The tag step's symbol emission and gather histogram and the partition
/// step's gather scatter all ask this one predicate, so they agree on
/// every field. Valid once the tag step has resolved the drops.
class KeptFields {
 public:
  explicit KeptFields(const PipelineState& state) : state_(state) {
    // Dense lookup for skipped columns (columns above the largest skipped
    // index are never skipped). Bounded by max_record_columns: a column at
    // or beyond the limit cannot survive the tag step's count pass.
    const ParseOptions& options = *state.options;
    for (int col : options.skip_columns) {
      if (col < 0) continue;
      if (static_cast<uint32_t>(col) >= options.max_record_columns) continue;
      if (static_cast<size_t>(col) >= skipped_.size()) {
        skipped_.resize(static_cast<size_t>(col) + 1, 0);
      }
      skipped_[static_cast<size_t>(col)] = 1;
    }
  }

  bool operator()(int64_t record, uint32_t column) const {
    return record < state_.num_records && state_.record_dropped[record] == 0 &&
           (column >= skipped_.size() || skipped_[column] == 0);
  }

 private:
  const PipelineState& state_;
  std::vector<uint8_t> skipped_;
};

/// One field, as ForEachField yields it.
struct FieldSpan {
  int64_t record = 0;
  uint32_t column = 0;
  /// The field's first byte: one past the previous field's end, or the
  /// first chunk's begin.
  int64_t begin = 0;
  /// The delimiter byte that ends the field, or state.size for the
  /// trailing unterminated record's last field.
  int64_t end = 0;
  /// Value bytes in [begin, end]: the bytes set in none of the three
  /// masks, plus `end` itself when it is inclusive.
  int64_t length = 0;
  /// `end` is a field delimiter without a control bit (a fixed-width
  /// boundary): the field's last value byte as well as its end.
  bool inclusive = false;
};

/// \brief The field walk of TransposeMode::kFieldGather: calls
/// `fn(const FieldSpan&)` for every field that ends in chunk `c`, in source
/// order, from the chunk's field-end bits. Value bytes are counted by
/// popcount over the masks; quotes, escapes and comment bytes (control
/// bits) belong to no field's value. The last chunk also yields the
/// trailing record's last field, which ends at end of input.
///
/// A field open at the chunk's start began in an earlier chunk: its first
/// byte and the value bytes it holds before the chunk are the chunk's
/// open_field_begin / open_field_length, which the tag step computes. The
/// tag step's histogram and the partition step's scatter both walk with
/// this one function, so they cannot disagree on what a field is.
template <typename Fn>
void ForEachField(const PipelineState& state, int64_t c, Fn&& fn) {
  const ChunkRange range = ChunkRangeOf(state, c);
  const simd::SymbolMasks* index = state.symbol_index.data();
  FieldSpan field;
  field.record = state.record_offsets[c];
  field.column = state.entry_columns[c];
  field.begin = state.open_field_begin[c];
  int64_t open_length = state.open_field_length[c];
  simd::ForEachMaskWord(range.begin, range.end, [&](size_t w, uint64_t keep) {
    const simd::SymbolMasks& m = index[w];
    uint64_t values = ~(m.record | m.field | m.control) & keep;
    for (uint64_t ends = (m.record | m.field) & keep; ends != 0;
         ends &= ends - 1) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(ends));
      const uint64_t before = values & ((uint64_t{1} << b) - 1);
      const bool record_end = ((m.record >> b) & 1) != 0;
      values &= ~before;
      field.end = static_cast<int64_t>(64 * w + b);
      field.inclusive = !record_end && ((m.control >> b) & 1) == 0;
      field.length =
          open_length + std::popcount(before) + (field.inclusive ? 1 : 0);
      fn(static_cast<const FieldSpan&>(field));
      open_length = 0;
      field.begin = field.end + 1;
      if (record_end) {
        ++field.record;
        field.column = 0;
      } else {
        ++field.column;
      }
    }
    open_length += std::popcount(values);
  });
  if (c == state.num_chunks - 1 && state.has_trailing_record) {
    field.end = static_cast<int64_t>(state.size);
    field.inclusive = false;
    field.length = open_length;
    fn(static_cast<const FieldSpan&>(field));
  }
}

}  // namespace parparaw

#endif  // PARPARAW_CORE_FIELD_WALK_H_
