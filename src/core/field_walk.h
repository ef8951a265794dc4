#ifndef PARPARAW_CORE_FIELD_WALK_H_
#define PARPARAW_CORE_FIELD_WALK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline_state.h"

namespace parparaw {

/// \brief Whether a field is part of the output: its record exists (bytes
/// past the last record delimiter of an input that does not end mid-record
/// belong to no record), is not dropped (skip_records, the column-count
/// policy, an excluded trailing record), and its column is not skipped.
/// The tag step's symbol emission and gather tallies and the partition
/// step's gather walk all ask this one predicate, so they agree on every
/// field. Valid once the tag step has resolved the drops.
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
    return record_kept(record) && column_kept(column);
  }
  /// The record half: it exists and is not dropped.
  bool record_kept(int64_t record) const {
    return record < state_.num_records && state_.record_dropped[record] == 0;
  }
  /// The column half: it is not skipped.
  bool column_kept(uint32_t column) const {
    return column >= skipped_.size() || skipped_[column] == 0;
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
  /// The field is its record's last: `end` is a record delimiter, or the
  /// end of input.
  bool record_end = false;

  /// One past the field's value window: `end`, or past an inclusive end.
  int64_t window_end() const { return end + (inclusive ? 1 : 0); }
  /// The window holds no control byte: its value bytes are contiguous.
  bool contiguous() const { return window_end() - begin == length; }
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
/// tag step's tallies and the partition step's column writes both walk
/// with this one function, so they cannot disagree on what a field is.
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
      field.record_end = record_end;
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
    field.record_end = true;
    field.length = open_length;
    fn(static_cast<const FieldSpan&>(field));
  }
}

/// Copies the value bytes of the window [begin, end) to `out`, at most
/// `length` of them: the runs between its record and control bits, one
/// memcpy each.
inline void CopyValueRuns(const simd::SymbolMasks* index, const uint8_t* data,
                          int64_t begin, int64_t end, uint8_t* out,
                          int64_t length) {
  int64_t s = begin;
  while (s < end && length > 0) {
    // The first record or control bit at or after s, or end.
    size_t w = static_cast<size_t>(s) >> 6;
    uint64_t stops = (index[w].record | index[w].control) &
                     ~simd::BitRange(0, static_cast<unsigned>(s & 63));
    while (stops == 0 && static_cast<int64_t>(64 * (w + 1)) < end) {
      ++w;
      stops = index[w].record | index[w].control;
    }
    const int64_t stop =
        stops == 0 ? end
                   : std::min<int64_t>(end, static_cast<int64_t>(64 * w) +
                                                std::countr_zero(stops));
    const int64_t run = std::min(stop - s, length);
    std::memcpy(out, data + s, static_cast<size_t>(run));
    out += run;
    length -= run;
    s = stop + 1;
  }
}

/// Copies `field`'s value bytes to `out`: one memcpy when its window is
/// contiguous, else one per run between its control bytes (quotes,
/// escapes).
inline void CopyFieldValue(const PipelineState& state, const FieldSpan& field,
                           uint8_t* out) {
  if (field.contiguous()) {
    std::memcpy(out, state.data + field.begin,
                static_cast<size_t>(field.length));
  } else {
    CopyValueRuns(state.symbol_index.data(), state.data, field.begin,
                  field.window_end(), out, field.length);
  }
}

/// `field`'s value bytes as one view: its input window when that is
/// contiguous, else its value runs copied to `*scratch`.
inline std::string_view FieldValue(const PipelineState& state,
                                   const FieldSpan& field,
                                   std::string* scratch) {
  if (field.contiguous()) {
    return std::string_view(
        reinterpret_cast<const char*>(state.data) + field.begin,
        static_cast<size_t>(field.length));
  }
  scratch->resize(static_cast<size_t>(field.length));
  CopyFieldValue(state, field, reinterpret_cast<uint8_t*>(scratch->data()));
  return *scratch;
}

}  // namespace parparaw

#endif  // PARPARAW_CORE_FIELD_WALK_H_
