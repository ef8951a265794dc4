#ifndef PARPARAW_TESTS_FIELD_WALK_ORACLE_H_
#define PARPARAW_TESTS_FIELD_WALK_ORACLE_H_

#include <bit>
#include <cstdint>

#include "core/field_walk.h"

namespace parparaw {

/// The oracle of ForEachField (core/field_walk.h): the one-step-per-field
/// walk that yields every field ending in chunk `c`, whatever its column,
/// from the chunk's field-end bits and its open-field carries. A walk over
/// any wanted set must yield exactly this walk's fields of the wanted
/// columns, and report the end of each record whose last field is not
/// wanted but which lacks a wanted column.
template <typename Fn>
void OracleFieldWalk(const PipelineState& state, int64_t c, Fn&& fn) {
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

}  // namespace parparaw

#endif  // PARPARAW_TESTS_FIELD_WALK_ORACLE_H_
