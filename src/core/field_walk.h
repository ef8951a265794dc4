#ifndef PARPARAW_CORE_FIELD_WALK_H_
#define PARPARAW_CORE_FIELD_WALK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline_state.h"

namespace parparaw {

/// \brief The columns a field walk yields (ForEachField): a lookup of the
/// next wanted column at or after each column, built once per pass. Columns
/// past the lookup are all wanted or all unwanted.
class WantedColumns {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  /// Exactly `columns`.
  static WantedColumns Only(const std::vector<uint32_t>& columns) {
    std::vector<uint8_t> wanted;
    for (uint32_t j : columns) {
      if (j >= wanted.size()) wanted.resize(static_cast<size_t>(j) + 1, 0);
      wanted[j] = 1;
    }
    return WantedColumns(wanted, false);
  }
  /// Every column but `columns`.
  static WantedColumns AllBut(const std::vector<uint32_t>& columns) {
    std::vector<uint8_t> wanted;
    for (uint32_t j : columns) {
      if (j >= wanted.size()) wanted.resize(static_cast<size_t>(j) + 1, 1);
      wanted[j] = 0;
    }
    return WantedColumns(wanted, true);
  }
  /// The source columns of the plans `want` accepts.
  template <typename Pred>
  static WantedColumns OfPlans(const std::vector<ColumnPlan>& plans,
                               Pred&& want) {
    std::vector<uint32_t> columns;
    for (const ColumnPlan& plan : plans) {
      if (want(plan)) columns.push_back(plan.source);
    }
    return Only(columns);
  }

  /// The first wanted column at or after `column`, or kNone.
  uint32_t Next(uint32_t column) const {
    if (column < next_.size()) return next_[column];
    return tail_ ? column : kNone;
  }
  bool wants(uint32_t column) const { return Next(column) == column; }
  /// The first column at or after `column` that is not wanted, or kNone:
  /// the end of the run of wanted columns from `column`.
  uint32_t RunEnd(uint32_t column) const {
    while (column < next_.size() && next_[column] == column) ++column;
    if (column < next_.size() || !tail_) return column;
    return kNone;
  }

 private:
  WantedColumns(const std::vector<uint8_t>& wanted, bool tail)
      : next_(wanted.size()), tail_(tail) {
    uint32_t next = tail ? static_cast<uint32_t>(wanted.size()) : kNone;
    for (size_t j = wanted.size(); j-- > 0;) {
      if (wanted[j] != 0) next = static_cast<uint32_t>(j);
      next_[j] = next;
    }
  }

  std::vector<uint32_t> next_;
  bool tail_ = false;
};

/// \brief Whether a field is part of the output: its record exists (bytes
/// past the last record delimiter of an input that does not end mid-record
/// belong to no record), is not dropped (skip_records, the column-count
/// policy, an excluded trailing record), and its column is not skipped.
/// The tag step's symbol emission and gather tallies and the partition
/// step's gather walk all ask this one predicate, so they agree on every
/// field. Valid once the tag step has resolved the drops.
class KeptFields {
 public:
  explicit KeptFields(const PipelineState& state)
      : state_(state), columns_(KeptColumns(*state.options)) {}

  bool operator()(int64_t record, uint32_t column) const {
    return record_kept(record) && column_kept(column);
  }
  /// The record half: it exists and is not dropped.
  bool record_kept(int64_t record) const {
    return record < state_.num_records && state_.record_dropped[record] == 0;
  }
  /// The column half: it is not skipped.
  bool column_kept(uint32_t column) const { return columns_.wants(column); }
  /// Every column not skipped, as a walk's wanted set.
  const WantedColumns& columns() const { return columns_; }

 private:
  // Columns at or beyond max_record_columns cannot survive the tag step's
  // count pass, so skipping them bounds nothing.
  static WantedColumns KeptColumns(const ParseOptions& options) {
    std::vector<uint32_t> skipped;
    for (int col : options.skip_columns) {
      if (col < 0) continue;
      if (static_cast<uint32_t>(col) >= options.max_record_columns) continue;
      skipped.push_back(static_cast<uint32_t>(col));
    }
    return WantedColumns::AllBut(skipped);
  }

  const PipelineState& state_;
  WantedColumns columns_;
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

/// The position of the (k+1)-th lowest set bit of `bits`; `bits` has more
/// than k set bits.
inline unsigned SelectBit(uint64_t bits, int k) {
  for (; k > 0; --k) bits &= bits - 1;
  return static_cast<unsigned>(std::countr_zero(bits));
}

/// \brief The field walk of TransposeMode::kFieldGather: calls
/// `fn(const FieldSpan&)` for every field that ends in chunk `c` and whose
/// column `wanted` holds, in source order, from the chunk's field-end bits.
/// A record that lacks a wanted column (it ends before that column) and
/// whose last field is not wanted is reported as
/// `record_end(record, last_column)`, so the caller can give its missing
/// columns their defaults; a wanted last field carries `record_end` itself.
/// Value bytes are counted by popcount over the masks; quotes, escapes and
/// comment bytes (control bits) belong to no field's value. The last chunk
/// also yields the trailing record's last field, which ends at end of
/// input.
///
/// A field open at the chunk's start began in an earlier chunk: its first
/// byte and the value bytes it holds before the chunk are the chunk's
/// open_field_begin / open_field_length, which the tag step's count pass
/// computes. The tag step's tallies and the partition step's column writes
/// both walk with this one function, so they cannot disagree on what a
/// field is.
///
/// The walk steps through the end bits while the columns stay wanted, so
/// with every column wanted it takes one step per field. It jumps over the
/// rest (§4.3 column skipping): to the next wanted column it counts field
/// bits up to the next record bit by popcount, a whole mask word at a time,
/// and finds the delimiter that opens the column with a select inside one
/// word; past a record's last wanted column it goes straight to the
/// record's end. Value bytes are popcounted only for the fields it yields.
template <typename Fn, typename RecordEndFn>
void ForEachField(const PipelineState& state, int64_t c,
                  const WantedColumns& wanted, Fn&& fn,
                  RecordEndFn&& record_end) {
  constexpr uint32_t kNone = WantedColumns::kNone;
  // With no column wanted there is nothing to yield and no record lacks a
  // wanted column.
  if (wanted.Next(0) == kNone) return;
  const ChunkRange range = ChunkRangeOf(state, c);
  const simd::SymbolMasks* index = state.symbol_index.data();
  const bool trailing =
      c == state.num_chunks - 1 && state.has_trailing_record;
  FieldSpan field;
  field.record = state.record_offsets[c];
  field.column = state.entry_columns[c];
  field.begin = state.open_field_begin[c];
  int64_t open_length = state.open_field_length[c];
  // The first column not wanted in the run of wanted columns the walk is
  // stepping through; a record's end restarts the run at column 0.
  const uint32_t first_run_end = wanted.RunEnd(0);
  uint32_t run_end = first_run_end;
  // Yields the field ending at bit b of word w, whose value bytes before b
  // are `before`, and opens the next one.
  const auto yield = [&](size_t w, const simd::SymbolMasks& m, unsigned b,
                         uint64_t before) {
    const bool at_record_end = ((m.record >> b) & 1) != 0;
    field.end = static_cast<int64_t>(64 * w + b);
    field.inclusive = !at_record_end && ((m.control >> b) & 1) == 0;
    field.record_end = at_record_end;
    field.length =
        open_length + std::popcount(before) + (field.inclusive ? 1 : 0);
    fn(static_cast<const FieldSpan&>(field));
    open_length = 0;
    field.begin = field.end + 1;
    if (at_record_end) {
      ++field.record;
      field.column = 0;
      run_end = first_run_end;
    } else {
      ++field.column;
    }
  };

  if (range.begin < range.end) {
    // `w` is the current word and `live` its bits not yet walked that lie
    // inside the chunk.
    size_t w = range.begin >> 6;
    uint64_t live = simd::BitRange(
        static_cast<unsigned>(range.begin & 63),
        static_cast<unsigned>(std::min<size_t>(64, range.end - 64 * w)));
    const auto next_word = [&]() {
      ++w;
      const size_t lo = 64 * w;
      if (lo >= range.end) return false;
      live = range.end - lo >= 64 ? ~uint64_t{0}
                                  : (uint64_t{1} << (range.end - lo)) - 1;
      return true;
    };
    // Opens the field after the delimiter at bit b of the current word.
    const auto open_after = [&](unsigned b) {
      live &= ~simd::BitRange(0, b + 1);
      field.begin = static_cast<int64_t>(64 * w + b) + 1;
      open_length = 0;
    };
    bool more = true;
    while (more) {
      const uint32_t target = wanted.Next(field.column);
      if (target == field.column) {
        // Wanted fields: step through the end bits up to the run's end. A
        // step compares one column number and looks nothing up, so with
        // every column wanted it costs what a plain per-field loop's does.
        run_end = wanted.RunEnd(field.column);
        for (;;) {
          const simd::SymbolMasks& m = index[w];
          uint64_t values = ~(m.record | m.field | m.control) & live;
          uint64_t ends = (m.record | m.field) & live;
          unsigned last = 0;
          bool wanting = true;
          for (; ends != 0 && wanting; ends &= ends - 1) {
            last = static_cast<unsigned>(std::countr_zero(ends));
            const uint64_t before = values & ((uint64_t{1} << last) - 1);
            values &= ~before;
            yield(w, m, last, before);
            wanting = field.column < run_end;
          }
          if (!wanting) {
            live &= ~simd::BitRange(0, last + 1);
            break;
          }
          // The open field goes on into the next word.
          open_length += std::popcount(values);
          if (!(more = next_word())) break;
        }
      } else if (target == kNone) {
        // No wanted column left in the record: go to its end.
        for (;;) {
          const uint64_t records = index[w].record & live;
          if (records != 0) {
            open_after(static_cast<unsigned>(std::countr_zero(records)));
            ++field.record;
            field.column = 0;
            break;
          }
          if (!(more = next_word())) break;
        }
      } else {
        // Skip to the delimiter that opens column `target`, unless the
        // record ends first.
        uint32_t need = target - field.column;
        for (;;) {
          const simd::SymbolMasks& m = index[w];
          const uint64_t records = m.record & live;
          // The field bits before the record's end.
          const uint64_t fields =
              m.field & live &
              (records != 0 ? (records & -records) - 1 : ~uint64_t{0});
          const uint32_t n = static_cast<uint32_t>(std::popcount(fields));
          if (n >= need) {
            open_after(SelectBit(fields, static_cast<int>(need - 1)));
            field.column = target;
            break;
          }
          need -= n;
          field.column += n;
          if (records != 0) {
            record_end(field.record, field.column);
            open_after(static_cast<unsigned>(std::countr_zero(records)));
            ++field.record;
            field.column = 0;
            break;
          }
          if (!(more = next_word())) break;
        }
      }
    }
  }
  if (!trailing) return;
  // The trailing record ends at end of input. Its open field's value
  // bytes are counted when its column is wanted, which is all this needs.
  const uint32_t target = wanted.Next(field.column);
  if (target == field.column) {
    field.end = static_cast<int64_t>(state.size);
    field.inclusive = false;
    field.record_end = true;
    field.length = open_length;
    fn(static_cast<const FieldSpan&>(field));
  } else if (target != kNone) {
    record_end(field.record, field.column);
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
