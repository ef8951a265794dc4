#include "core/tag_step.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "obs/obs.h"
#include "parallel/scan.h"
#include "robust/resource_guard.h"

namespace parparaw {

namespace {

// Bits of word w (within `keep`) whose input byte equals `byte`.
uint64_t ByteMatches(const uint8_t* data, size_t w, uint64_t keep,
                     uint8_t byte) {
  uint64_t matches = 0;
  for (; keep != 0; keep &= keep - 1) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(keep));
    if (data[64 * w + b] == byte) matches |= uint64_t{1} << b;
  }
  return matches;
}

// Dense lookup for skipped columns (columns above the largest skipped index
// are never skipped). Bounded by max_record_columns: a column at or beyond
// the limit cannot survive the count pass, so the lookup never needs to
// grow past it either.
std::vector<uint8_t> BuildSkipColumnLookup(const ParseOptions& options) {
  std::vector<uint8_t> lookup;
  for (int col : options.skip_columns) {
    if (col < 0) continue;
    if (static_cast<uint32_t>(col) >= options.max_record_columns) continue;
    if (static_cast<size_t>(col) >= lookup.size()) lookup.resize(col + 1, 0);
    lookup[col] = 1;
  }
  return lookup;
}

inline bool IsSkippedColumn(const std::vector<uint8_t>& lookup, uint32_t col) {
  return col < lookup.size() && lookup[col];
}

// Walks chunk `c` over the bitmap indexes and invokes
// `emit(symbol, col, rec, is_field_end)` for every kept CSS slot: field
// data always; one terminator slot per field end in the inline/vector
// modes. Drop flags and skipped columns are applied here so the sizing and
// write passes stay in exact agreement.
template <typename Emit>
void ForEachEmission(const PipelineState& state,
                     const std::vector<uint8_t>& skip_lookup, int64_t c,
                     Emit&& emit) {
  const ParseOptions& options = *state.options;
  const bool slot_per_field =
      options.tagging_mode != TaggingMode::kRecordTags;
  const ChunkRange range = ChunkRangeOf(state, c);
  const simd::SymbolMasks* index = state.symbol_index.data();
  uint32_t col = state.entry_columns[c];
  int64_t rec = state.record_offsets[c];
  // Symbols past the last record delimiter belong to a trailing record
  // only when the input ends in a mid-record state; otherwise (e.g. the
  // input trails off in the invalid state) they belong to no record at all
  // and are discarded, matching the sequential semantics.
  const auto dropped = [&](int64_t r) {
    if (r >= state.num_records) return true;
    return !state.record_dropped.empty() && state.record_dropped[r] != 0;
  };
  simd::ForEachMaskWord(range.begin, range.end, [&](size_t w, uint64_t keep) {
    const simd::SymbolMasks& m = index[w];
    // Every byte that emits or moves the cursor: delimiters and value
    // bytes. Quotes, escapes and comment bytes (control bits alone) are
    // not part of any field's value.
    for (uint64_t bits = (m.record | m.field | ~m.control) & keep; bits != 0;
         bits &= bits - 1) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
      const uint8_t symbol = state.data[64 * w + b];
      if ((m.record >> b) & 1) {
        if (slot_per_field && !dropped(rec) &&
            !IsSkippedColumn(skip_lookup, col)) {
          emit(symbol, col, rec, true);
        }
        ++rec;
        col = 0;
      } else if ((m.field >> b) & 1) {
        const bool kept = !dropped(rec) && !IsSkippedColumn(skip_lookup, col);
        // An inclusive boundary (no control bit, see SymbolFlags) is the
        // field's last *value* byte as well as its end.
        if (kept && ((m.control >> b) & 1) == 0) {
          emit(symbol, col, rec, false);
        }
        if (slot_per_field && kept) {
          emit(symbol, col, rec, true);
        }
        ++col;
      } else if (!dropped(rec) && !IsSkippedColumn(skip_lookup, col)) {
        emit(symbol, col, rec, false);
      }
    }
  });
  // The last chunk terminates a trailing unterminated record (§3: the
  // record and its final field end at end-of-input).
  if (slot_per_field && c == state.num_chunks - 1 &&
      state.has_trailing_record && !dropped(rec) &&
      !IsSkippedColumn(skip_lookup, col)) {
    emit(options.format.record_delimiter, col, rec, true);
  }
}

// Per-chunk output of the field-gather sizing pass.
struct GatherSizes {
  std::vector<int64_t> fields;     // field ends inside the chunk
  std::vector<int64_t> tail_data;  // value bytes after its last field end
  std::vector<uint8_t> has_end;    // 1 when the chunk ends any field
};

// --- 3. Field-gather sizing pass: field ends + open-field tail data per
// chunk (part of the tag step's count phase), by popcount over the masks.
Status SizeGatherFields(const PipelineState& state, GatherSizes* sizes) {
  const int64_t num_chunks = state.num_chunks;
  sizes->fields.assign(num_chunks, 0);
  sizes->tail_data.assign(num_chunks, 0);
  sizes->has_end.assign(num_chunks, 0);
  const simd::SymbolMasks* index = state.symbol_index.data();
  return ParallelForEach(state.pool, 0, num_chunks, [&](int64_t c) {
    const ChunkRange range = ChunkRangeOf(state, c);
    int64_t fields = 0;
    int64_t tail = 0;
    bool has_end = false;
    simd::ForEachMaskWord(range.begin, range.end,
                          [&](size_t w, uint64_t keep) {
      const simd::SymbolMasks& m = index[w];
      const uint64_t ends = (m.record | m.field) & keep;
      // Value bytes: set in none of the three masks. An inclusive boundary
      // belongs to the field it ends, never to the open tail.
      uint64_t values = ~(m.record | m.field | m.control) & keep;
      if (ends != 0) {
        fields += std::popcount(ends);
        has_end = true;
        tail = 0;
        values &= ~simd::BitRange(
            0, 64 - static_cast<unsigned>(std::countl_zero(ends)));
      }
      tail += std::popcount(values);
    });
    // The trailing unterminated record's final field ends at EOF.
    if (c == num_chunks - 1 && state.has_trailing_record) ++fields;
    sizes->fields[c] = fields;
    sizes->tail_data[c] = tail;
    sizes->has_end[c] = has_end ? 1 : 0;
  });
}

// Field-gather transposition (TransposeMode::kFieldGather): instead of a
// per-symbol tag sideband for the radix sort, derive one FieldExtent per
// field — including dropped ones, whose predecessor link recovers field
// starts — with the same chunk-parallel count + exclusive-scan + fill
// structure as the symbol path. The partition step buckets the extents by
// column and gathers each column's CSS with whole-field copies.
Status RunFieldGatherTag(PipelineState* state, StepTimings* timings,
                         const std::vector<uint8_t>& skip_lookup,
                         uint32_t max_col_index, const GatherSizes& sizes) {
  const ParseOptions& options = *state->options;
  const int64_t num_chunks = state->num_chunks;
  const TaggingMode mode = options.tagging_mode;
  const bool slot_per_field = mode != TaggingMode::kRecordTags;
  const auto dropped = [state](int64_t r) {
    if (r >= state->num_records) return true;
    return !state->record_dropped.empty() && state->record_dropped[r] != 0;
  };

  obs::TraceSpan scan = StepProbe(*state, "step.tag.scan", "step.tag.scan_us");
  std::vector<int64_t> chunk_extent_offsets(num_chunks, 0);
  const int64_t total_fields =
      ExclusivePrefixSum(state->pool, sizes.fields.data(),
                         chunk_extent_offsets.data(), num_chunks);
  // carry_in[c]: value bytes before chunk c belonging to the field still
  // open at its boundary; the first field end inside c closes them.
  std::vector<int64_t> carry_in(num_chunks, 0);
  for (int64_t c = 1; c < num_chunks; ++c) {
    carry_in[c] = sizes.tail_data[c - 1] +
                  (sizes.has_end[c - 1] ? 0 : carry_in[c - 1]);
  }
  timings->scan_ms += scan.Stop() * 1e3;

  // --- 4. Fill pass. ---
  obs::TraceSpan write =
      StepProbe(*state, "step.tag.write", "step.tag.write_us");
  PARPARAW_RETURN_NOT_OK(robust::GuardedResize(
      "alloc.gather", &state->gather_extents, total_fields));
  std::vector<int64_t> chunk_kept_fields(num_chunks, 0);
  std::vector<int64_t> chunk_kept_bytes(num_chunks, 0);
  std::atomic<bool> terminator_collision{false};
  const simd::SymbolMasks* index = state->symbol_index.data();
  const bool check_terminator = mode == TaggingMode::kInlineTerminated;
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
        const ChunkRange range = ChunkRangeOf(*state, c);
        uint32_t col = state->entry_columns[c];
        int64_t rec = state->record_offsets[c];
        int64_t out = chunk_extent_offsets[c];
        int64_t data_count = 0;
        bool first_end = true;
        int64_t kept_fields = 0;
        int64_t kept_bytes = 0;
        const auto emit_extent = [&](int64_t src_end) {
          const int64_t length = data_count + (first_end ? carry_in[c] : 0);
          first_end = false;
          data_count = 0;
          const bool keep =
              !dropped(rec) && !IsSkippedColumn(skip_lookup, col);
          FieldExtent& ex = state->gather_extents[out++];
          ex.src_end = src_end;
          ex.length = length;
          ex.row = keep ? state->out_row_of_record[rec] : -1;
          ex.column = keep ? col : kDroppedColumn;
          if (keep) {
            ++kept_fields;
            kept_bytes += length;
          }
        };
        // In the inline-terminated mode a kept value byte must not be the
        // terminator; `value_bits` are the current field's value bytes.
        uint64_t terminators = 0;
        const auto check_values = [&](uint64_t value_bits) {
          if ((terminators & value_bits) != 0 && !dropped(rec) &&
              !IsSkippedColumn(skip_lookup, col)) {
            terminator_collision.store(true, std::memory_order_relaxed);
          }
        };
        simd::ForEachMaskWord(range.begin, range.end,
                              [&](size_t w, uint64_t keep) {
          const simd::SymbolMasks& m = index[w];
          uint64_t values = ~(m.record | m.field | m.control) & keep;
          if (check_terminator) {
            terminators =
                ByteMatches(state->data, w, keep, options.terminator);
          }
          // Each field end closes the value bytes before it: a popcount of
          // the bits set in none of the three masks.
          for (uint64_t ends = (m.record | m.field) & keep; ends != 0;
               ends &= ends - 1) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(ends));
            const uint64_t field_values = values & simd::BitRange(0, b);
            values &= ~field_values;
            data_count += std::popcount(field_values);
            const int64_t i = static_cast<int64_t>(64 * w + b);
            if ((m.record >> b) & 1) {
              check_values(field_values);
              emit_extent(i);
              ++rec;
              col = 0;
            } else {
              // An inclusive boundary (no control bit) is counted into the
              // closing field's length; src_end still points at the
              // boundary byte, so the next field's src_begin (src_end + 1)
              // is unchanged.
              const uint64_t inclusive = ((m.control >> b) & 1) == 0
                                             ? uint64_t{1} << b
                                             : 0;
              check_values(field_values | inclusive);
              if (inclusive != 0) ++data_count;
              emit_extent(i);
              ++col;
            }
          }
          check_values(values);
          data_count += std::popcount(values);
        });
        if (c == num_chunks - 1 && state->has_trailing_record) {
          emit_extent(static_cast<int64_t>(state->size));
        }
        chunk_kept_fields[c] = kept_fields;
        chunk_kept_bytes[c] = kept_bytes;
      }));
  if (terminator_collision.load()) {
    return Status::ParseError(
        "terminator byte occurs in field data; use the vector-delimited or "
        "record-tag mode");
  }

  // Kept totals decide num_partitions exactly as the symbol path's
  // total_slots does: value bytes, plus one terminator slot per kept field
  // end in the inline/vector modes.
  int64_t kept_fields_total = 0;
  int64_t kept_bytes_total = 0;
  for (int64_t c = 0; c < num_chunks; ++c) {
    kept_fields_total += chunk_kept_fields[c];
    kept_bytes_total += chunk_kept_bytes[c];
  }
  const int64_t total_slots =
      kept_bytes_total + (slot_per_field ? kept_fields_total : 0);
  state->num_partitions = total_slots > 0 ? max_col_index + 1 : 0;

  // The symbol-path sidebands stay empty; the partition step builds the
  // CSS directly from the extents.
  state->css.clear();
  state->col_tags.clear();
  state->rec_tags.clear();
  state->field_end.clear();

  timings->tag_ms += write.Stop() * 1e3;
  return Status::OK();
}

}  // namespace

Status TagStep::Run(PipelineState* state, StepTimings* timings) {
  obs::TraceSpan span(state->options->tracer, "step.tag", "pipeline",
                      static_cast<int64_t>(state->size));
  obs::TraceSpan count =
      StepProbe(*state, "step.tag.count", "step.tag.count_us");
  const ParseOptions& options = *state->options;
  const int64_t num_chunks = state->num_chunks;
  const int64_t num_records = state->num_records;
  const std::vector<uint8_t> skip_lookup = BuildSkipColumnLookup(options);

  // --- 1. Count pass: per-record column counts + max column index. ---
  // A record tagging more than max_record_columns columns fails the parse:
  // every per-column table downstream (skip lookup, sort histogram, CSS
  // offsets) is sized by max_col_index + 1, so an adversarial
  // delimiter-dense row must not be allowed to size them unbounded (or to
  // march the uint32 column counter toward overflow). Each chunk records
  // its first violation; the earliest record wins.
  const uint32_t column_limit = options.max_record_columns;
  state->record_column_counts.assign(num_records, 0);
  std::vector<uint32_t> chunk_max_col(num_chunks, 0);
  std::vector<int64_t> chunk_violation_rec(num_chunks, -1);
  std::vector<int64_t> chunk_violation_pos(num_chunks, -1);
  const simd::SymbolMasks* index = state->symbol_index.data();
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
    const ChunkRange range = ChunkRangeOf(*state, c);
    uint32_t col = state->entry_columns[c];
    int64_t rec = state->record_offsets[c];
    uint32_t max_col = col;
    simd::ForEachMaskWord(range.begin, range.end,
                          [&](size_t w, uint64_t keep) {
      const simd::SymbolMasks& m = index[w];
      for (uint64_t ends = (m.record | m.field) & keep; ends != 0;
           ends &= ends - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(ends));
        if ((m.record >> b) & 1) {
          state->record_column_counts[rec] = col + 1;
          max_col = std::max(max_col, col);
          ++rec;
          col = 0;
        } else {
          ++col;
          max_col = std::max(max_col, col);
          if (col >= column_limit && chunk_violation_rec[c] < 0) {
            chunk_violation_rec[c] = rec;
            chunk_violation_pos[c] = static_cast<int64_t>(64 * w + b);
          }
        }
      }
    });
    if (c == num_chunks - 1 && state->has_trailing_record) {
      state->record_column_counts[rec] = col + 1;
      max_col = std::max(max_col, col);
    }
    chunk_max_col[c] = max_col;
  }));
  int64_t violation_rec = -1;
  int64_t violation_pos = -1;
  for (int64_t c = 0; c < num_chunks; ++c) {
    if (chunk_violation_rec[c] < 0) continue;
    if (violation_rec < 0 || chunk_violation_rec[c] < violation_rec ||
        (chunk_violation_rec[c] == violation_rec &&
         chunk_violation_pos[c] < violation_pos)) {
      violation_rec = chunk_violation_rec[c];
      violation_pos = chunk_violation_pos[c];
    }
  }
  if (violation_rec >= 0) {
    // Recover the offending record's byte span for the error from the
    // record mask: back to the previous record delimiter, forward to the
    // next one (or EOF).
    const int64_t span_begin =
        LastRecordDelimiter(state->symbol_index, 0,
                            static_cast<size_t>(violation_pos)) + 1;
    int64_t span_end = FirstRecordDelimiter(
        state->symbol_index, static_cast<size_t>(violation_pos), state->size);
    if (span_end < 0) span_end = static_cast<int64_t>(state->size);
    return Status::ParseError(
        "record " + std::to_string(violation_rec) + " (bytes " +
        std::to_string(span_begin) + ".." + std::to_string(span_end) +
        ") has more than " + std::to_string(column_limit) +
        " columns (ParseOptions::max_record_columns); raise the limit for "
        "genuinely wide data");
  }
  uint32_t max_col_index = 0;
  for (uint32_t m : chunk_max_col) max_col_index = std::max(max_col_index, m);

  // --- 2. Drop resolution (§4.3 skip records / column-count policy). ---
  state->record_dropped.assign(num_records, 0);
  int64_t dropped_count = 0;
  if (options.exclude_trailing_record && state->has_trailing_record &&
      num_records > 0) {
    // Streaming carry-over (§4.4): the unterminated trailing record belongs
    // to the next partition.
    state->record_dropped[num_records - 1] = 1;
    ++dropped_count;
  }
  for (int64_t idx : options.skip_records) {
    if (idx >= 0 && idx < num_records && !state->record_dropped[idx]) {
      state->record_dropped[idx] = 1;
      ++dropped_count;
    }
  }
  state->record_column_mismatch.clear();
  state->expected_columns = 0;
  if (options.column_count_policy != ColumnCountPolicy::kRobust &&
      num_records > 0) {
    uint32_t expected = options.schema.num_fields() > 0
                            ? static_cast<uint32_t>(options.schema.num_fields())
                            : 0;
    if (expected == 0) {
      // No schema: expect the maximum observed count among non-skipped
      // records (the inferred number of columns, §4.3).
      for (int64_t r = 0; r < num_records; ++r) {
        if (!state->record_dropped[r]) {
          expected = std::max(expected, state->record_column_counts[r]);
        }
      }
    }
    state->expected_columns = expected;
    // Under quarantine, kReject keeps mismatched records — as rejected rows
    // with byte spans — so ReparseQuarantined() can repair them; dropping
    // them would lose the bytes a repair needs.
    const bool keep_for_quarantine =
        options.column_count_policy == ColumnCountPolicy::kReject &&
        options.error_policy == robust::ErrorPolicy::kQuarantine;
    if (keep_for_quarantine) {
      state->record_column_mismatch.assign(num_records, 0);
    }
    for (int64_t r = 0; r < num_records; ++r) {
      if (state->record_dropped[r]) continue;
      if (state->record_column_counts[r] != expected) {
        if (options.column_count_policy == ColumnCountPolicy::kValidate) {
          return Status::ParseError(
              "record " + std::to_string(r) + " has " +
              std::to_string(state->record_column_counts[r]) +
              " columns, expected " + std::to_string(expected));
        }
        if (keep_for_quarantine) {
          state->record_column_mismatch[r] = 1;
        } else {
          state->record_dropped[r] = 1;
          ++dropped_count;
        }
      }
    }
  }

  // Kept-record -> output-row mapping and min/max over kept records.
  state->out_row_of_record.assign(num_records, 0);
  int64_t out_row = 0;
  uint32_t min_cols = 0;
  uint32_t max_cols = 0;
  bool any_kept = false;
  for (int64_t r = 0; r < num_records; ++r) {
    state->out_row_of_record[r] = out_row;
    if (!state->record_dropped[r]) {
      ++out_row;
      const uint32_t count = state->record_column_counts[r];
      min_cols = any_kept ? std::min(min_cols, count) : count;
      max_cols = any_kept ? std::max(max_cols, count) : count;
      any_kept = true;
    }
  }
  state->num_out_rows = out_row;
  state->min_columns = min_cols;
  state->max_columns = max_cols;
  (void)dropped_count;

  state->transpose_mode = EffectiveTransposeMode(options);
  if (state->transpose_mode == TransposeMode::kFieldGather) {
    GatherSizes sizes;
    PARPARAW_RETURN_NOT_OK(SizeGatherFields(*state, &sizes));
    timings->tag_ms += count.Stop() * 1e3;
    PARPARAW_RETURN_NOT_OK(RunFieldGatherTag(state, timings, skip_lookup,
                                             max_col_index, sizes));
    span.set_bytes(static_cast<int64_t>(state->gather_extents.size() *
                                        sizeof(FieldExtent)));
    return Status::OK();
  }
  state->gather_extents.clear();
  state->gather_entries.clear();
  state->gather_entry_offsets.clear();

  // --- 3. Sizing pass + exclusive prefix sum. ---
  std::vector<int64_t> chunk_emit(num_chunks, 0);
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
        int64_t count = 0;
        ForEachEmission(*state, skip_lookup, c,
                        [&](uint8_t, uint32_t, int64_t, bool) { ++count; });
        chunk_emit[c] = count;
      }));
  timings->tag_ms += count.Stop() * 1e3;

  obs::TraceSpan scan = StepProbe(*state, "step.tag.scan", "step.tag.scan_us");
  std::vector<int64_t> chunk_write_offsets(num_chunks, 0);
  const int64_t total_slots = ExclusivePrefixSum(
      state->pool, chunk_emit.data(), chunk_write_offsets.data(), num_chunks);
  timings->scan_ms += scan.Stop() * 1e3;

  // --- 4. Write pass. ---
  obs::TraceSpan write =
      StepProbe(*state, "step.tag.write", "step.tag.write_us");
  const TaggingMode mode = options.tagging_mode;
  PARPARAW_RETURN_NOT_OK(
      robust::GuardedResize("alloc.tag", &state->css, total_slots));
  PARPARAW_RETURN_NOT_OK(robust::GuardedAssign("alloc.tag", &state->col_tags,
                                               total_slots, uint32_t{0}));
  if (mode == TaggingMode::kRecordTags) {
    PARPARAW_RETURN_NOT_OK(robust::GuardedAssign("alloc.tag", &state->rec_tags,
                                                 total_slots, uint32_t{0}));
  } else {
    state->rec_tags.clear();
  }
  if (mode == TaggingMode::kVectorDelimited) {
    PARPARAW_RETURN_NOT_OK(robust::GuardedAssign(
        "alloc.tag", &state->field_end, total_slots, uint8_t{0}));
  } else {
    state->field_end.clear();
  }
  std::atomic<bool> terminator_collision{false};
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
        int64_t out = chunk_write_offsets[c];
        ForEachEmission(
            *state, skip_lookup, c,
            [&](uint8_t symbol, uint32_t col, int64_t rec, bool is_field_end) {
              uint8_t stored = symbol;
              if (mode == TaggingMode::kInlineTerminated) {
                if (is_field_end) {
                  stored = options.terminator;
                } else if (symbol == options.terminator) {
                  terminator_collision.store(true, std::memory_order_relaxed);
                }
              }
              state->css[out] = stored;
              state->col_tags[out] = col;
              if (mode == TaggingMode::kRecordTags) {
                state->rec_tags[out] =
                    static_cast<uint32_t>(state->out_row_of_record[rec]);
              } else if (mode == TaggingMode::kVectorDelimited) {
                state->field_end[out] = is_field_end ? 1 : 0;
              }
              ++out;
            });
      }));
  if (terminator_collision.load()) {
    return Status::ParseError(
        "terminator byte occurs in field data; use the vector-delimited or "
        "record-tag mode");
  }

  state->num_partitions =
      total_slots > 0 ? max_col_index + 1 : 0;
  timings->tag_ms += write.Stop() * 1e3;
  span.set_bytes(static_cast<int64_t>(state->css.size()));
  return Status::OK();
}

}  // namespace parparaw
