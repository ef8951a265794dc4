#include "core/tag_step.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <string>

#include "convert/inference.h"
#include "core/column_plan.h"
#include "core/field_walk.h"
#include "obs/obs.h"
#include "parallel/scan.h"
#include "robust/resource_guard.h"

namespace parparaw {

namespace {

// Walks chunk `c` over the bitmap indexes and invokes
// `emit(symbol, col, rec, is_field_end)` for every kept CSS slot: field
// data always; one terminator slot per field end in the inline/vector
// modes. The kept-field predicate is applied here so the sizing and write
// passes stay in exact agreement.
template <typename Emit>
void ForEachEmission(const PipelineState& state, const KeptFields& kept,
                     int64_t c, Emit&& emit) {
  const ParseOptions& options = *state.options;
  const bool slot_per_field =
      options.tagging_mode != TaggingMode::kRecordTags;
  const ChunkRange range = ChunkRangeOf(state, c);
  const simd::SymbolMasks* index = state.symbol_index.data();
  uint32_t col = state.entry_columns[c];
  int64_t rec = state.record_offsets[c];
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
        if (slot_per_field && kept(rec, col)) {
          emit(symbol, col, rec, true);
        }
        ++rec;
        col = 0;
      } else if ((m.field >> b) & 1) {
        const bool is_kept = kept(rec, col);
        // An inclusive boundary (no control bit, see SymbolFlags) is the
        // field's last *value* byte as well as its end.
        if (is_kept && ((m.control >> b) & 1) == 0) {
          emit(symbol, col, rec, false);
        }
        if (slot_per_field && is_kept) {
          emit(symbol, col, rec, true);
        }
        ++col;
      } else if (kept(rec, col)) {
        emit(symbol, col, rec, false);
      }
    }
  });
  // The last chunk terminates a trailing unterminated record (§3: the
  // record and its final field end at end-of-input).
  if (slot_per_field && c == state.num_chunks - 1 &&
      state.has_trailing_record && kept(rec, col)) {
    emit(options.format.record_delimiter, col, rec, true);
  }
}

// Per-chunk output of the field-gather sizing pass.
struct GatherSizes {
  std::vector<int64_t> last_end;   // the chunk's last field end, or -1
  std::vector<int64_t> tail_data;  // value bytes after it
};

// --- 3. Field-gather sizing pass: each chunk's last field end and the
// open-field value bytes after it (part of the tag step's count phase), by
// popcount over the masks.
Status SizeGatherFields(const PipelineState& state, GatherSizes* sizes) {
  const int64_t num_chunks = state.num_chunks;
  sizes->last_end.assign(num_chunks, -1);
  sizes->tail_data.assign(num_chunks, 0);
  const simd::SymbolMasks* index = state.symbol_index.data();
  return ParallelForEach(state.pool, 0, num_chunks, [&](int64_t c) {
    const ChunkRange range = ChunkRangeOf(state, c);
    int64_t last_end = -1;
    int64_t tail = 0;
    simd::ForEachMaskWord(range.begin, range.end,
                          [&](size_t w, uint64_t keep) {
      const simd::SymbolMasks& m = index[w];
      const uint64_t ends = (m.record | m.field) & keep;
      // Value bytes: set in none of the three masks. An inclusive boundary
      // belongs to the field it ends, never to the open tail.
      uint64_t values = ~(m.record | m.field | m.control) & keep;
      if (ends != 0) {
        const unsigned last =
            63u - static_cast<unsigned>(std::countl_zero(ends));
        last_end = static_cast<int64_t>(64 * w + last);
        tail = 0;
        values &= ~simd::BitRange(0, last + 1);
      }
      tail += std::popcount(values);
    });
    sizes->last_end[c] = last_end;
    sizes->tail_data[c] = tail;
  });
}

// True when a terminator byte is one of `field`'s value bytes, which the
// inline-terminated mode cannot store: a byte of its window without a
// control bit.
bool HoldsTerminator(const PipelineState& state, const FieldSpan& field,
                     uint8_t terminator) {
  const uint8_t* data = state.data;
  const int64_t end = field.end + (field.inclusive ? 1 : 0);
  for (int64_t i = field.begin; i < end; ++i) {
    const void* hit = std::memchr(data + i, terminator,
                                  static_cast<size_t>(end - i));
    if (hit == nullptr) return false;
    i = static_cast<const uint8_t*>(hit) - data;
    if (((state.symbol_index[i >> 6].control >> (i & 63)) & 1) == 0) {
      return true;
    }
  }
  return false;
}

// Field-gather transposition (TransposeMode::kFieldGather): instead of a
// per-symbol tag sideband for the radix sort, walk every field once
// (ForEachField) and tally the bytes each tile's rows take in each string
// column, defaults included; without a schema, also join each tile's
// inferred kinds per column, so every column type is known before the
// partition step allocates it. The tallies are all that step needs to place
// each value: it walks the same tiles again and writes the columns. Nothing
// is stored per field.
Status RunFieldGatherTag(PipelineState* state, StepTimings* timings,
                         const KeptFields& kept, uint32_t max_col_index,
                         const GatherSizes& sizes) {
  const ParseOptions& options = *state->options;
  const int64_t num_chunks = state->num_chunks;
  const TaggingMode mode = options.tagging_mode;
  const int64_t slot = mode != TaggingMode::kRecordTags ? 1 : 0;

  obs::TraceSpan scan = StepProbe(*state, "step.tag.scan", "step.tag.scan_us");
  // The carries of the field open at each chunk's start: a chunk with a
  // field end opens a new field one past its last end; a chunk without
  // one passes its predecessor's open field on, grown by its value bytes.
  state->open_field_begin.resize(num_chunks);
  state->open_field_length.resize(num_chunks);
  for (int64_t c = 0; c < num_chunks; ++c) {
    if (c == 0) {
      state->open_field_begin[c] =
          static_cast<int64_t>(ChunkRangeOf(*state, 0).begin);
      state->open_field_length[c] = 0;
    } else if (sizes.last_end[c - 1] >= 0) {
      state->open_field_begin[c] = sizes.last_end[c - 1] + 1;
      state->open_field_length[c] = sizes.tail_data[c - 1];
    } else {
      state->open_field_begin[c] = state->open_field_begin[c - 1];
      state->open_field_length[c] =
          state->open_field_length[c - 1] + sizes.tail_data[c - 1];
    }
  }
  // As many tiles as ParallelFor cuts morsels (two per runner, the caller
  // included), so each tile is one morsel.
  const int64_t runners =
      state->pool != nullptr ? state->pool->num_threads() + 1 : 1;
  const int64_t num_tiles =
      std::max<int64_t>(1, std::min<int64_t>(2 * runners, num_chunks));
  state->gather_tiles.resize(num_tiles + 1);
  for (int64_t t = 0; t <= num_tiles; ++t) {
    state->gather_tiles[t] = t * num_chunks / num_tiles;
  }
  timings->scan_ms += scan.Stop() * 1e3;

  // --- 4. Tally walk. ---
  obs::TraceSpan write =
      StepProbe(*state, "step.tag.write", "step.tag.write_us");
  std::vector<ColumnPlan>& plans = state->column_plans;
  const int64_t num_plans = static_cast<int64_t>(plans.size());
  const PlanIndex plan_index(plans);
  PARPARAW_RETURN_NOT_OK(robust::GuardedAssign(
      "alloc.gather", &state->gather_tallies,
      static_cast<size_t>(num_tiles * num_plans), int64_t{0}));
  const bool infer = options.schema.num_fields() == 0 && options.infer_types;
  std::vector<InferredKind> kinds(
      infer ? static_cast<size_t>(num_tiles * num_plans) : 0,
      InferredKind::kEmpty);
  // The bytes a missing field takes per string column: its default's.
  std::vector<int64_t> missing_bytes(plans.size(), 0);
  bool any_missing_bytes = false;
  for (size_t p = 0; p < plans.size(); ++p) {
    if (!plans[p].is_string()) continue;
    missing_bytes[p] = StringLength(plans[p], FieldPresence::kMissing, 0);
    any_missing_bytes |= missing_bytes[p] > 0;
  }
  std::vector<int64_t> tile_slots(num_tiles, 0);
  std::atomic<bool> terminator_collision{false};
  const bool check_terminator = mode == TaggingMode::kInlineTerminated;
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_tiles, [&](int64_t t) {
        int64_t* tally = state->gather_tallies.data() + t * num_plans;
        InferredKind* kind = infer ? kinds.data() + t * num_plans : nullptr;
        int64_t slots = 0;
        bool collision = false;
        std::string scratch;
        for (int64_t c = state->gather_tiles[t];
             c < state->gather_tiles[t + 1]; ++c) {
          ForEachField(*state, c, [&](const FieldSpan& field) {
            if (!kept.record_kept(field.record)) return;
            if (kept.column_kept(field.column)) {
              slots += field.length + slot;
              if (check_terminator && !collision) {
                collision = HoldsTerminator(*state, field, options.terminator);
              }
              const int32_t p = plan_index.Of(field.column);
              if (p >= 0 && plans[p].is_string()) {
                const FieldPresence presence = field.length > 0
                                                   ? FieldPresence::kValue
                                                   : FieldPresence::kEmpty;
                tally[p] += StringLength(plans[p], presence, field.length);
                if (infer && field.length > 0) {
                  kind[p] = Join(kind[p], ClassifyField(FieldValue(
                                              *state, field, &scratch)));
                }
              }
            }
            // The columns a short record lacks take their defaults' bytes.
            if (field.record_end && any_missing_bytes) {
              for (size_t q = plan_index.After(field.column); q < plans.size();
                   ++q) {
                tally[q] += missing_bytes[q];
              }
            }
          });
        }
        tile_slots[t] = slots;
        if (collision) {
          terminator_collision.store(true, std::memory_order_relaxed);
        }
      }));
  if (terminator_collision.load()) {
    return Status::ParseError(
        "terminator byte occurs in field data; use the vector-delimited or "
        "record-tag mode");
  }

  // Kept slots decide num_partitions exactly as the symbol path's
  // total_slots does: value bytes, plus one terminator slot per kept field
  // end in the inline/vector modes.
  int64_t total_slots = 0;
  for (int64_t slots : tile_slots) total_slots += slots;
  state->num_partitions = total_slots > 0 ? max_col_index + 1 : 0;
  // Type inference (§4.3): each tile's lattice joins, reduced per column.
  if (infer) {
    for (int64_t p = 0; p < num_plans; ++p) {
      InferredKind joined = InferredKind::kEmpty;
      for (int64_t t = 0; t < num_tiles; ++t) {
        joined = Join(joined, kinds[t * num_plans + p]);
      }
      plans[p].field.type = KindToDataType(joined);
    }
  }
  PARPARAW_RETURN_NOT_OK(CheckColumnPlans(*state, &plans));

  // The symbol-path sidebands stay empty; the partition step writes the
  // columns straight from the input.
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

  const KeptFields kept(*state);
  state->column_plans = SelectColumns(*state);
  state->transpose_mode = options.transpose_mode;
  if (state->transpose_mode == TransposeMode::kFieldGather) {
    GatherSizes sizes;
    PARPARAW_RETURN_NOT_OK(SizeGatherFields(*state, &sizes));
    timings->tag_ms += count.Stop() * 1e3;
    PARPARAW_RETURN_NOT_OK(
        RunFieldGatherTag(state, timings, kept, max_col_index, sizes));
    span.set_bytes(static_cast<int64_t>(state->gather_tallies.size() *
                                        sizeof(int64_t)));
    return Status::OK();
  }
  state->gather_tallies.clear();
  state->gathered_columns.clear();
  state->gather_rejects.clear();

  // --- 3. Sizing pass + exclusive prefix sum. ---
  std::vector<int64_t> chunk_emit(num_chunks, 0);
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
        int64_t count = 0;
        ForEachEmission(*state, kept, c,
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
            *state, kept, c,
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
  PARPARAW_RETURN_NOT_OK(CheckColumnPlans(*state, &state->column_plans));
  timings->tag_ms += write.Stop() * 1e3;
  span.set_bytes(static_cast<int64_t>(state->css.size()));
  return Status::OK();
}

}  // namespace parparaw
