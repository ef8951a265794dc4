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

// --- 1. Count pass: every record's column count (its field bits by
// popcount between record bits, + 1) and the maximum column index, one mask
// word at a time. A record tagging more than max_record_columns columns
// fails the parse: every per-column table downstream (skip lookup, sort
// histogram, CSS offsets) is sized by the maximum column index + 1, so an
// adversarial delimiter-dense row must not be allowed to size them
// unbounded (or to march the uint32 column counter toward overflow). Each
// chunk records its first violation; the earliest record wins. With
// `carries` (the field gather), the pass also finds each chunk's last field
// end and the value bytes after it, and a serial O(chunks) chain turns them
// into every chunk's open-field carries (open_field_begin /
// open_field_length), which ForEachField starts from. None of it depends on
// the drops or the skip sets.
Status CountColumns(PipelineState* state, bool carries) {
  const int64_t num_chunks = state->num_chunks;
  const uint32_t column_limit = state->options->max_record_columns;
  state->record_column_counts.assign(state->num_records, 0);
  std::vector<uint32_t> chunk_max_col(num_chunks, 0);
  std::vector<int64_t> chunk_violation_rec(num_chunks, -1);
  std::vector<int64_t> chunk_violation_pos(num_chunks, -1);
  std::vector<int64_t> last_end(carries ? num_chunks : 0, -1);
  std::vector<int64_t> tail(carries ? num_chunks : 0, 0);
  const simd::SymbolMasks* index = state->symbol_index.data();
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
    const ChunkRange range = ChunkRangeOf(*state, c);
    uint32_t col = state->entry_columns[c];
    int64_t rec = state->record_offsets[c];
    uint32_t max_col = col;
    int64_t chunk_last_end = -1;
    int64_t chunk_tail = 0;
    // The record's field bits `fields` of word w: each moves it one
    // column on, and the one that reaches the limit is the violation.
    const auto add_fields = [&](size_t w, uint64_t fields) {
      const uint32_t n = static_cast<uint32_t>(std::popcount(fields));
      if (n != 0 && chunk_violation_rec[c] < 0 &&
          uint64_t{col} + n >= column_limit) {
        const uint32_t k = col >= column_limit ? 0 : column_limit - col - 1;
        chunk_violation_rec[c] = rec;
        chunk_violation_pos[c] = static_cast<int64_t>(
            64 * w + SelectBit(fields, static_cast<int>(k)));
      }
      col += n;
    };
    simd::ForEachMaskWord(range.begin, range.end,
                          [&](size_t w, uint64_t keep) {
      const simd::SymbolMasks& m = index[w];
      uint64_t fields = m.field & keep;
      for (uint64_t records = m.record & keep; records != 0;
           records &= records - 1) {
        // The lowest record bit and the bits below it.
        const uint64_t upto = records ^ (records - 1);
        add_fields(w, fields & (upto >> 1));
        fields &= ~upto;
        state->record_column_counts[rec] = col + 1;
        max_col = std::max(max_col, col);
        ++rec;
        col = 0;
      }
      add_fields(w, fields);
      if (carries) {
        // Value bytes: set in none of the three masks. An inclusive
        // boundary belongs to the field it ends, never to the open tail.
        uint64_t values = ~(m.record | m.field | m.control) & keep;
        const uint64_t ends = (m.record | m.field) & keep;
        if (ends != 0) {
          const unsigned last =
              63u - static_cast<unsigned>(std::countl_zero(ends));
          chunk_last_end = static_cast<int64_t>(64 * w + last);
          chunk_tail = 0;
          values &= ~simd::BitRange(0, last + 1);
        }
        chunk_tail += std::popcount(values);
      }
    });
    if (c == num_chunks - 1 && state->has_trailing_record) {
      state->record_column_counts[rec] = col + 1;
    }
    chunk_max_col[c] = std::max(max_col, col);
    if (carries) {
      last_end[c] = chunk_last_end;
      tail[c] = chunk_tail;
    }
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
  state->max_column_index = 0;
  for (uint32_t m : chunk_max_col) {
    state->max_column_index = std::max(state->max_column_index, m);
  }
  if (!carries) return Status::OK();

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
    } else if (last_end[c - 1] >= 0) {
      state->open_field_begin[c] = last_end[c - 1] + 1;
      state->open_field_length[c] = tail[c - 1];
    } else {
      state->open_field_begin[c] = state->open_field_begin[c - 1];
      state->open_field_length[c] =
          state->open_field_length[c - 1] + tail[c - 1];
    }
  }
  return Status::OK();
}

// --- 2. Drop resolution (§4.3 skip records / column-count policy), then
// the kept-record scan: per-record drop flags, the output row of each kept
// record, and min/max columns over the kept records.
Status ResolveDrops(PipelineState* state) {
  const ParseOptions& options = *state->options;
  const int64_t num_records = state->num_records;
  state->record_dropped.assign(num_records, 0);
  if (options.exclude_trailing_record && state->has_trailing_record &&
      num_records > 0) {
    // Streaming carry-over (§4.4): the unterminated trailing record belongs
    // to the next partition.
    state->record_dropped[num_records - 1] = 1;
  }
  for (int64_t idx : options.skip_records) {
    if (idx >= 0 && idx < num_records) state->record_dropped[idx] = 1;
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
    // with byte spans — so a caller can repair them; dropping them would
    // lose the bytes a repair needs.
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
  state->column_plans = SelectColumns(*state);
  return Status::OK();
}

// Whether some kept field takes a slot in the symbol sort's CSS — a value
// byte or, in the inline and vector modes, its terminator slot — which is
// what a non-zero num_partitions means in both modes. Any kept field will
// do in those modes, which the column counts answer; the record-tag mode
// needs a value byte, and the walk stops at the first chunk that holds one.
bool AnyKeptSlot(const PipelineState& state, const KeptFields& kept) {
  const uint32_t first_kept_column = kept.columns().Next(0);
  bool any_field = false;
  for (int64_t r = 0; r < state.num_records && !any_field; ++r) {
    any_field = kept.record_kept(r) &&
                state.record_column_counts[r] > first_kept_column;
  }
  if (!any_field ||
      state.options->tagging_mode != TaggingMode::kRecordTags) {
    return any_field;
  }
  bool any_value = false;
  for (int64_t c = 0; c < state.num_chunks && !any_value; ++c) {
    ForEachField(
        state, c, kept.columns(),
        [&](const FieldSpan& field) {
          any_value |= field.length > 0 && kept.record_kept(field.record);
        },
        [](int64_t, uint32_t) {});
  }
  return any_value;
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
// per-symbol tag sideband for the radix sort, walk the fields (ForEachField)
// and tally the bytes each tile's rows take in each string column, defaults
// included; without a schema, also join each tile's inferred kinds per
// column, so every column type is known before the partition step
// allocates it. The tallies are all that step needs to place each value: it
// walks the same tiles again and writes the columns. Nothing is stored per
// field. The walk asks for the string columns alone, or for every kept
// column where it must see every field: the inline-terminated mode's
// terminator check. (Without a schema every column is a string, so type
// inference sees every kept field.) `count` is false when `state` holds the
// count pass of an earlier run over the same indexes.
Status RunFieldGatherTag(PipelineState* state, StepTimings* timings,
                         bool count) {
  const ParseOptions& options = *state->options;
  const int64_t num_chunks = state->num_chunks;
  const TaggingMode mode = options.tagging_mode;
  if (count) {
    obs::TraceSpan probe =
        StepProbe(*state, "step.tag.count", "step.tag.count_us");
    PARPARAW_RETURN_NOT_OK(CountColumns(state, /*carries=*/true));
    timings->tag_ms += probe.Stop() * 1e3;
  }

  obs::TraceSpan scan = StepProbe(*state, "step.tag.scan", "step.tag.scan_us");
  PARPARAW_RETURN_NOT_OK(ResolveDrops(state));
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

  // --- 3. Tally walk. ---
  obs::TraceSpan write =
      StepProbe(*state, "step.tag.write", "step.tag.write_us");
  const KeptFields kept(*state);
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
  std::atomic<bool> terminator_collision{false};
  const bool check_terminator = mode == TaggingMode::kInlineTerminated;
  const WantedColumns wanted =
      check_terminator
          ? kept.columns()
          : WantedColumns::OfPlans(
                plans, [](const ColumnPlan& plan) { return plan.is_string(); });
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_tiles, [&](int64_t t) {
        int64_t* tally = state->gather_tallies.data() + t * num_plans;
        InferredKind* kind = infer ? kinds.data() + t * num_plans : nullptr;
        bool collision = false;
        std::string scratch;
        // The columns a short record lacks take their defaults' bytes.
        const auto add_missing = [&](int64_t record, uint32_t last_column) {
          if (!any_missing_bytes || !kept.record_kept(record)) return;
          for (size_t q = plan_index.After(last_column); q < plans.size();
               ++q) {
            tally[q] += missing_bytes[q];
          }
        };
        for (int64_t c = state->gather_tiles[t];
             c < state->gather_tiles[t + 1]; ++c) {
          ForEachField(
              *state, c, wanted,
              [&](const FieldSpan& field) {
                if (!kept.record_kept(field.record)) return;
                if (check_terminator && !collision) {
                  collision =
                      HoldsTerminator(*state, field, options.terminator);
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
                if (field.record_end) add_missing(field.record, field.column);
              },
              add_missing);
        }
        if (collision) {
          terminator_collision.store(true, std::memory_order_relaxed);
        }
      }));
  if (terminator_collision.load()) {
    return Status::ParseError(
        "terminator byte occurs in field data; use the vector-delimited or "
        "record-tag mode");
  }

  state->num_partitions =
      AnyKeptSlot(*state, kept) ? state->max_column_index + 1 : 0;
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

// The tag step; `count` is false when `state` holds the count pass of an
// earlier run over the same bitmap indexes.
Status RunTagStep(PipelineState* state, StepTimings* timings, bool count) {
  obs::TraceSpan span(state->options->tracer, "step.tag", "pipeline",
                      static_cast<int64_t>(state->size));
  const ParseOptions& options = *state->options;
  const int64_t num_chunks = state->num_chunks;
  state->transpose_mode = options.transpose_mode;
  if (state->transpose_mode == TransposeMode::kFieldGather) {
    PARPARAW_RETURN_NOT_OK(RunFieldGatherTag(state, timings, count));
    span.set_bytes(static_cast<int64_t>(state->gather_tallies.size() *
                                        sizeof(int64_t)));
    return Status::OK();
  }
  state->gather_tallies.clear();
  state->gathered_columns.clear();
  state->gather_rejects.clear();

  // The symbol sort's counting phase: the count pass, drop resolution and
  // the sizing pass.
  obs::TraceSpan counting =
      StepProbe(*state, "step.tag.count", "step.tag.count_us");
  if (count) {
    PARPARAW_RETURN_NOT_OK(CountColumns(state, /*carries=*/false));
  }
  PARPARAW_RETURN_NOT_OK(ResolveDrops(state));
  const KeptFields kept(*state);

  // --- 3. Sizing pass + exclusive prefix sum. ---
  std::vector<int64_t> chunk_emit(num_chunks, 0);
  PARPARAW_RETURN_NOT_OK(
      ParallelForEach(state->pool, 0, num_chunks, [&](int64_t c) {
        int64_t emitted = 0;
        ForEachEmission(*state, kept, c,
                        [&](uint8_t, uint32_t, int64_t, bool) { ++emitted; });
        chunk_emit[c] = emitted;
      }));
  timings->tag_ms += counting.Stop() * 1e3;

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
      total_slots > 0 ? state->max_column_index + 1 : 0;
  PARPARAW_RETURN_NOT_OK(CheckColumnPlans(*state, &state->column_plans));
  timings->tag_ms += write.Stop() * 1e3;
  span.set_bytes(static_cast<int64_t>(state->css.size()));
  return Status::OK();
}

}  // namespace

Status TagStep::Run(PipelineState* state, StepTimings* timings) {
  return RunTagStep(state, timings, /*count=*/true);
}

Status TagStep::RunAgain(PipelineState* state, StepTimings* timings) {
  return RunTagStep(state, timings, /*count=*/false);
}

}  // namespace parparaw
