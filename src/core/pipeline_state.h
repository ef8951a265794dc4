#ifndef PARPARAW_CORE_PIPELINE_STATE_H_
#define PARPARAW_CORE_PIPELINE_STATE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "columnar/column.h"
#include "core/column_plan.h"
#include "core/options.h"
#include "dfa/state_vector.h"
#include "obs/trace.h"
#include "robust/resource_guard.h"
#include "simd/simd_kernels.h"
#include "text/unicode.h"
#include "util/huge_pages.h"

namespace parparaw {

/// \brief Allocator of the parse scratch buffers: its no-argument construct
/// leaves trivially copyable elements unwritten, so growing a buffer costs
/// no zero-fill pass over fresh memory.
///
/// The rule that makes this safe: every element of a scratch buffer is
/// written before any pass reads it (the passes are listed in
/// docs/architecture.md, "Memory traffic"; the symbol index's shared words
/// follow the word-ownership rule at SymbolIndex). Sanitizer builds fill
/// fresh storage with a non-zero poison byte instead, so an element some
/// pass forgot to write breaks the bit-identity tests rather than reading
/// as the zero a fresh page happens to hold.
///
/// An allocation of at least huge_pages::kHugePageBytes gets an anonymous
/// mapping of its own, 2 MiB-aligned and advised for huge pages before its
/// first write, and unmapped on free (util/huge_pages.h). glibc would serve
/// the 2–32 MiB ones from an arena once its mmap threshold has climbed,
/// and advice given to arena memory outlives the buffer. ASan builds keep
/// std::allocator for every size, so redzones guard every scratch buffer.
template <typename T>
struct ScratchAllocator {
  using value_type = T;

  ScratchAllocator() = default;
  template <typename U>
  ScratchAllocator(const ScratchAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    T* p = Mapped(n) ? static_cast<T*>(huge_pages::Map(n * sizeof(T)))
                     : std::allocator<T>().allocate(n);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::memset(static_cast<void*>(p), 0xA5, n * sizeof(T));
#endif
    return p;
  }
  void deallocate(T* p, size_t n) noexcept {
    if (Mapped(n)) {
      huge_pages::Unmap(p, n * sizeof(T));
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) != 0 || !std::is_trivially_copyable_v<U>) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }

  template <typename U>
  bool operator==(const ScratchAllocator<U>&) const noexcept {
    return true;
  }

 private:
  static bool Mapped(size_t n) {
#if defined(__SANITIZE_ADDRESS__)
    (void)n;
    return false;
#else
    return n * sizeof(T) >= huge_pages::kHugePageBytes;
#endif
  }
};

/// A parse scratch buffer (see ScratchAllocator).
template <typename T>
using ScratchVector = std::vector<T, ScratchAllocator<T>>;

/// Per-chunk column-offset contribution (§3.2, Fig. 4). `absolute` is true
/// when the chunk contains at least one record delimiter, in which case
/// `value` counts the field delimiters after the last record delimiter;
/// otherwise `value` is the chunk's total field-delimiter count, relative
/// to the preceding chunk's offset.
struct ColumnOffset {
  uint32_t value = 0;
  bool absolute = false;
};

/// The paper's associative column-offset operator ⊕:
///   a ⊕ b = b                     if b is absolute
///   a ⊕ b = {a.value + b.value, a.absolute}   if b is relative
/// Identity: {0, relative}.
inline ColumnOffset CombineColumnOffsets(const ColumnOffset& a,
                                         const ColumnOffset& b) {
  if (b.absolute) return b;
  return ColumnOffset{a.value + b.value, a.absolute};
}

/// A (row, column) the field gather's walk rejected: the convert step
/// merges them into reject_kind / reject_column in tile order.
struct RowReject {
  int64_t row = 0;
  int32_t column = 0;
  uint8_t kind = kNotRejected;
};

struct PipelineState;

/// The byte range [begin, end) one chunk parses.
struct ChunkRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Chunk c's byte range: c * chunk_size up to the next chunk's start, each
/// start moved to the next symbol boundary under UTF-8 (past at most three
/// continuation bytes). Every step walks the same ranges; the bytes before
/// chunk 0's begin belong to no chunk.
inline ChunkRange ChunkRangeOf(const PipelineState& state, int64_t c);

/// \brief The paper's three bitmap indexes (§3.1–3.2), one
/// simd::SymbolMasks per 64 input bytes: bit b of word w is byte 64w + b.
/// The context step's fused kernels and the bitmap step write it; the tag
/// and partition steps and StagedParse read it.
///
/// Word-ownership rule. Chunk edges are not word-aligned (7- or 31-byte
/// chunks, UTF-8-adjusted chunk starts), so neighbouring chunks share
/// words. Every bit has one owner: the chunk whose ChunkRangeOf holds the
/// byte, or AllocateSymbolIndex for the bits no chunk holds (the bytes
/// before chunk 0's begin and the padding past the input), which it writes
/// zero. Owners write through simd::MaskWriter or the kernels' block walks,
/// which store a word whole only when the writer's range covers all 64
/// bits, and otherwise update it with std::atomic_ref operations that clear
/// and set only the writer's bits (simd::MergeMaskWord). Hence:
///   - the edge word two neighbouring chunks write concurrently is merged
///     by both;
///   - the word holding a chunk's spec_offset gets its suffix bits from the
///     context step's kernel and its prefix bits from the bitmap step's
///     walk, each merged, never overwritten;
///   - the bitmap step's mis-speculation re-walk rewrites [spec_offset,
///     end) of its chunk, clearing the stale speculative bits of that range
///     and no others.
/// A chunk that reads its own bits while its neighbours may still be
/// writing theirs (simd::CountEmittedFlags, the bitmap step's popcount of a
/// verified suffix) loads the shared words through std::atomic_ref too.
/// Every bit is written before a later step reads it, so the index grows
/// without a zero-fill.
using SymbolIndex = ScratchVector<simd::SymbolMasks>;

/// \brief All intermediate state threaded through the pipeline steps.
///
/// Each step consumes fields produced by earlier steps and fills its own;
/// the facade (core/parser.h) owns one instance per parse. The struct is
/// exposed so tests and benchmarks can run and inspect steps in isolation.
struct PipelineState {
  // --- immutable inputs ---
  const uint8_t* data = nullptr;
  size_t size = 0;
  const ParseOptions* options = nullptr;
  ThreadPool* pool = nullptr;
  int64_t num_chunks = 0;

  // --- kernel selection (src/simd) ---
  /// Level resolved by the context step for this parse; kScalar means the
  /// reference pipeline ran and none of the fields below are populated.
  simd::KernelLevel kernel_level = simd::KernelLevel::kScalar;
  /// DFA-derived lookup tables shared by the context and bitmap steps.
  std::shared_ptr<const simd::KernelPlan> kernel_plan;
  /// Per-chunk absolute byte offset from which the fused kernel wrote the
  /// masks, its lanes converged or speculated (simd::ChunkKernelResult);
  /// -1 when it wrote none.
  std::vector<int64_t> spec_offsets;
  /// The writing walk's state at spec_offsets[c] — the bitmap step's
  /// verification token: its own walk must arrive there in exactly this
  /// state.
  std::vector<uint8_t> spec_states;
  /// Earliest invalid transition the fused kernel saw at/after
  /// spec_offsets[c], or -1.
  std::vector<int64_t> spec_invalids;

  // --- context step (§3.1) ---
  /// Per-chunk state-transition vectors (the "parse" bucket of Fig. 9);
  /// empty for a DFA over the register budget.
  std::vector<StateVector> transition_vectors;
  /// Per-chunk DFA entry state after the composite-operator scan (or the
  /// sequential walk of a DFA over the register budget).
  std::vector<int32_t> entry_states;
  /// DFA state after the whole input.
  int32_t final_state = 0;
  /// True when the input ends inside an unterminated record.
  bool has_trailing_record = false;

  // --- bitmap step (§3.1/§3.2) ---
  SymbolIndex symbol_index;
  /// Per-chunk number of record delimiters.
  std::vector<uint32_t> record_counts;
  /// Per-chunk column-offset contribution.
  std::vector<ColumnOffset> column_offsets;
  /// Global byte offset of the first invalid transition, or -1.
  int64_t first_invalid_offset = -1;

  // --- offset step (§3.2) ---
  /// Record index at each chunk's start (exclusive prefix sum).
  std::vector<int64_t> record_offsets;
  /// Column index at each chunk's start (exclusive ⊕-scan).
  std::vector<uint32_t> entry_columns;
  /// Total records, including a trailing unterminated one.
  int64_t num_records = 0;

  // --- count pass (tag step, §4.3) ---
  /// Per-record column count (field delimiters + 1).
  std::vector<uint32_t> record_column_counts;
  /// Per-record drop flag (reject policy or skip_records).
  std::vector<uint8_t> record_dropped;
  /// Output row of each kept record (exclusive prefix sum of keeps).
  std::vector<int64_t> out_row_of_record;
  int64_t num_out_rows = 0;
  uint32_t min_columns = 0;
  uint32_t max_columns = 0;
  /// Partitions for the radix sort: max observed column index + 1.
  uint32_t num_partitions = 0;
  /// Expected column count applied by kReject/kValidate (0 when the robust
  /// policy ran).
  uint32_t expected_columns = 0;
  /// Per-record wrong-column-count flag. Only filled under
  /// ErrorPolicy::kQuarantine + ColumnCountPolicy::kReject, where the
  /// mismatched records are *kept* (marked rejected, quarantined for
  /// repair) instead of dropped.
  std::vector<uint8_t> record_column_mismatch;
  /// The output columns (SelectColumns, checked by CheckColumnPlans), in
  /// source order. Type inference retypes them: the field gather's tag
  /// step, or the symbol sort's convert step.
  std::vector<ColumnPlan> column_plans;

  // --- error provenance (ErrorPolicy machinery; convert step + facade) ---
  /// Why output row r was rejected (RejectKind). First error per row wins.
  std::vector<uint8_t> reject_kind;
  /// Source column index of row r's first error; -1 for record-level
  /// problems.
  std::vector<int32_t> reject_column;

  // --- tag step outputs (§3.2/§4.1; TransposeMode::kSymbolSort) ---
  /// Concatenated kept symbols (field data; plus one terminator slot per
  /// field in the inline/vector modes).
  ScratchVector<uint8_t> css;
  /// Column tag per kept symbol.
  std::vector<uint32_t> col_tags;
  /// Record tag (output row) per kept symbol; filled in kRecordTags mode.
  std::vector<uint32_t> rec_tags;
  /// Field-end marker per kept symbol; filled in kVectorDelimited mode.
  std::vector<uint8_t> field_end;

  // --- partition step (§3.3; TransposeMode::kSymbolSort) ---
  /// Stable order after sorting by column tag.
  std::vector<uint32_t> permutation;
  /// Symbols per column (the sort's histogram, reused for CSS offsets).
  std::vector<uint64_t> column_histogram;
  /// Exclusive prefix sum of the histogram: each column's CSS offset.
  std::vector<int64_t> column_css_offsets;

  // --- field-gather transposition (TransposeMode::kFieldGather) ---
  /// The transpose mode the tag step recorded for this parse (the options'
  /// planned, concrete mode); the partition and convert steps follow it so
  /// a parse never mixes paths.
  TransposeMode transpose_mode = TransposeMode::kSymbolSort;
  /// Per chunk: the first byte of the field still open at the chunk's
  /// start, and the value bytes it holds before the chunk (the chunk's
  /// first field end closes them). The carries of ForEachField
  /// (core/field_walk.h).
  std::vector<int64_t> open_field_begin;
  std::vector<int64_t> open_field_length;
  /// The gather's tiles, contiguous chunk ranges: tile t holds chunks
  /// [gather_tiles[t], gather_tiles[t+1]). The tag step picks them, and the
  /// partition step walks the same ones, so its cursors line up with the
  /// tallies.
  std::vector<int64_t> gather_tiles;
  /// Tile-major tallies, one per (tile, column plan): the bytes the tile's
  /// rows take in a string column, defaults included, counted by the tag
  /// step's field walk and scanned in place into the partition step's
  /// write cursors (0 for fixed-width columns).
  std::vector<int64_t> gather_tallies;
  /// The output columns the partition step's walk writes, one per column
  /// plan; the convert step moves them into the table.
  std::vector<Column> gathered_columns;
  /// The rows each tile rejected, in walk order (RowReject).
  std::vector<std::vector<RowReject>> gather_rejects;
  /// Value bytes of the kept fields the walk read.
  int64_t gathered_value_bytes = 0;
};

inline ChunkRange ChunkRangeOf(const PipelineState& state, int64_t c) {
  const size_t chunk_size = state.options->chunk_size;
  const auto start = [&state](size_t pos) {
    pos = std::min(pos, state.size);
    if (state.options->encoding == TextEncoding::kUtf8) {
      return AdjustChunkBeginUtf8(state.data, state.size, pos);
    }
    return pos;
  };
  return ChunkRange{start(static_cast<size_t>(c) * chunk_size),
                    start(static_cast<size_t>(c + 1) * chunk_size)};
}

/// First / last byte in [begin, end) whose record bit is set in the
/// index; -1 when there is none.
inline int64_t FirstRecordDelimiter(const SymbolIndex& index, size_t begin,
                                    size_t end) {
  int64_t found = -1;
  simd::ForEachMaskWord(begin, end, [&](size_t w, uint64_t keep) {
    const uint64_t bits = index[w].record & keep;
    if (found < 0 && bits != 0) {
      found = static_cast<int64_t>(64 * w) + std::countr_zero(bits);
    }
  });
  return found;
}

inline int64_t LastRecordDelimiter(const SymbolIndex& index, size_t begin,
                                   size_t end) {
  int64_t found = -1;
  simd::ForEachMaskWord(begin, end, [&](size_t w, uint64_t keep) {
    const uint64_t bits = index[w].record & keep;
    if (bits != 0) {
      found = static_cast<int64_t>(64 * w) + 63 - std::countl_zero(bits);
    }
  });
  return found;
}

/// Sizes state->symbol_index for the input (checking the `failpoint`
/// allocation site) and writes the bits no chunk owns, per the
/// word-ownership rule at SymbolIndex.
inline Status AllocateSymbolIndex(PipelineState* state, const char* failpoint) {
  const size_t words = simd::MaskWordsFor(state->size);
  PARPARAW_RETURN_NOT_OK(
      robust::GuardedResize(failpoint, &state->symbol_index, words));
  simd::SymbolMasks* masks = state->symbol_index.data();
  simd::MaskWriter head(masks, 0, ChunkRangeOf(*state, 0).begin);
  head.Finish();
  simd::MaskWriter padding(masks, state->size, 64 * words);
  padding.Finish();
  return Status::OK();
}

/// The stage probe of one step phase: a "pipeline" span named `name` and a
/// `histogram` sample on the parse's sinks, timed for the phase's
/// StepTimings bucket (the mapping is listed at StepTimings).
inline obs::TraceSpan StepProbe(const PipelineState& state, const char* name,
                                const char* histogram, int64_t bytes = -1) {
  return obs::TraceSpan(state.options->tracer, name, "pipeline",
                        state.options->metrics, histogram,
                        obs::Timing::kTimed, bytes);
}

}  // namespace parparaw

#endif  // PARPARAW_CORE_PIPELINE_STATE_H_
