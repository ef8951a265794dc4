#ifndef PARPARAW_SIMD_SIMD_KERNELS_H_
#define PARPARAW_SIMD_SIMD_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "dfa/dfa.h"
#include "dfa/state_vector.h"
#include "simd/dispatch.h"

namespace parparaw::simd {

/// Registered (non-catch-all) symbols a DFA can have; bounded by the
/// DfaBuilder's 16-symbol limit.
inline constexpr int kMaxSpecialSymbols = 16;

/// Symbol groups including the trailing catch-all group.
inline constexpr int kMaxSymbolGroups = kMaxSpecialSymbols + 1;

/// \brief Precomputed, DFA-derived lookup tables shared by every kernel
/// level for one parse.
///
/// The shuffle-as-gather layout: byte s of group_tables[g] holds
/// NextState(s, g), so one PSHUFB/TBL with the current 16-lane state vector
/// as the index operand advances *all* DFA instances by one symbol — the
/// vector realisation of the packed Table 1 row. The flat [state<<8|byte]
/// LUTs serve the single-state (converged / bitmap) walks; group_of_byte is
/// the SwarMatcher's classification materialised per byte value so the hot
/// loops pay one L1 load instead of the register scan.
struct KernelPlan {
  int num_states = 0;
  int invalid_state = -1;
  /// The DFA's start state: the reference lane for the convergence test.
  int start_state = 0;
  /// invalid_state when it is absorbing (every group maps it to itself),
  /// else 0xFF (matches no lane). Lanes sitting in an absorbing trap can
  /// never re-merge with live lanes, so the convergence test treats them
  /// as wildcards: their final value is already decided.
  uint8_t trap_state = 0xFF;
  int catchall_group = 0;
  int num_specials = 0;
  /// Symbols whose group is not the catch-all, ascending byte order.
  uint8_t special_symbols[kMaxSpecialSymbols] = {};
  /// byte value -> symbol group (built via Dfa::SymbolGroup, i.e. the SWAR
  /// matcher of Table 2).
  uint8_t group_of_byte[256] = {};
  /// Per-group shuffle tables: byte s = NextState(s, g).
  alignas(16) uint8_t group_tables[kMaxSymbolGroups][16] = {};
  /// The catch-all transition composed with itself 16x / 32x: advances a
  /// whole vector block of data symbols with a single shuffle.
  alignas(16) uint8_t catchall_pow16[16] = {};
  alignas(16) uint8_t catchall_pow32[16] = {};
  /// Flat single-state LUTs indexed [state << 8 | byte].
  uint8_t next_flat[kMaxDfaStates * 256] = {};
  uint8_t flags_flat[kMaxDfaStates * 256] = {};
  /// state_skippable[s]: s self-loops on catch-all input with zero flags,
  /// so a block with no special symbols can be skipped outright while in s.
  bool state_skippable[kMaxDfaStates] = {};
};

/// Derives the plan from a built DFA. Cheap (a few KB of table fills); the
/// pipeline builds one per parse and shares it across chunks.
KernelPlan BuildKernelPlan(const Dfa& dfa);

/// \brief One 64-byte block of the paper's three bitmap indexes (§3.1–3.2):
/// bit b of each mask classifies input byte 64·w + b of block w. A byte set
/// in none of the three is a value byte; a field bit without a control bit
/// is an inclusive boundary (see SymbolFlags). How concurrent chunk writers
/// share a block is the word-ownership rule at SymbolIndex
/// (core/pipeline_state.h).
struct SymbolMasks {
  uint64_t record = 0;   ///< kSymbolRecordDelimiter
  uint64_t field = 0;    ///< kSymbolFieldDelimiter
  uint64_t control = 0;  ///< kSymbolControl

  friend bool operator==(const SymbolMasks&, const SymbolMasks&) = default;
};

/// Words of SymbolMasks covering `bytes` input bytes.
inline size_t MaskWordsFor(size_t bytes) { return (bytes + 63) / 64; }

/// Bits [lo, hi) of a word, 0 <= lo <= hi <= 64.
inline uint64_t BitRange(unsigned lo, unsigned hi) {
  const uint64_t below_hi = hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return below_hi & ~((uint64_t{1} << lo) - 1);
}

/// Calls fn(w, keep) for every mask word w overlapping the byte range
/// [begin, end), in increasing order; `keep` holds the word's bits that lie
/// inside the range.
template <typename Fn>
inline void ForEachMaskWord(size_t begin, size_t end, Fn&& fn) {
  if (begin >= end) return;
  const size_t first = begin >> 6;
  const size_t last = (end - 1) >> 6;
  for (size_t w = first; w <= last; ++w) {
    const unsigned lo = w == first ? static_cast<unsigned>(begin & 63) : 0;
    const unsigned hi =
        w == last ? static_cast<unsigned>(end - 64 * last) : 64;
    fn(w, BitRange(lo, hi));
  }
}

/// \brief Writes the symbol classes of one byte range [begin, end) into a
/// SymbolMasks array, following the word-ownership rule at SymbolIndex
/// (core/pipeline_state.h): words wholly inside the range are stored, the
/// edge words are merged through std::atomic_ref. Every bit of the range
/// is written, bytes never Set() as value bytes, so the array needs no
/// zero-fill beforehand.
class MaskWriter {
 public:
  MaskWriter(SymbolMasks* masks, size_t begin, size_t end)
      : masks_(masks), begin_(begin), end_(end), word_(begin >> 6) {}

  /// Records byte i's SymbolFlags. Calls come in increasing i inside
  /// [begin, end).
  void Set(size_t i, uint8_t flags) {
    if (flags == 0) return;  // a value byte: its bits stay zero
    const size_t w = i >> 6;
    if (w != word_) MoveTo(w);
    const uint64_t bit = uint64_t{1} << (i & 63);
    record_ |= (flags & kSymbolRecordDelimiter) != 0 ? bit : 0;
    field_ |= (flags & kSymbolFieldDelimiter) != 0 ? bit : 0;
    control_ |= (flags & kSymbolControl) != 0 ? bit : 0;
  }

  /// Writes every word of the range not written yet. Call exactly once.
  void Finish() {
    if (begin_ >= end_) return;
    const size_t last = (end_ - 1) >> 6;
    if (word_ != last) MoveTo(last);
    Flush();
  }

 private:
  static void Merge(uint64_t* word, uint64_t own, uint64_t bits) {
    std::atomic_ref<uint64_t> ref(*word);
    uint64_t old = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(old, (old & ~own) | bits,
                                      std::memory_order_relaxed)) {
    }
  }

  // Writes the current word, then stores the clean words before w whole
  // (every word strictly between two range words lies inside the range).
  void MoveTo(size_t w) {
    Flush();
    for (size_t k = word_ + 1; k < w; ++k) masks_[k] = SymbolMasks{};
    word_ = w;
    record_ = field_ = control_ = 0;
  }

  void Flush() {
    const size_t base = word_ * 64;
    const unsigned lo =
        begin_ > base ? static_cast<unsigned>(begin_ - base) : 0;
    const unsigned hi =
        end_ < base + 64 ? static_cast<unsigned>(end_ - base) : 64;
    const uint64_t own = BitRange(lo, hi);
    SymbolMasks& out = masks_[word_];
    if (own == ~uint64_t{0}) {
      out = SymbolMasks{record_, field_, control_};
      return;
    }
    Merge(&out.record, own, record_);
    Merge(&out.field, own, field_);
    Merge(&out.control, own, control_);
  }

  SymbolMasks* masks_;
  size_t begin_;
  size_t end_;
  size_t word_;
  uint64_t record_ = 0;
  uint64_t field_ = 0;
  uint64_t control_ = 0;
};

/// \brief Result of the fused context+bitmap kernel over one chunk.
///
/// The kernel always produces the chunk's exact state-transition vector.
/// Speculation: once every live lane of the vector holds the same state
/// (lanes in the absorbing trap state are wildcards — their outcome is
/// fixed), the chunk's suffix is entry-state-independent for every entry
/// that has not already trapped, so the kernel drops to single-state
/// simulation and writes the symbol-class masks of the remaining bytes in
/// the same pass. spec_offset records where that fused region starts (-1:
/// the lanes never converged and no bits were written); spec_state is the
/// converged state there, which the bitmap step uses as its verification
/// token — an entry whose true path trapped earlier arrives in the trap
/// state instead, fails the token check, and takes the exact re-walk.
struct ChunkKernelResult {
  StateVector vector;
  int64_t spec_offset = -1;
  uint8_t spec_state = 0;
  /// Earliest in-chunk offset >= spec_offset whose transition enters the
  /// DFA's invalid state from a non-invalid state, or -1.
  int64_t first_invalid = -1;
};

/// Fused kernel signature: simulates [begin, end) of `data` and, once the
/// lanes converge, writes the masks of [spec_offset, end) into masks_out
/// (absolute indexing, through a MaskWriter). Bits before the convergence
/// point are left to the bitmap step.
using ChunkKernelFn = ChunkKernelResult (*)(const KernelPlan& plan,
                                            const uint8_t* data, size_t begin,
                                            size_t end,
                                            SymbolMasks* masks_out);

/// The kernel for a level. kScalar has no fused kernel (the reference
/// pipeline path is used instead) and returns nullptr; unavailable arch
/// levels fall back to the portable SWAR kernel.
ChunkKernelFn GetChunkKernel(KernelLevel level);

/// \brief Summary of a single-state flag walk (the bitmap pass over one
/// chunk region): counts mirror the scalar BitmapStep exactly.
struct FlagWalkResult {
  uint8_t end_state = 0;
  uint32_t records = 0;
  uint32_t fields_since_record = 0;
  bool saw_record_delimiter = false;
  int64_t first_invalid = -1;
};

/// Walks [begin, end) from `entry_state` with the flat LUTs, writing the
/// range's masks and counting record/field delimiters. Skips runs of
/// non-special symbols in skippable states via SWAR word probes.
FlagWalkResult WalkEmitFlags(const KernelPlan& plan, const uint8_t* data,
                             size_t begin, size_t end, uint8_t entry_state,
                             SymbolMasks* masks_out);

/// Counts record/field delimiters from already-written masks over
/// [begin, end) (the verified speculative region) with popcounts. It runs
/// while neighbouring chunks still write their bits, so it loads the edge
/// words it shares with them through std::atomic_ref; end_state is not
/// meaningful in the result.
FlagWalkResult CountEmittedFlags(const SymbolMasks* masks, size_t begin,
                                 size_t end);

namespace internal {

/// Portable fallback kernel (no vector intrinsics).
ChunkKernelResult ChunkKernelSwar(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out);

/// Arch kernels; defined only in their per-ISA translation units (see
/// src/CMakeLists.txt) and only reachable through GetChunkKernel after the
/// runtime CPU check.
ChunkKernelResult ChunkKernelSse42(const KernelPlan& plan, const uint8_t* data,
                                   size_t begin, size_t end,
                                   SymbolMasks* masks_out);
ChunkKernelResult ChunkKernelAvx2(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out);
ChunkKernelResult ChunkKernelNeon(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out);

}  // namespace internal

}  // namespace parparaw::simd

#endif  // PARPARAW_SIMD_SIMD_KERNELS_H_
