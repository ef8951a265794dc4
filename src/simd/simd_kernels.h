#ifndef PARPARAW_SIMD_SIMD_KERNELS_H_
#define PARPARAW_SIMD_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "dfa/dfa.h"
#include "dfa/state_vector.h"
#include "simd/dispatch.h"

namespace parparaw::simd {

/// Symbol groups including the trailing catch-all group.
inline constexpr int kMaxSymbolGroups = kMaxDfaSymbols + 1;

/// Most DFA states the fused kernel walks one by one when a chunk's lanes
/// have not converged (see ChunkKernelResult). A chunk whose lanes hold
/// more distinct live states keeps stepping all of them through the
/// |S|-lane vector and leaves its bitmap masks to the bitmap step.
inline constexpr int kMaxSpeculatedStates = 4;

/// \brief The symbol groups on which one DFA state's walk can take a whole
/// run of bytes at once.
///
/// A state s has a uniform run over a set P of special symbol groups when,
/// over every state reachable from s by reading P or catch-all bytes, each
/// such group's next state and flags are the same. The run's flags are then
/// a function of each byte's group alone, and its end state is s's
/// transition on its last byte, so the walk takes the run from the block's
/// group masks without a per-byte step. A state that self-loops on
/// catch-all input with zero flags is the simplest case (its run stops only
/// at the symbols that move it); RFC 4180's FLD has a run that stops only
/// at a quote, passing field and record delimiters through EOF and EOR.
/// Each field is a set of group indices, bit g for group g; the catch-all
/// group is always in the run.
struct UniformRun {
  /// Groups outside P: the walk steps these bytes one at a time.
  uint32_t stops = 0;
  /// Groups whose bytes set each mask inside the run.
  uint32_t record = 0;
  uint32_t field = 0;
  uint32_t control = 0;
  /// Groups whose bytes move the run into the DFA's invalid state.
  uint32_t invalid = 0;

  friend bool operator==(const UniformRun&, const UniformRun&) = default;
};

/// \brief Precomputed, DFA-derived lookup tables shared by every kernel
/// level for one parse.
///
/// The shuffle-as-gather layout: byte s of group_tables[g] holds
/// NextState(s, g), so one PSHUFB/TBL with the current 16-lane state vector
/// as the index operand advances *all* DFA instances by one symbol — the
/// vector realisation of the packed Table 1 row. The flat [state<<8|byte]
/// LUTs serve the single-state walks; group_of_byte is the DFA's byte
/// classification narrowed to one byte per entry.
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
  /// Symbols whose group is not the catch-all, ascending byte order, and
  /// the group of each.
  uint8_t special_symbols[kMaxDfaSymbols] = {};
  uint8_t special_groups[kMaxDfaSymbols] = {};
  /// byte value -> symbol group (Dfa::SymbolGroup).
  uint8_t group_of_byte[256] = {};
  /// Per-group shuffle tables: byte s = NextState(s, g).
  alignas(16) uint8_t group_tables[kMaxSymbolGroups][16] = {};
  /// catchall_pow[k]: the catch-all transition composed k times, 0 <= k <=
  /// 64, so one shuffle advances the lanes over a run of k data symbols.
  /// Every power is stored: the powers of a fixed-width DFA's catch-all
  /// row cycle with its record length and never settle.
  alignas(16) uint8_t catchall_pow[65][16] = {};
  /// Flat single-state LUTs indexed [state << 8 | byte].
  uint8_t next_flat[kMaxDfaStates * 256] = {};
  uint8_t flags_flat[kMaxDfaStates * 256] = {};
  /// uniform_run[s] indexes runs, or is -1 when s has none: data moves s
  /// to another state (RFC 4180's EOR, EOF and ESC, every state of a
  /// fixed-width layout), so it steps its byte through the flat LUTs.
  /// States with equal runs share one entry.
  int8_t uniform_run[kMaxDfaStates] = {};
  int num_runs = 0;
  UniformRun runs[kMaxDfaStates] = {};
};

/// Derives the plan from a built DFA within the register budget
/// (Dfa::fits_register_budget). Cheap (a few KB of table fills); the
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

/// Writes `bits` into the bits `own` of mask word `word`, leaving its other
/// bits to their owners: a std::atomic_ref compare-and-swap per mask (the
/// word-ownership rule at SymbolIndex, core/pipeline_state.h). Out of line
/// so the per-ISA kernels share one copy.
void MergeMaskWord(SymbolMasks* word, uint64_t own, const SymbolMasks& bits);

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
    if (own == ~uint64_t{0}) {
      masks_[word_] = SymbolMasks{record_, field_, control_};
    } else {
      MergeMaskWord(&masks_[word_], own,
                    SymbolMasks{record_, field_, control_});
    }
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
/// It first advances all |S| lanes, a run of data symbols per shuffle.
/// Lanes in the absorbing trap state are wildcards: their outcome is
/// fixed. Once the live lanes hold at most kMaxSpeculatedStates distinct
/// states (tested after each special symbol for one state, and at the end
/// of each 64-byte block for several), the kernel walks each distinct
/// state on its own from there, so the vector stays exact, and one of the
/// walks writes the symbol-class masks of the rest of the chunk:
///   - converged: one live state is left, so the suffix's masks are the
///     same for every entry that has not trapped;
///   - speculated: several are left (unquoted data under a quoting DFA,
///     where the lane that entered inside quotes never meets a quote). The
///     start lane's state writes the masks, or the first live state when
///     the start lane has trapped. A walk whose state traps is dropped, a
///     mask-writing walk included when another one is live: the survivor
///     writes from the start of that block. Walks that reach the same
///     state merge; when the mask-writing walk merges, the written region
///     restarts after that block from the merged state, which every live
///     entry shares.
/// spec_offset records where the written region starts (-1: no bits were
/// written); spec_state is the writing walk's state there, which the
/// bitmap step uses as its verification token. An entry whose true path
/// arrives in another state (a wrong guess, or a path that trapped
/// earlier) fails the token check and takes the exact re-walk.
struct ChunkKernelResult {
  StateVector vector;
  int64_t spec_offset = -1;
  uint8_t spec_state = 0;
  /// True when spec_offset was set while more than one live state was
  /// left: the token is a guess.
  bool speculated = false;
  /// Earliest in-chunk offset >= spec_offset whose transition enters the
  /// DFA's invalid state from a non-invalid state on the writing walk's
  /// path, or -1.
  int64_t first_invalid = -1;
};

/// Fused kernel signature: simulates [begin, end) of `data` and writes the
/// masks of [spec_offset, end) into masks_out (absolute indexing, under the
/// word-ownership rule at SymbolIndex). Bits before spec_offset are left to
/// the bitmap step. The kernels classify whole 64-byte blocks, so they may
/// read any byte of `data` before `begin`, but none at or past `end`.
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

/// Single-state flag walk signature: walks [begin, end) of `data` from
/// `entry_state`, writing the range's masks and counting record and field
/// delimiters. Like a chunk kernel, it may read any byte of `data` before
/// `begin`, but none at or past `end`.
using FlagWalkFn = FlagWalkResult (*)(const KernelPlan& plan,
                                      const uint8_t* data, size_t begin,
                                      size_t end, uint8_t entry_state,
                                      SymbolMasks* masks_out);

/// The walk for a level, classifying blocks with that level's compares.
/// kScalar and unavailable arch levels get the portable walk.
FlagWalkFn GetFlagWalk(KernelLevel level);

/// The portable single-state walk. Each 64-byte block is classified once
/// into a mask per symbol group; the state then takes each of its uniform
/// runs (UniformRun) from the masks in one step, and steps the bytes
/// between runs through the flat LUTs.
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

/// Per-level kernels and walks. The portable SWAR pair is defined in
/// simd_kernels.cc; the arch pairs only in their per-ISA translation units
/// (see src/CMakeLists.txt), reachable through GetChunkKernel/GetFlagWalk
/// after the runtime CPU check.
ChunkKernelResult ChunkKernelSwar(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out);
ChunkKernelResult ChunkKernelSse42(const KernelPlan& plan, const uint8_t* data,
                                   size_t begin, size_t end,
                                   SymbolMasks* masks_out);
ChunkKernelResult ChunkKernelAvx2(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out);
ChunkKernelResult ChunkKernelNeon(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out);
FlagWalkResult WalkEmitFlagsSse42(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  uint8_t entry_state, SymbolMasks* masks_out);
FlagWalkResult WalkEmitFlagsAvx2(const KernelPlan& plan, const uint8_t* data,
                                 size_t begin, size_t end, uint8_t entry_state,
                                 SymbolMasks* masks_out);
FlagWalkResult WalkEmitFlagsNeon(const KernelPlan& plan, const uint8_t* data,
                                 size_t begin, size_t end, uint8_t entry_state,
                                 SymbolMasks* masks_out);

}  // namespace internal

}  // namespace parparaw::simd

#endif  // PARPARAW_SIMD_SIMD_KERNELS_H_
