#ifndef PARPARAW_SIMD_KERNEL_COMMON_H_
#define PARPARAW_SIMD_KERNEL_COMMON_H_

// The fused chunk kernel and the single-state flag walk, written once over
// two per-ISA pieces:
//
//   - a Classifier over the 64 bytes at p: Specials(p) has bit b set when
//     p[b] is any special symbol, Group(p, g) when it is one of group g's,
//     exactly;
//   - a LaneOps over the 16-lane state vector: Load/Store, Shuffle (lane i
//     becomes table[lane i], the shuffle-as-gather step) and Converged
//     (the trap-masked test of LanesConverged).
//
// Included only by the kernel translation units, each compiled with its
// own -m flags. Everything here has internal linkage, so no translation
// unit links another's ISA-specific copy of a helper.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/simd_kernels.h"

namespace parparaw::simd::internal {
namespace {

/// Initialises the 16 byte lanes of the multi-DFA state vector: lane i
/// starts in state i for i < num_states; surplus lanes shadow lane 0 so
/// that shuffle lookups stay in range and the full-register convergence
/// test is equivalent to one over the live lanes (a surplus lane always
/// mirrors lane 0's value exactly).
inline void InitIdentityLanes(const KernelPlan& plan, uint8_t lanes[16]) {
  for (int i = 0; i < 16; ++i) {
    lanes[i] = i < plan.num_states ? static_cast<uint8_t>(i) : 0;
  }
}

/// Builds the public StateVector from the first num_states lanes.
inline StateVector LanesToVector(const KernelPlan& plan,
                                 const uint8_t lanes[16]) {
  StateVector v = StateVector::Identity(plan.num_states);
  for (int i = 0; i < plan.num_states; ++i) v.Set(i, lanes[i]);
  return v;
}

/// Trap-masked convergence test: every live lane either equals the start
/// lane's value or sits in the absorbing trap state. The trap lanes'
/// futures are fixed (the trap absorbs), so the suffix outcome of every
/// non-trapped entry is decided by the one shared state. The start lane is
/// the reference; when it has itself trapped, convergence requires every
/// lane to have trapped.
inline bool LanesConverged(const KernelPlan& plan, const uint8_t lanes[16]) {
  const uint8_t ref = lanes[plan.start_state];
  for (int i = 0; i < plan.num_states; ++i) {
    if (lanes[i] != ref && lanes[i] != plan.trap_state) return false;
  }
  return true;
}

/// Adds one mask word's record and field bits to a walk summary. A record
/// bit outranks a field bit on the same byte, as in the scalar walk.
inline void CountMaskWord(uint64_t records, uint64_t fields,
                          FlagWalkResult* result) {
  fields &= ~records;
  if (records != 0) {
    result->records += static_cast<uint32_t>(std::popcount(records));
    result->saw_record_delimiter = true;
    result->fields_since_record = 0;
    // Only the field bits above the word's last record bit remain open.
    const int last = 63 - std::countl_zero(records);
    fields &= ~BitRange(0, static_cast<unsigned>(last) + 1);
  }
  result->fields_since_record += static_cast<uint32_t>(std::popcount(fields));
}

/// Writes a walk's bits of mask word w: whole when the walk owns all 64
/// bits, else merged (the word-ownership rule at SymbolIndex).
inline void StoreMaskWord(SymbolMasks* masks, size_t w, uint64_t own,
                          uint64_t record, uint64_t field, uint64_t control) {
  if (own == ~uint64_t{0}) {
    masks[w] = SymbolMasks{record, field, control};
  } else {
    MergeMaskWord(&masks[w], own, SymbolMasks{record, field, control});
  }
}

/// \brief One 64-byte block of input, classified on demand: byte b is
/// input byte 64w + b, and every mask is clear outside the caller's range
/// [lo, hi). A group's mask is computed the first time a walk asks for it,
/// so a walk whose state stops only at quotes compares the block against
/// the quote alone.
template <typename Classifier>
class Block {
 public:
  /// A uniform run's masks over this block.
  struct RunMasks {
    uint64_t stops, record, field, control, invalid;
  };

  Block(const KernelPlan& plan, const Classifier& classifier)
      : plan_(plan), classifier_(classifier) {}

  /// Points the block at word w's bytes [lo, hi) of `data`, whose bytes
  /// [0, 64w + hi) are readable. No byte past 64w + hi is read: a block
  /// cut short by the range is classified from the 64 bytes ending at
  /// 64w + hi (or, near the start of the data, from a copy) and its masks
  /// shifted into place.
  void Load(const uint8_t* data, size_t w, unsigned lo, unsigned hi) {
    const uint8_t* p = data + 64 * w;
    bytes_ = p;
    window_ = p;
    shift_ = 0;
    range_ = BitRange(lo, hi);
    if (hi != 64) {
      if (64 * w + hi >= 64) {
        window_ = p + hi - 64;
        shift_ = 64 - hi;
      } else {
        std::memset(scratch_, 0, sizeof(scratch_));
        std::memcpy(scratch_ + lo, p + lo, hi - lo);
        bytes_ = window_ = scratch_;
      }
    }
    groups_ready_ = 0;
    runs_ready_ = 0;
    specials_ready_ = false;
  }

  /// The block's bytes; only those in [lo, hi) may be read.
  const uint8_t* bytes() const { return bytes_; }

  /// Bytes of any special group (every group but the catch-all).
  uint64_t Specials() {
    if (!specials_ready_) {
      specials_ = (classifier_.Specials(window_) >> shift_) & range_;
      specials_ready_ = true;
    }
    return specials_;
  }

  uint64_t Group(int g) {
    if (g == plan_.catchall_group) return ~Specials() & range_;
    if ((groups_ready_ >> g & 1) == 0) {
      group_[g] = (classifier_.Group(window_, g) >> shift_) & range_;
      groups_ready_ |= uint32_t{1} << g;
    }
    return group_[g];
  }

  /// OR of the masks of the group set `groups` (bit g for group g).
  uint64_t Gather(uint32_t groups) {
    uint64_t m = 0;
    for (; groups != 0; groups &= groups - 1) {
      m |= Group(std::countr_zero(groups));
    }
    return m;
  }

  const RunMasks& Run(int r) {
    if ((runs_ready_ >> r & 1) == 0) {
      const UniformRun& u = plan_.runs[r];
      runs_[r] = RunMasks{Gather(u.stops), Gather(u.record), Gather(u.field),
                          Gather(u.control), Gather(u.invalid)};
      runs_ready_ |= uint32_t{1} << r;
    }
    return runs_[r];
  }

 private:
  const KernelPlan& plan_;
  const Classifier& classifier_;
  const uint8_t* bytes_ = nullptr;
  const uint8_t* window_ = nullptr;
  unsigned shift_ = 0;
  uint64_t range_ = 0;
  bool specials_ready_ = false;
  uint64_t specials_ = 0;
  // group_ and runs_ entries are read only after their ready bit is set,
  // so they are left unfilled: a chunk of a few bytes would spend more on
  // zeroing them than on its walk.
  uint32_t groups_ready_ = 0;
  uint64_t group_[kMaxSymbolGroups];
  uint32_t runs_ready_ = 0;
  RunMasks runs_[kMaxDfaStates];
  alignas(64) uint8_t scratch_[64] = {};
};

/// \brief One single-state walk: its state, the masks it set in the
/// current block, and its earliest entry into the invalid state.
struct Walk {
  uint8_t state;
  /// The state at the first byte the walk took in the current block.
  uint8_t block_entry;
  int64_t first_invalid;
  uint64_t record;
  uint64_t field;
  uint64_t control;

  static Walk From(uint8_t state) { return Walk{state, state, -1, 0, 0, 0}; }
};

/// Walks bytes [pos, hi) of a block (pos < hi). A state with a uniform run
/// takes the bytes up to its next stop in one step; every other byte goes
/// through the flat LUTs. With kMasks, sets the block's masks in `walk`
/// and tracks its first invalid transition; without, only moves its state.
template <bool kMasks, typename Classifier>
inline void WalkBlock(const KernelPlan& plan, Block<Classifier>* block,
                      size_t w, unsigned pos, unsigned hi, Walk* walk) {
  const uint8_t* p = block->bytes();
  uint8_t s = walk->state;
  walk->block_entry = s;
  uint64_t record = 0;
  uint64_t field = 0;
  uint64_t control = 0;
  while (pos < hi) {
    const int r = plan.uniform_run[s];
    if (r >= 0) {
      // A walk without masks needs only the run's stops.
      const typename Block<Classifier>::RunMasks* m =
          kMasks ? &block->Run(r) : nullptr;
      const uint64_t stops =
          (kMasks ? m->stops : block->Gather(plan.runs[r].stops)) &
          (~uint64_t{0} << pos);
      const unsigned stop =
          stops != 0 ? static_cast<unsigned>(std::countr_zero(stops)) : hi;
      if (stop > pos) {
        if constexpr (kMasks) {
          const uint64_t run = BitRange(pos, stop);
          record |= m->record & run;
          field |= m->field & run;
          control |= m->control & run;
          const uint64_t invalid = m->invalid & run;
          if (invalid != 0 && walk->first_invalid < 0) {
            // A byte enters the invalid state unless the byte before it
            // already left the walk there.
            uint64_t entering = invalid & ~(invalid << 1);
            if (s == plan.invalid_state) entering &= ~(uint64_t{1} << pos);
            if (entering != 0) {
              walk->first_invalid =
                  static_cast<int64_t>(64 * w) + std::countr_zero(entering);
            }
          }
        }
        s = plan.next_flat[(static_cast<unsigned>(s) << 8) | p[stop - 1]];
        pos = stop;
        if (pos == hi) break;
      }
    }
    const unsigned idx = (static_cast<unsigned>(s) << 8) | p[pos];
    const uint8_t next = plan.next_flat[idx];
    if constexpr (kMasks) {
      const uint64_t flags = plan.flags_flat[idx];
      record |= (flags & kSymbolRecordDelimiter) << pos;
      field |= ((flags & kSymbolFieldDelimiter) >> 1) << pos;
      control |= ((flags & kSymbolControl) >> 2) << pos;
      if (next == plan.invalid_state && s != plan.invalid_state &&
          walk->first_invalid < 0) {
        walk->first_invalid = static_cast<int64_t>(64 * w + pos);
      }
    }
    s = next;
    ++pos;
  }
  walk->state = s;
  walk->record = record;
  walk->field = field;
  walk->control = control;
}

/// The single-state flag walk (FlagWalkFn) over one level's classifier.
template <typename Classifier>
FlagWalkResult WalkEmitFlagsImpl(const KernelPlan& plan, const uint8_t* data,
                                 size_t begin, size_t end,
                                 uint8_t entry_state, SymbolMasks* masks_out) {
  FlagWalkResult result;
  result.end_state = entry_state;
  if (begin >= end) return result;
  const Classifier classifier(plan);
  Block<Classifier> block(plan, classifier);
  Walk walk = Walk::From(entry_state);
  const size_t first = begin >> 6;
  const size_t last = (end - 1) >> 6;
  for (size_t w = first; w <= last; ++w) {
    const unsigned lo = w == first ? static_cast<unsigned>(begin & 63) : 0;
    const unsigned hi = w == last ? static_cast<unsigned>(end - 64 * w) : 64;
    block.Load(data, w, lo, hi);
    WalkBlock<true>(plan, &block, w, lo, hi, &walk);
    StoreMaskWord(masks_out, w, BitRange(lo, hi), walk.record, walk.field,
                  walk.control);
    CountMaskWord(walk.record, walk.field, &result);
  }
  result.end_state = walk.state;
  result.first_invalid = walk.first_invalid;
  return result;
}

/// \brief The distinct live lane states a chunk walks one by one once they
/// are at most kMaxSpeculatedStates (see ChunkKernelResult).
class WalkSet {
 public:
  /// Takes the lanes at byte `at`. False when they hold more distinct live
  /// states than the bound.
  bool Start(const KernelPlan& plan, const uint8_t lanes[16], size_t at) {
    num_walks_ = 0;
    num_lanes_ = plan.num_states;
    for (int i = 0; i < num_lanes_; ++i) {
      const uint8_t s = lanes[i];
      lane_walk_[i] = -1;
      if (s == plan.trap_state) continue;
      int j = 0;
      while (j < num_walks_ && walks_[j].state != s) ++j;
      if (j == num_walks_) {
        if (num_walks_ == kMaxSpeculatedStates) return false;
        walks_[num_walks_++] = Walk::From(s);
      }
      lane_walk_[i] = static_cast<int8_t>(j);
    }
    live_at_offset_ = num_walks_;
    if (num_walks_ == 0) {
      // Every lane has trapped: one walk in the trap writes the masks.
      walks_[num_walks_++] = Walk::From(plan.trap_state);
      for (int i = 0; i < num_lanes_; ++i) lane_walk_[i] = 0;
    }
    alive_ = (1u << num_walks_) - 1;
    writer_ = std::max<int>(lane_walk_[plan.start_state], 0);
    offset_ = at;
    token_ = walks_[writer_].state;
    return true;
  }

  /// Walks bytes [pos, hi) of word w (pos < hi) with every live walk,
  /// drops trapped and merged walks, and writes the mask-writing walk's
  /// bits. Only that walk sets masks; the others only move their states.
  template <typename Classifier>
  void AdvanceBlock(const KernelPlan& plan, Block<Classifier>* block,
                    size_t w, unsigned pos, unsigned hi,
                    SymbolMasks* masks_out) {
    Walk* out = &walks_[writer_];
    WalkBlock<true>(plan, block, w, pos, hi, out);
    if (alive_ != 1u << writer_) {
      for (uint32_t a = alive_ & ~(1u << writer_); a != 0; a &= a - 1) {
        WalkBlock<false>(plan, block, w, pos, hi,
                         &walks_[std::countr_zero(a)]);
      }
      if (plan.trap_state != 0xFF) DropTrapped(plan, block, w, pos, hi);
      if (MergeEqual()) {
        // The guess met another live state: from here on every entry
        // that has not trapped shares the merged walk, but the guess's
        // bits so far hold only if it was right. Restart the written
        // region at the end of this block; the bitmap step walks the
        // bytes before it from the true entry state.
        offset_ = 64 * w + hi;
        token_ = walks_[writer_].state;
        live_at_offset_ = std::popcount(alive_);
        walks_[writer_].first_invalid = -1;
        return;
      }
      out = &walks_[writer_];
    }
    StoreMaskWord(masks_out, w, BitRange(pos, hi), out->record, out->field,
                  out->control);
  }

  /// Fills the chunk's result: the transition vector from each lane's
  /// walk, and the written region's offset and token.
  void Finish(const KernelPlan& plan, ChunkKernelResult* result) const {
    StateVector v = StateVector::Identity(num_lanes_);
    for (int i = 0; i < num_lanes_; ++i) {
      v.Set(i, lane_walk_[i] < 0 ? plan.trap_state
                                 : walks_[lane_walk_[i]].state);
    }
    result->vector = v;
    result->spec_offset = static_cast<int64_t>(offset_);
    result->spec_state = token_;
    result->speculated = live_at_offset_ > 1;
    result->first_invalid = walks_[writer_].first_invalid;
  }

 private:
  bool Alive(int j) const { return (alive_ >> j & 1) != 0; }

  /// Drops the walks that trapped in this block. When the mask-writing
  /// walk is one of them and another is live, the first live one becomes
  /// the writer from the start of this block: it re-walks the block with
  /// masks. The bitmap step walks the bytes before it from the true entry
  /// state and rewrites them.
  template <typename Classifier>
  void DropTrapped(const KernelPlan& plan, Block<Classifier>* block, size_t w,
                   unsigned pos, unsigned hi) {
    for (uint32_t a = alive_ & ~(1u << writer_); a != 0; a &= a - 1) {
      const int j = std::countr_zero(a);
      if (walks_[j].state == plan.trap_state) Drop(j, -1);
    }
    const uint32_t others = alive_ & ~(1u << writer_);
    if (walks_[writer_].state != plan.trap_state || others == 0) return;
    Drop(writer_, -1);
    writer_ = std::countr_zero(others);
    Walk& next = walks_[writer_];
    next.state = next.block_entry;
    WalkBlock<true>(plan, block, w, pos, hi, &next);
    offset_ = 64 * w + pos;
    token_ = next.block_entry;
  }

  /// Merges walks in the same state (same future): the writer survives,
  /// else the lower slot. True when a walk merged into the writer.
  bool MergeEqual() {
    bool into_writer = false;
    for (int j = 0; j < num_walks_; ++j) {
      for (int k = j + 1; k < num_walks_ && Alive(j); ++k) {
        if (!Alive(k) || walks_[k].state != walks_[j].state) continue;
        if (k == writer_) {
          Drop(j, static_cast<int8_t>(k));
        } else {
          Drop(k, static_cast<int8_t>(j));
        }
        into_writer = into_writer || j == writer_ || k == writer_;
      }
    }
    return into_writer;
  }

  /// Retires walk j; its lanes follow walk `into` (-1: the trap state).
  void Drop(int j, int8_t into) {
    alive_ &= ~(1u << j);
    for (int i = 0; i < num_lanes_; ++i) {
      if (lane_walk_[i] == j) lane_walk_[i] = into;
    }
  }

  Walk walks_[kMaxSpeculatedStates] = {};
  int num_walks_ = 0;
  int num_lanes_ = 0;
  uint32_t alive_ = 0;
  int writer_ = 0;
  int8_t lane_walk_[16] = {};
  int live_at_offset_ = 0;
  size_t offset_ = 0;
  uint8_t token_ = 0;
};

/// Advances the lanes over bytes [*pos, hi) of a block: one shuffle by a
/// catch-all power per run of data symbols, one by the group table per
/// special symbol. Stops after the special symbol at which the lanes
/// converge and returns true, leaving *pos after it; else consumes the
/// block and returns whether the lanes converged at its end.
template <typename LaneOps, typename Classifier>
inline bool AdvanceLanesOverBlock(const KernelPlan& plan, const LaneOps& ops,
                                  Block<Classifier>* block, unsigned* pos,
                                  unsigned hi, typename LaneOps::Vec* v) {
  unsigned at = *pos;
  const uint8_t* p = block->bytes();
  for (uint64_t m = block->Specials() & (~uint64_t{0} << at); m != 0;
       m &= m - 1) {
    const unsigned b = static_cast<unsigned>(std::countr_zero(m));
    typename LaneOps::Vec x = ops.Shuffle(plan.catchall_pow[b - at], *v);
    x = ops.Shuffle(plan.group_tables[plan.group_of_byte[p[b]]], x);
    *v = x;
    at = b + 1;
    if (ops.Converged(x)) {
      *pos = at;
      return true;
    }
  }
  *v = ops.Shuffle(plan.catchall_pow[hi - at], *v);
  *pos = hi;
  return ops.Converged(*v);
}

/// The fused context+bitmap kernel (ChunkKernelFn) over one level's
/// classifier and lane operations.
template <typename Classifier, typename LaneOps>
ChunkKernelResult ChunkKernelImpl(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out) {
  ChunkKernelResult result;
  alignas(16) uint8_t lanes[16];
  InitIdentityLanes(plan, lanes);
  if (begin >= end) {
    result.vector = LanesToVector(plan, lanes);
    return result;
  }
  const Classifier classifier(plan);
  const LaneOps ops(plan);
  typename LaneOps::Vec v = ops.Load(lanes);
  WalkSet walks;
  bool walking = ops.Converged(v) && walks.Start(plan, lanes, begin);
  Block<Classifier> block(plan, classifier);
  const size_t first = begin >> 6;
  const size_t last = (end - 1) >> 6;
  for (size_t w = first; w <= last; ++w) {
    const unsigned lo = w == first ? static_cast<unsigned>(begin & 63) : 0;
    const unsigned hi = w == last ? static_cast<unsigned>(end - 64 * w) : 64;
    block.Load(data, w, lo, hi);
    unsigned pos = lo;
    if (!walking) {
      // |S|-lane phase. After each block the lanes may have merged into a
      // few live states; from then on each is walked on its own.
      const bool converged =
          AdvanceLanesOverBlock(plan, ops, &block, &pos, hi, &v);
      // Several live states are only worth walking one by one when at
      // least a block of the chunk is left.
      if (converged || 64 * w + 128 <= end) {
        ops.Store(lanes, v);
        walking = walks.Start(plan, lanes, 64 * w + pos);
      }
      if (!walking || pos == hi) continue;
    }
    walks.AdvanceBlock(plan, &block, w, pos, hi, masks_out);
  }
  if (walking) {
    walks.Finish(plan, &result);
  } else {
    ops.Store(lanes, v);
    result.vector = LanesToVector(plan, lanes);
  }
  return result;
}

/// Portable lane operations: a plain 16-byte array and a per-lane table
/// lookup.
class SwarLaneOps {
 public:
  struct Vec {
    uint8_t lane[16];
  };

  explicit SwarLaneOps(const KernelPlan& plan) : plan_(plan) {}

  Vec Load(const uint8_t lanes[16]) const {
    Vec v;
    std::memcpy(v.lane, lanes, 16);
    return v;
  }
  void Store(uint8_t lanes[16], const Vec& v) const {
    std::memcpy(lanes, v.lane, 16);
  }
  Vec Shuffle(const uint8_t table[16], const Vec& v) const {
    Vec out;
    for (int i = 0; i < 16; ++i) out.lane[i] = table[v.lane[i]];
    return out;
  }
  bool Converged(const Vec& v) const { return LanesConverged(plan_, v.lane); }

 private:
  const KernelPlan& plan_;
};

/// Portable classifier: an exact zero-byte test per special symbol on each
/// of the block's eight words, the per-byte high bits gathered into eight
/// mask bits with one multiply.
class SwarClassifier {
 public:
  explicit SwarClassifier(const KernelPlan& plan) : plan_(plan) {}

  uint64_t Specials(const uint8_t* p) const {
    return Match(p, [](int) { return true; });
  }
  uint64_t Group(const uint8_t* p, int g) const {
    return Match(p, [&](int k) { return plan_.special_groups[k] == g; });
  }

 private:
  /// Bit b set when byte p[b] is one of the special symbols `keep` picks.
  template <typename Keep>
  uint64_t Match(const uint8_t* p, Keep keep) const {
    constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
    uint64_t bits = 0;
    for (int q = 0; q < 8; ++q) {
      uint64_t word;
      std::memcpy(&word, p + 8 * q, 8);
      uint64_t hits = 0;
      for (int k = 0; k < plan_.num_specials; ++k) {
        if (!keep(k)) continue;
        const uint64_t x =
            word ^ (0x0101010101010101ull * plan_.special_symbols[k]);
        // High bit of each byte set iff the byte of x is zero.
        hits |= ~(((x & kLow7) + kLow7) | x | kLow7);
      }
      bits |= (((hits >> 7) * 0x0102040810204080ull) >> 56) << (8 * q);
    }
    return bits;
  }

  const KernelPlan& plan_;
};

}  // namespace
}  // namespace parparaw::simd::internal

#endif  // PARPARAW_SIMD_KERNEL_COMMON_H_
