#ifndef PARPARAW_SIMD_KERNEL_COMMON_H_
#define PARPARAW_SIMD_KERNEL_COMMON_H_

// Internal helpers shared by the per-ISA kernel translation units. Not part
// of the public simd API.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "mfira/swar.h"
#include "simd/simd_kernels.h"

namespace parparaw::simd::internal {

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

/// The chunk's final transition vector after a converged fused walk ending
/// in `end_state`: trapped lanes stay trapped, every other lane shares the
/// walked outcome.
inline StateVector ConvergedVector(const KernelPlan& plan,
                                   const uint8_t lanes_at_convergence[16],
                                   uint8_t end_state) {
  StateVector v = StateVector::Identity(plan.num_states);
  for (int i = 0; i < plan.num_states; ++i) {
    v.Set(i, lanes_at_convergence[i] == plan.trap_state ? plan.trap_state
                                                        : end_state);
  }
  return v;
}

/// One byte of single-state simulation: sets the symbol's mask bits,
/// tracks the earliest transition into the invalid state, advances the
/// state. Byte-for-byte identical to the scalar BitmapStep inner loop.
inline void FusedStepByte(const KernelPlan& plan, const uint8_t* data,
                          size_t i, MaskWriter* out, uint8_t* state,
                          int64_t* first_invalid) {
  const unsigned idx =
      (static_cast<unsigned>(*state) << 8) | static_cast<unsigned>(data[i]);
  out->Set(i, plan.flags_flat[idx]);
  const uint8_t next = plan.next_flat[idx];
  if (plan.invalid_state >= 0 && next == plan.invalid_state &&
      *state != plan.invalid_state && *first_invalid < 0) {
    *first_invalid = static_cast<int64_t>(i);
  }
  *state = next;
}

/// Portable special-symbol probe over the 8 bytes at `p`: a Mycroft
/// zero-byte test per registered symbol, OR-combined. Bit 8*j+7 set means
/// byte j is a special symbol.
inline uint64_t SpecialMaskSwar(const KernelPlan& plan, const uint8_t* p) {
  uint64_t word;
  __builtin_memcpy(&word, p, 8);
  uint64_t hits = 0;
  for (int k = 0; k < plan.num_specials; ++k) {
    hits |= SwarHasZeroByte64(word ^ SwarBroadcast64(plan.special_symbols[k]));
  }
  return hits;
}

/// Number of leading non-special bytes in a SpecialMaskSwar result.
inline size_t CleanPrefixSwar(uint64_t hits) {
  return static_cast<size_t>(std::countr_zero(hits)) / 8;
}

}  // namespace parparaw::simd::internal

#endif  // PARPARAW_SIMD_KERNEL_COMMON_H_
