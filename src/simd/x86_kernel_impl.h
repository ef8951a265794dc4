#ifndef PARPARAW_SIMD_X86_KERNEL_IMPL_H_
#define PARPARAW_SIMD_X86_KERNEL_IMPL_H_

// The x86 lane operations shared by the SSE4.2 and AVX2 translation units:
// 16 DFA lanes fit one XMM register, so both advance them with 128-bit
// PSHUFB; the levels differ in the width of the block classifier's
// compares. Included only by the per-ISA translation units, which are
// compiled with the matching -m flags.

#include <immintrin.h>

#include <cstdint>

#include "simd/kernel_common.h"

namespace parparaw::simd::internal {
namespace {

class X86LaneOps {
 public:
  using Vec = __m128i;

  /// `start_idx` splats the start-state lane index, `trap` the trap byte
  /// (0xFF when the DFA has no absorbing trap: it matches no lane).
  explicit X86LaneOps(const KernelPlan& plan)
      : start_idx_(_mm_set1_epi8(static_cast<char>(plan.start_state))),
        trap_(_mm_set1_epi8(static_cast<char>(plan.trap_state))) {}

  Vec Load(const uint8_t lanes[16]) const {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(lanes));
  }
  void Store(uint8_t lanes[16], Vec v) const {
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), v);
  }
  /// Shuffle-as-gather: lane i becomes table[lane i] (§3.1 row,
  /// vectorised).
  Vec Shuffle(const uint8_t table[16], Vec v) const {
    return _mm_shuffle_epi8(
        _mm_load_si128(reinterpret_cast<const __m128i*>(table)), v);
  }
  /// Trap-masked convergence test (see KernelPlan::trap_state). Surplus
  /// lanes mirror lane 0, so the full-register test equals the live-lane
  /// test.
  bool Converged(Vec v) const {
    const __m128i ref = _mm_shuffle_epi8(v, start_idx_);
    const __m128i ok =
        _mm_or_si128(_mm_cmpeq_epi8(v, ref), _mm_cmpeq_epi8(v, trap_));
    return _mm_movemask_epi8(ok) == 0xFFFF;
  }

 private:
  __m128i start_idx_;
  __m128i trap_;
};

}  // namespace
}  // namespace parparaw::simd::internal

#endif  // PARPARAW_SIMD_X86_KERNEL_IMPL_H_
