#ifndef PARPARAW_SIMD_X86_KERNEL_IMPL_H_
#define PARPARAW_SIMD_X86_KERNEL_IMPL_H_

// Shared x86 implementation of the fused context+bitmap chunk kernel,
// parameterised over the special-symbol block scanner (16-byte SSE blocks
// or 32-byte AVX2 blocks). Included only by the per-ISA translation units,
// which are compiled with the matching -m flags; the state-vector algebra
// itself uses 128-bit PSHUFB in both (16 DFA lanes fit one XMM register).

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "simd/kernel_common.h"
#include "simd/simd_kernels.h"

namespace parparaw::simd::internal {

/// Trap-masked convergence test (see KernelPlan::trap_state): every lane
/// equals the start lane's value or the absorbing trap. `start_idx` is the
/// splatted start-state lane index, `trap` the splatted trap byte (0xFF
/// when the DFA has no absorbing trap — matches no lane). Surplus lanes
/// mirror lane 0, so the full-register test equals the live-lane test.
inline bool LanesConvergedSse(__m128i v, __m128i start_idx, __m128i trap) {
  const __m128i ref = _mm_shuffle_epi8(v, start_idx);
  const __m128i ok =
      _mm_or_si128(_mm_cmpeq_epi8(v, ref), _mm_cmpeq_epi8(v, trap));
  return _mm_movemask_epi8(ok) == 0xFFFF;
}

/// Advances every DFA lane by one symbol: shuffle-as-gather over the
/// symbol group's transition table (§3.1 row, vectorised).
inline __m128i AdvanceLanes(const KernelPlan& plan, __m128i v, uint8_t byte) {
  const __m128i table = _mm_load_si128(reinterpret_cast<const __m128i*>(
      plan.group_tables[plan.group_of_byte[byte]]));
  return _mm_shuffle_epi8(table, v);
}

/// Scanner: finds registered (non-catch-all) symbols in fixed-width blocks.
/// Traits must provide kWidth and a SpecialMask returning a bitmask with
/// bit j set when byte j of the block is a special symbol.
template <typename Traits>
ChunkKernelResult ChunkKernelX86(const KernelPlan& plan, const uint8_t* data,
                                 size_t begin, size_t end,
                                 SymbolMasks* masks_out) {
  constexpr size_t kWidth = Traits::kWidth;
  const typename Traits::Scanner scanner(plan);

  ChunkKernelResult result;
  alignas(16) uint8_t lanes[16];
  InitIdentityLanes(plan, lanes);
  __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(lanes));
  const __m128i pow_table = _mm_load_si128(reinterpret_cast<const __m128i*>(
      kWidth == 32 ? plan.catchall_pow32 : plan.catchall_pow16));

  const __m128i start_idx =
      _mm_set1_epi8(static_cast<char>(plan.start_state));
  const __m128i trap = _mm_set1_epi8(static_cast<char>(plan.trap_state));
  size_t i = begin;
  bool converged = LanesConvergedSse(v, start_idx, trap);

  // Multi-state phase, block at a time. A block with no special symbols is
  // kWidth catch-all transitions, i.e. one shuffle with T_catchall^kWidth.
  // Convergence is tested at block granularity: detecting it a few bytes
  // late only shortens the fused region, never changes a result.
  while (!converged && i + kWidth <= end) {
    if (scanner.SpecialMask(data + i) == 0) {
      v = _mm_shuffle_epi8(pow_table, v);
    } else {
      for (size_t j = 0; j < kWidth; ++j) v = AdvanceLanes(plan, v, data[i + j]);
    }
    i += kWidth;
    converged = LanesConvergedSse(v, start_idx, trap);
  }
  while (!converged && i < end) {
    v = AdvanceLanes(plan, v, data[i]);
    ++i;
    converged = LanesConvergedSse(v, start_idx, trap);
  }

  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), v);
  if (!converged) {
    result.vector = LanesToVector(plan, lanes);
    return result;
  }

  // Converged: fused single-state phase. Blocks of plain data symbols in a
  // skippable state are consumed without a per-byte step (their bits stay
  // zero; the writer stores the clean words whole); otherwise the flat
  // LUTs process one byte at a time up to and across the special symbols.
  result.spec_offset = static_cast<int64_t>(i);
  result.spec_state = lanes[plan.start_state];
  uint8_t state = lanes[plan.start_state];
  MaskWriter out(masks_out, i, end);
  while (i < end) {
    if (plan.state_skippable[state] && i + kWidth <= end) {
      const uint64_t mask = scanner.SpecialMask(data + i);
      if (mask == 0) {
        i += kWidth;
        continue;
      }
      // Jump over the clean prefix; bits stay zero, state unchanged.
      i += static_cast<size_t>(std::countr_zero(mask));
    }
    FusedStepByte(plan, data, i, &out, &state, &result.first_invalid);
    ++i;
  }
  out.Finish();
  result.vector = ConvergedVector(plan, lanes, state);
  return result;
}

}  // namespace parparaw::simd::internal

#endif  // PARPARAW_SIMD_X86_KERNEL_IMPL_H_
