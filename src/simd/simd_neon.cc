// AArch64 NEON chunk kernel: 16-byte blocks, TBL-based state-vector
// advance (the NEON analogue of PSHUFB shuffle-as-gather). Compiled only
// for aarch64 targets, where Advanced SIMD is architecturally mandatory.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <bit>
#include <cstdint>

#include "simd/kernel_common.h"
#include "simd/simd_kernels.h"

namespace parparaw::simd::internal {

namespace {

constexpr size_t kWidth = 16;

/// Trap-masked convergence test (see KernelPlan::trap_state): every lane
/// equals the start lane's value or the absorbing trap.
bool LanesConvergedNeon(uint8x16_t v, uint8x16_t start_idx, uint8x16_t trap) {
  const uint8x16_t ref = vqtbl1q_u8(v, start_idx);
  const uint8x16_t ok = vorrq_u8(vceqq_u8(v, ref), vceqq_u8(v, trap));
  return vminvq_u8(ok) == 0xFF;
}

uint8x16_t AdvanceLanesNeon(const KernelPlan& plan, uint8x16_t v,
                            uint8_t byte) {
  const uint8x16_t table = vld1q_u8(plan.group_tables[plan.group_of_byte[byte]]);
  return vqtbl1q_u8(table, v);
}

struct Scanner {
  uint8x16_t specials[kMaxSpecialSymbols];
  int num_specials;

  explicit Scanner(const KernelPlan& plan) : num_specials(plan.num_specials) {
    for (int k = 0; k < num_specials; ++k) {
      specials[k] = vdupq_n_u8(plan.special_symbols[k]);
    }
  }

  /// Nibble mask: bits [4j, 4j+4) are set when byte j is a special symbol
  /// (the SHRN narrowing idiom standing in for x86's MOVEMASK).
  uint64_t SpecialMask(const uint8_t* p) const {
    const uint8x16_t block = vld1q_u8(p);
    uint8x16_t acc = vdupq_n_u8(0);
    for (int k = 0; k < num_specials; ++k) {
      acc = vorrq_u8(acc, vceqq_u8(block, specials[k]));
    }
    const uint8x8_t narrowed =
        vshrn_n_u16(vreinterpretq_u16_u8(acc), 4);
    return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
  }
};

}  // namespace

ChunkKernelResult ChunkKernelNeon(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out) {
  const Scanner scanner(plan);

  ChunkKernelResult result;
  alignas(16) uint8_t lanes[16];
  InitIdentityLanes(plan, lanes);
  uint8x16_t v = vld1q_u8(lanes);
  const uint8x16_t pow16 = vld1q_u8(plan.catchall_pow16);

  const uint8x16_t start_idx =
      vdupq_n_u8(static_cast<uint8_t>(plan.start_state));
  const uint8x16_t trap = vdupq_n_u8(plan.trap_state);
  size_t i = begin;
  bool converged = LanesConvergedNeon(v, start_idx, trap);

  while (!converged && i + kWidth <= end) {
    if (scanner.SpecialMask(data + i) == 0) {
      v = vqtbl1q_u8(pow16, v);
    } else {
      for (size_t j = 0; j < kWidth; ++j) {
        v = AdvanceLanesNeon(plan, v, data[i + j]);
      }
    }
    i += kWidth;
    converged = LanesConvergedNeon(v, start_idx, trap);
  }
  while (!converged && i < end) {
    v = AdvanceLanesNeon(plan, v, data[i]);
    ++i;
    converged = LanesConvergedNeon(v, start_idx, trap);
  }

  vst1q_u8(lanes, v);
  if (!converged) {
    result.vector = LanesToVector(plan, lanes);
    return result;
  }

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
      i += static_cast<size_t>(std::countr_zero(mask)) / 4;
    }
    FusedStepByte(plan, data, i, &out, &state, &result.first_invalid);
    ++i;
  }
  out.Finish();
  result.vector = ConvergedVector(plan, lanes, state);
  return result;
}

}  // namespace parparaw::simd::internal

#endif  // defined(__aarch64__)
