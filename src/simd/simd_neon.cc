// AArch64 NEON kernels: 16-byte compares classify each 64-byte block, TBL
// advances the state vector (the NEON analogue of PSHUFB shuffle-as-
// gather). Compiled only for aarch64 targets, where Advanced SIMD is
// architecturally mandatory.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstdint>

#include "simd/kernel_common.h"
#include "simd/simd_kernels.h"

namespace parparaw::simd::internal {

namespace {

class NeonLaneOps {
 public:
  using Vec = uint8x16_t;

  explicit NeonLaneOps(const KernelPlan& plan)
      : start_idx_(vdupq_n_u8(static_cast<uint8_t>(plan.start_state))),
        trap_(vdupq_n_u8(plan.trap_state)) {}

  Vec Load(const uint8_t lanes[16]) const { return vld1q_u8(lanes); }
  void Store(uint8_t lanes[16], Vec v) const { vst1q_u8(lanes, v); }
  Vec Shuffle(const uint8_t table[16], Vec v) const {
    return vqtbl1q_u8(vld1q_u8(table), v);
  }
  /// Trap-masked convergence test (see KernelPlan::trap_state): every lane
  /// equals the start lane's value or the absorbing trap.
  bool Converged(Vec v) const {
    const uint8x16_t ref = vqtbl1q_u8(v, start_idx_);
    const uint8x16_t ok = vorrq_u8(vceqq_u8(v, ref), vceqq_u8(v, trap_));
    return vminvq_u8(ok) == 0xFF;
  }

 private:
  uint8x16_t start_idx_;
  uint8x16_t trap_;
};

class NeonClassifier {
 public:
  explicit NeonClassifier(const KernelPlan& plan)
      : num_specials_(plan.num_specials) {
    for (int k = 0; k < num_specials_; ++k) {
      symbols_[k] = vdupq_n_u8(plan.special_symbols[k]);
      groups_[k] = plan.special_groups[k];
    }
  }

  uint64_t Specials(const uint8_t* p) const {
    return Match(p, [](int) { return true; });
  }
  uint64_t Group(const uint8_t* p, int g) const {
    return Match(p, [&](int k) { return groups_[k] == g; });
  }

 private:
  /// Bit b set when byte p[b] is one of the special symbols `keep` picks.
  template <typename Keep>
  uint64_t Match(const uint8_t* p, Keep keep) const {
    uint64_t bits = 0;
    for (int q = 0; q < 4; ++q) {
      const uint8x16_t block = vld1q_u8(p + 16 * q);
      uint8x16_t hits = vdupq_n_u8(0);
      for (int k = 0; k < num_specials_; ++k) {
        if (keep(k)) hits = vorrq_u8(hits, vceqq_u8(block, symbols_[k]));
      }
      bits |= MoveMask(hits) << (16 * q);
    }
    return bits;
  }

  /// Bit j set when byte j of a compare result is all ones (x86's
  /// MOVEMASK): each byte keeps its own bit weight, and the sum of a half's
  /// distinct weights is their OR.
  static uint64_t MoveMask(uint8x16_t eq) {
    static const uint8_t kWeights[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                         1, 2, 4, 8, 16, 32, 64, 128};
    const uint8x16_t bits = vandq_u8(eq, vld1q_u8(kWeights));
    return uint64_t{vaddv_u8(vget_low_u8(bits))} |
           uint64_t{vaddv_u8(vget_high_u8(bits))} << 8;
  }

  uint8x16_t symbols_[kMaxDfaSymbols];
  uint8_t groups_[kMaxDfaSymbols];
  int num_specials_;
};

}  // namespace

ChunkKernelResult ChunkKernelNeon(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out) {
  return ChunkKernelImpl<NeonClassifier, NeonLaneOps>(plan, data, begin, end,
                                                      masks_out);
}

FlagWalkResult WalkEmitFlagsNeon(const KernelPlan& plan, const uint8_t* data,
                                 size_t begin, size_t end, uint8_t entry_state,
                                 SymbolMasks* masks_out) {
  return WalkEmitFlagsImpl<NeonClassifier>(plan, data, begin, end,
                                           entry_state, masks_out);
}

}  // namespace parparaw::simd::internal

#endif  // defined(__aarch64__)
