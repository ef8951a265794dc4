// SSE4.2 kernels: 16-byte compares classify each 64-byte block, 128-bit
// PSHUFB advances the state vector. Compiled with -msse4.2 (see
// src/CMakeLists.txt) and only dispatched after the runtime CPU check in
// simd/dispatch.cc.

#include "simd/x86_kernel_impl.h"

namespace parparaw::simd::internal {

namespace {

class Sse42Classifier {
 public:
  explicit Sse42Classifier(const KernelPlan& plan)
      : num_specials_(plan.num_specials) {
    for (int k = 0; k < num_specials_; ++k) {
      symbols_[k] = _mm_set1_epi8(static_cast<char>(plan.special_symbols[k]));
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
      const __m128i block =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * q));
      __m128i hits = _mm_setzero_si128();
      for (int k = 0; k < num_specials_; ++k) {
        if (keep(k)) {
          hits = _mm_or_si128(hits, _mm_cmpeq_epi8(block, symbols_[k]));
        }
      }
      bits |= uint64_t{static_cast<uint32_t>(_mm_movemask_epi8(hits))}
              << (16 * q);
    }
    return bits;
  }

  __m128i symbols_[kMaxDfaSymbols];
  uint8_t groups_[kMaxDfaSymbols];
  int num_specials_;
};

}  // namespace

ChunkKernelResult ChunkKernelSse42(const KernelPlan& plan, const uint8_t* data,
                                   size_t begin, size_t end,
                                   SymbolMasks* masks_out) {
  return ChunkKernelImpl<Sse42Classifier, X86LaneOps>(plan, data, begin, end,
                                                      masks_out);
}

FlagWalkResult WalkEmitFlagsSse42(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  uint8_t entry_state, SymbolMasks* masks_out) {
  return WalkEmitFlagsImpl<Sse42Classifier>(plan, data, begin, end,
                                            entry_state, masks_out);
}

}  // namespace parparaw::simd::internal
