// SSE4.2 chunk kernel: 16-byte special-symbol scan blocks, 128-bit PSHUFB
// state-vector advance. Compiled with -msse4.2 (see src/CMakeLists.txt)
// and only dispatched after the runtime CPU check in simd/dispatch.cc.

#include "simd/x86_kernel_impl.h"

namespace parparaw::simd::internal {

namespace {

struct Sse42Traits {
  static constexpr size_t kWidth = 16;

  struct Scanner {
    __m128i specials[kMaxDfaSymbols];
    int num_specials;

    explicit Scanner(const KernelPlan& plan)
        : num_specials(plan.num_specials) {
      for (int k = 0; k < num_specials; ++k) {
        specials[k] =
            _mm_set1_epi8(static_cast<char>(plan.special_symbols[k]));
      }
    }

    uint64_t SpecialMask(const uint8_t* p) const {
      const __m128i block =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      __m128i acc = _mm_setzero_si128();
      for (int k = 0; k < num_specials; ++k) {
        acc = _mm_or_si128(acc, _mm_cmpeq_epi8(block, specials[k]));
      }
      return static_cast<uint32_t>(_mm_movemask_epi8(acc));
    }
  };
};

}  // namespace

ChunkKernelResult ChunkKernelSse42(const KernelPlan& plan, const uint8_t* data,
                                   size_t begin, size_t end,
                                   SymbolMasks* masks_out) {
  return ChunkKernelX86<Sse42Traits>(plan, data, begin, end, masks_out);
}

}  // namespace parparaw::simd::internal
