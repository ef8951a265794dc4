// AVX2 chunk kernel: 32-byte special-symbol scan blocks (256-bit compares),
// 128-bit PSHUFB state-vector advance (16 DFA lanes fit one XMM register;
// the wider ISA's win is the input scan and the T_catchall^32 block skip).
// Compiled with -mavx2 and only dispatched after the runtime CPU check.

#include "simd/x86_kernel_impl.h"

namespace parparaw::simd::internal {

namespace {

struct Avx2Traits {
  static constexpr size_t kWidth = 32;

  struct Scanner {
    __m256i specials[kMaxDfaSymbols];
    int num_specials;

    explicit Scanner(const KernelPlan& plan)
        : num_specials(plan.num_specials) {
      for (int k = 0; k < num_specials; ++k) {
        specials[k] =
            _mm256_set1_epi8(static_cast<char>(plan.special_symbols[k]));
      }
    }

    uint64_t SpecialMask(const uint8_t* p) const {
      const __m256i block =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      __m256i acc = _mm256_setzero_si256();
      for (int k = 0; k < num_specials; ++k) {
        acc = _mm256_or_si256(acc, _mm256_cmpeq_epi8(block, specials[k]));
      }
      return static_cast<uint32_t>(_mm256_movemask_epi8(acc));
    }
  };
};

}  // namespace

ChunkKernelResult ChunkKernelAvx2(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out) {
  return ChunkKernelX86<Avx2Traits>(plan, data, begin, end, masks_out);
}

}  // namespace parparaw::simd::internal
