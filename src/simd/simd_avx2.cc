// AVX2 kernels: 32-byte compares classify each 64-byte block (two per
// symbol instead of SSE4.2's four), 128-bit PSHUFB advances the state
// vector (16 DFA lanes fit one XMM register). Compiled with -mavx2 and only
// dispatched after the runtime CPU check.

#include "simd/x86_kernel_impl.h"

namespace parparaw::simd::internal {

namespace {

class Avx2Classifier {
 public:
  explicit Avx2Classifier(const KernelPlan& plan)
      : num_specials_(plan.num_specials) {
    for (int k = 0; k < num_specials_; ++k) {
      symbols_[k] =
          _mm256_set1_epi8(static_cast<char>(plan.special_symbols[k]));
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
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    __m256i lo_hits = _mm256_setzero_si256();
    __m256i hi_hits = _mm256_setzero_si256();
    for (int k = 0; k < num_specials_; ++k) {
      if (!keep(k)) continue;
      lo_hits = _mm256_or_si256(lo_hits, _mm256_cmpeq_epi8(lo, symbols_[k]));
      hi_hits = _mm256_or_si256(hi_hits, _mm256_cmpeq_epi8(hi, symbols_[k]));
    }
    return uint64_t{static_cast<uint32_t>(_mm256_movemask_epi8(lo_hits))} |
           uint64_t{static_cast<uint32_t>(_mm256_movemask_epi8(hi_hits))}
               << 32;
  }

  __m256i symbols_[kMaxDfaSymbols];
  uint8_t groups_[kMaxDfaSymbols];
  int num_specials_;
};

}  // namespace

ChunkKernelResult ChunkKernelAvx2(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out) {
  return ChunkKernelImpl<Avx2Classifier, X86LaneOps>(plan, data, begin, end,
                                                     masks_out);
}

FlagWalkResult WalkEmitFlagsAvx2(const KernelPlan& plan, const uint8_t* data,
                                 size_t begin, size_t end, uint8_t entry_state,
                                 SymbolMasks* masks_out) {
  return WalkEmitFlagsImpl<Avx2Classifier>(plan, data, begin, end,
                                           entry_state, masks_out);
}

}  // namespace parparaw::simd::internal
