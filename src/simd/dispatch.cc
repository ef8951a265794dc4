#include "simd/dispatch.h"

#include "plan/tuning.h"

namespace parparaw::simd {

namespace {

std::optional<KernelLevel>& ForcedLevel() {
  static std::optional<KernelLevel> forced;
  return forced;
}

bool CpuSupports(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
    case KernelLevel::kSwar:
      return true;
    case KernelLevel::kSse42:
#if defined(PARPARAW_HAVE_SSE42_KERNEL) && \
    (defined(__x86_64__) || defined(_M_X64))
      return __builtin_cpu_supports("sse4.2") != 0;
#else
      return false;
#endif
    case KernelLevel::kAvx2:
#if defined(PARPARAW_HAVE_AVX2_KERNEL) && \
    (defined(__x86_64__) || defined(_M_X64))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case KernelLevel::kNeon:
#if defined(PARPARAW_HAVE_NEON_KERNEL) && defined(__aarch64__)
      return true;  // Advanced SIMD is mandatory on AArch64.
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kSwar:
      return "swar";
    case KernelLevel::kSse42:
      return "sse42";
    case KernelLevel::kAvx2:
      return "avx2";
    case KernelLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

bool KernelLevelAvailable(KernelLevel level) { return CpuSupports(level); }

KernelLevel DetectBestKernelLevel() {
  static const KernelLevel best = [] {
    // PARPARAW_DISABLE_SIMD at runtime mirrors the -DPARPARAW_DISABLE_SIMD
    // build option: vector ISAs stay compiled in but are never detected,
    // so every kAuto request degrades to the portable SWAR fallback.
    if (plan::EnvSimdDisabled()) return KernelLevel::kSwar;
    if (CpuSupports(KernelLevel::kAvx2)) return KernelLevel::kAvx2;
    if (CpuSupports(KernelLevel::kSse42)) return KernelLevel::kSse42;
    if (CpuSupports(KernelLevel::kNeon)) return KernelLevel::kNeon;
    return KernelLevel::kSwar;
  }();
  return best;
}

KernelLevel ResolveKernelLevel(KernelKind requested) {
  if (ForcedLevel().has_value()) {
    const KernelLevel forced = *ForcedLevel();
    return CpuSupports(forced) ? forced : DetectBestKernelLevel();
  }
  // Centralized env parsing (plan/tuning.h), read once per process:
  // unavailable arch names degrade to the best available level.
  if (std::optional<KernelLevel> level = plan::EnvForcedKernelLevel()) {
    return CpuSupports(*level) ? *level : DetectBestKernelLevel();
  }
  switch (requested) {
    case KernelKind::kScalar:
      return KernelLevel::kScalar;
    case KernelKind::kAuto:
      return DetectBestKernelLevel();
  }
  return KernelLevel::kScalar;
}

void SetForcedKernelLevel(std::optional<KernelLevel> level) {
  ForcedLevel() = level;
}

}  // namespace parparaw::simd
