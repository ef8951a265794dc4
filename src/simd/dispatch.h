#ifndef PARPARAW_SIMD_DISPATCH_H_
#define PARPARAW_SIMD_DISPATCH_H_

#include <cstdint>
#include <optional>

namespace parparaw::simd {

/// What a caller asks for (ParseOptions::kernel): the policy knob. The
/// concrete implementation that runs is a KernelLevel, resolved once per
/// parse by ResolveKernelLevel().
enum class KernelKind : uint8_t {
  /// Best available vectorized kernel; the portable SWAR fallback when the
  /// build or the CPU has no vector ISA.
  kAuto,
  /// The scalar reference pipeline (byte-at-a-time multi-DFA walk in the
  /// context pass, SWAR symbol matching in the bitmap pass). This is the
  /// ground truth every other level is differentially tested against.
  kScalar,
};

/// One concrete kernel implementation. Levels above kSwar require both
/// compile-time support (the arch translation unit was built) and runtime
/// CPU support (detected once, cached).
enum class KernelLevel : uint8_t {
  kScalar,
  /// Portable fallback: flat-LUT transitions, convergence speculation, and
  /// Mycroft SWAR special-symbol skipping — no vector intrinsics.
  kSwar,
  kSse42,
  kAvx2,
  kNeon,
};

/// Stable lowercase name ("scalar", "swar", "sse42", "avx2", "neon"); also
/// the vocabulary of the PARPARAW_FORCE_KERNEL environment variable.
const char* KernelLevelName(KernelLevel level);

/// True when `level` was compiled in and the CPU can execute it.
bool KernelLevelAvailable(KernelLevel level);

/// Best available vectorized level: kAvx2 > kSse42 > kNeon > kSwar.
/// Detected once at startup and cached.
KernelLevel DetectBestKernelLevel();

/// Maps a request to the level the pipeline will run. Precedence:
///   1. SetForcedKernelLevel() test hook, when set;
///   2. PARPARAW_FORCE_KERNEL=scalar|swar|simd|sse42|avx2|neon (unavailable
///      arch names degrade to the best available level);
///   3. `requested` (kScalar -> kScalar, kAuto -> best available).
KernelLevel ResolveKernelLevel(KernelKind requested);

/// Test hook: overrides every subsequent resolution with `level` (clamped
/// to an available level), or restores normal resolution with nullopt.
/// Not thread-safe against concurrent parses; intended for test setup.
void SetForcedKernelLevel(std::optional<KernelLevel> level);

}  // namespace parparaw::simd

#endif  // PARPARAW_SIMD_DISPATCH_H_
