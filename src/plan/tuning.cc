#include "plan/tuning.h"

#include <cstdlib>
#include <cstring>
#include <string>

namespace parparaw {

namespace {

// Upper bound on chunk_size: a chunk is the unit of per-logical-thread
// work (the paper settles on 31 bytes, Fig. 9); anything beyond this
// defeats the data-parallel decomposition and risks overflowing the
// per-chunk uint32 delimiter counters on dense inputs.
constexpr size_t kMaxChunkSize = size_t{1} << 24;

}  // namespace

namespace plan {
namespace internal {

std::optional<simd::KernelLevel> ParseKernelEnvValue(const char* value) {
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  if (std::strcmp(value, "scalar") == 0) return simd::KernelLevel::kScalar;
  if (std::strcmp(value, "swar") == 0) return simd::KernelLevel::kSwar;
  if (std::strcmp(value, "simd") == 0) return simd::DetectBestKernelLevel();
  if (std::strcmp(value, "sse42") == 0) return simd::KernelLevel::kSse42;
  if (std::strcmp(value, "avx2") == 0) return simd::KernelLevel::kAvx2;
  if (std::strcmp(value, "neon") == 0) return simd::KernelLevel::kNeon;
  return std::nullopt;
}

std::optional<TransposeMode> ParseTransposeEnvValue(const char* value) {
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  if (std::strcmp(value, "symbol_sort") == 0) {
    return TransposeMode::kSymbolSort;
  }
  if (std::strcmp(value, "field_gather") == 0) {
    return TransposeMode::kFieldGather;
  }
  return std::nullopt;
}

bool ParseSimdDisabledValue(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

}  // namespace internal

std::optional<simd::KernelLevel> EnvForcedKernelLevel() {
  static const std::optional<simd::KernelLevel> cached =
      internal::ParseKernelEnvValue(std::getenv("PARPARAW_FORCE_KERNEL"));
  return cached;
}

std::optional<TransposeMode> EnvTransposeMode() {
  static const std::optional<TransposeMode> cached =
      internal::ParseTransposeEnvValue(
          std::getenv("PARPARAW_TRANSPOSE_MODE"));
  return cached;
}

bool EnvSimdDisabled() {
  static const bool cached = internal::ParseSimdDisabledValue(
      std::getenv("PARPARAW_DISABLE_SIMD"));
  return cached;
}

}  // namespace plan

Status Tuning::ValidateTuning() const {
  if (chunk_size > kMaxChunkSize) {
    return Status::Invalid(
        "chunk_size " + std::to_string(chunk_size) + " exceeds the " +
        std::to_string(kMaxChunkSize) +
        "-byte maximum; chunks are per-logical-thread work units "
        "(the paper uses 31; 0 lets the planner choose)");
  }
  return Status::OK();
}

}  // namespace parparaw
