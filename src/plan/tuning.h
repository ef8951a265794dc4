#ifndef PARPARAW_PLAN_TUNING_H_
#define PARPARAW_PLAN_TUNING_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "simd/dispatch.h"
#include "util/status.h"

namespace parparaw {

/// How per-symbol field boundaries are materialised in the concatenated
/// symbol strings (§4.1, Fig. 6).
enum class TaggingMode : uint8_t {
  /// Robust default: every kept symbol carries a 4-byte record tag; handles
  /// records with a varying number of field delimiters.
  kRecordTags,
  /// Delimiters are replaced by a unique terminator byte inside the CSS;
  /// smallest memory footprint, requires the terminator to never occur in
  /// field data and a consistent number of columns per record (or the
  /// reject policy).
  kInlineTerminated,
  /// Field ends are marked in an auxiliary boolean vector; supports data
  /// containing the terminator byte, same consistency requirement.
  kVectorDelimited,
  /// Resolves to kRecordTags, planned or not: the one mode that keeps
  /// every record under every column-count and error policy. Appended last
  /// so existing code addressing the concrete modes by value (0..2) is
  /// unaffected.
  kAuto,
};

/// How tagged symbols are transposed into columns (§3.3). The paper
/// radix-sorts every *symbol* by its column tag into per-column
/// concatenated symbol strings (CSS), then converts each CSS — the right
/// shape for a GPU scatter, but on the CPU substrate it materialises ~16
/// bytes of sort metadata per input byte. The field-granularity gather
/// writes every value straight into its output column with O(fields)
/// bookkeeping (the Instant-Loading-style CPU idiom), and is the
/// default.
enum class TransposeMode : uint8_t {
  /// Resolve to kFieldGather, unless the PARPARAW_TRANSPOSE_MODE
  /// environment variable ("field_gather" / "symbol_sort") overrides the
  /// default for the process (scripts/check.sh transpose sweeps it). An
  /// explicit mode request always wins over the environment.
  kAuto,
  /// Field-granularity fast path: walk each field's (column, row, byte
  /// window, length) from the bitmap indexes, tally each column's output
  /// bytes per tile, then walk the fields again and write every value
  /// straight into its output column; no CSS is built.
  kFieldGather,
  /// The paper's faithful symbol-granularity path: every kept symbol
  /// carries a 4-byte column tag and is moved by a stable LSD radix sort.
  /// Kept for differential testing and GPU-substrate fidelity.
  kSymbolSort,
};

/// Whether the runtime planner (src/plan) engages on a parse. The planner
/// reads no input byte: it resolves every tuning knob still at its auto
/// sentinel from the DFA and the stream's length, once per stream.
enum class PlannerMode : uint8_t {
  /// Default: knobs the caller pinned are respected, auto knobs are planned
  /// (plan::PlanParse).
  kAuto,
  /// Every auto sentinel resolves to its static default (kernel -> best
  /// vectorized level, chunk -> 31, tagging -> kRecordTags, transpose ->
  /// kFieldGather). This is the pre-planner behaviour, and what
  /// differential tests pin one side to.
  kDisabled,
};

/// \brief The one place every performance-tuning knob of a parse lives.
///
/// ParseOptions inherits from Tuning, so existing code reading or writing
/// `options.kernel`, `options.chunk_size`, `options.tagging_mode` or
/// `options.transpose_mode` compiles unchanged while the storage — and the
/// planner that fills the auto sentinels — is consolidated here. Callers
/// that carry tuning separately (Reader::WithTuning, LoadOptions::tuning)
/// assign the whole struct at once.
struct Tuning {
  /// Inner-loop kernel for the context and bitmap passes (src/simd):
  /// kAuto resolves to the best vectorized level, planned or not (a DFA
  /// over the register budget runs the scalar level either way); kSimd
  /// pins the best vectorized level, kScalar the byte-at-a-time reference.
  /// The PARPARAW_FORCE_KERNEL environment variable overrides any of these
  /// per process (see docs/simd.md and docs/tuning.md).
  simd::KernelKind kernel = simd::KernelKind::kAuto;

  /// Bytes per chunk / per logical GPU thread. 0 = auto: the planner picks
  /// 4096, or 1024 for a DFA over the register budget, or 31 for a stream
  /// shorter than 256 bytes; without planning it resolves to the paper's
  /// 31 bytes (Fig. 9). Any non-zero value is a pin.
  size_t chunk_size = 0;

  /// How field boundaries are materialised; kAuto resolves to
  /// kRecordTags. See TaggingMode.
  TaggingMode tagging_mode = TaggingMode::kAuto;

  /// How tagged symbols are moved into per-column CSS buffers; see
  /// TransposeMode. kAuto resolves to kFieldGather (overridable per
  /// process via PARPARAW_TRANSPOSE_MODE); both modes produce bit-identical
  /// tables.
  TransposeMode transpose_mode = TransposeMode::kAuto;

  /// Bytes per streaming partition. 0 = auto: the streaming parser, bulk
  /// loader and executor use their documented 64 MB default (budget-
  /// clamped); the plan passes the value through. A non-zero value
  /// overrides the entry point's partition_size field.
  size_t partition_size = 0;

  /// Planner engagement; see PlannerMode.
  PlannerMode planner = PlannerMode::kAuto;

  /// Bytes of head sample for a caller that reads one itself before it
  /// plans (perfbench hands it to the plan::PlanStream sample overload).
  /// No library code reads it: the planner plans from the stream's length.
  size_t sample_budget = 256 * 1024;

  /// Validates the tuning combination (chunk_size bounds). Called by
  /// ParseOptions::Validate, so every entry point checks it exactly once.
  Status ValidateTuning() const;
};

namespace plan {

/// Centralized environment parsing (read once per process, cached — a
/// per-parse getenv would be a race under TSan). These are the single
/// source of truth: simd::ResolveKernelLevel and EffectiveTransposeMode
/// delegate here.

/// PARPARAW_FORCE_KERNEL=scalar|swar|simd|sse42|avx2|neon, or nullopt when
/// unset/unrecognised. "simd" resolves to the best detected level.
std::optional<simd::KernelLevel> EnvForcedKernelLevel();

/// PARPARAW_TRANSPOSE_MODE=field_gather|symbol_sort, or nullopt.
std::optional<TransposeMode> EnvTransposeMode();

/// PARPARAW_DISABLE_SIMD set to anything but "" or "0": the kernel
/// dispatcher caps the detected best level at the portable SWAR fallback
/// (the runtime twin of the -DPARPARAW_DISABLE_SIMD build option).
bool EnvSimdDisabled();

namespace internal {

/// Pure, uncached parsers for the env grammars above, exposed so tests can
/// exercise the vocabulary without mutating the process environment.
std::optional<simd::KernelLevel> ParseKernelEnvValue(const char* value);
std::optional<TransposeMode> ParseTransposeEnvValue(const char* value);
bool ParseSimdDisabledValue(const char* value);

}  // namespace internal

}  // namespace plan

}  // namespace parparaw

#endif  // PARPARAW_PLAN_TUNING_H_
