#ifndef PARPARAW_CORE_OPTIONS_H_
#define PARPARAW_CORE_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "columnar/schema.h"
#include "columnar/table.h"
#include "dfa/formats.h"
#include "dialect/spec.h"
#include "parallel/thread_pool.h"
#include "plan/tuning.h"
#include "robust/quarantine.h"
#include "simd/dispatch.h"
#include "text/unicode.h"

namespace parparaw {

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

// TaggingMode, TransposeMode and the Tuning struct (the consolidated
// performance-tuning surface ParseOptions inherits) live in plan/tuning.h.

/// How records with an inconsistent number of columns are handled (§4.1,
/// §4.3 "Inferring or validating number of columns").
enum class ColumnCountPolicy : uint8_t {
  /// Keep everything: short records yield NULLs, excess fields are ignored.
  kRobust,
  /// Drop records whose column count differs from the expected count
  /// (schema size, or the inferred maximum when no schema is given).
  kReject,
  /// Fail parsing with a ParseError on the first inconsistent record.
  kValidate,
};

/// Wall-clock breakdown of the pipeline steps, the buckets of Fig. 9/11.
/// Each bucket sums the intervals of its phases' stage probes
/// (obs::TraceSpan; a phase's span and its `<name>_us` sample are one
/// interval):
///
///   parse      step.context.parse (multi-DFA transition vectors, or the
///              sequential entry-state walk over the register budget)
///   scan       step.context.scan + step.offset + step.tag.scan
///   tag        step.bitmap + step.tag.count + step.tag.write
///   partition  step.partition (radix sort by column, or the field
///              gather's walk, which writes the output columns)
///   convert    step.convert (CSS indexing incl. step.css_index and
///              values; table assembly alone under the field gather)
struct StepTimings {
  double parse_ms = 0;
  double scan_ms = 0;
  double tag_ms = 0;
  double partition_ms = 0;
  double convert_ms = 0;

  double TotalMs() const {
    return parse_ms + scan_ms + tag_ms + partition_ms + convert_ms;
  }
  StepTimings& operator+=(const StepTimings& other);
  std::string ToString() const;
};

/// Abstract work counters accumulated by the pipeline, consumed by the
/// analytical device model (see sim/device_model.h): bytes moved through
/// memory per step and the number of scan/sort passes executed.
struct WorkCounters {
  int64_t input_bytes = 0;
  int64_t parse_bytes_read = 0;
  /// Multi-DFA transitions of the paper's model (input bytes x DFA states,
  /// or x 1 for the sequential walk of a DFA over the register budget):
  /// the "constant factor" of extra work §3.1 trades for scalability, as
  /// the device model (src/sim) sizes it. It is not a count of executed
  /// transitions: the kernels advance the lanes a run of data symbols per
  /// shuffle and walk converged or speculated chunks one state at a time.
  int64_t dfa_transitions = 0;
  int64_t tag_bytes_written = 0;
  int64_t sort_passes = 0;
  int64_t sort_bytes_moved = 0;
  int64_t scan_elements = 0;
  int64_t convert_bytes = 0;
  int64_t output_bytes = 0;
  /// Peak bytes resident for the transposition phase, modelled
  /// deterministically from container sizes by PartitionStep: tag
  /// sidebands, sort scratch and CSS (symbol sort), or the output columns
  /// the walk writes plus its tallies (field gather). Combined with max()
  /// under operator+= — the partitions of a streaming parse reuse the
  /// footprint, they do not sum.
  int64_t transpose_peak_bytes = 0;

  WorkCounters& operator+=(const WorkCounters& other);
};

/// \brief Everything configurable about a parse (§3, §4.1, §4.3).
///
/// Inherits the consolidated tuning surface (plan/tuning.h): `kernel`,
/// `chunk_size`, `tagging_mode` and `transpose_mode` are Tuning members,
/// accessed exactly as before. Each entry point resolves the knobs still at
/// their auto sentinels (the default) once per stream, in
/// plan::PlanParse, from the DFA and the stream's length; pin any knob to
/// take it out of the planner's hands. A direct StagedParse resolves what
/// is left the same way.
struct ParseOptions : public Tuning {
  /// Parsing rules; defaults to RFC 4180 CSV when left empty (no states).
  Format format;

  /// A user-defined dialect compiled at runtime into `format` (see
  /// src/dialect). Mutually exclusive with an explicit format: every entry
  /// point resolves an engaged dialect exactly once — compiling, minimising
  /// and equivalence-proving it — before parsing, replacing `format` with
  /// the packed result. A dialect of any size parses through the same
  /// pipeline; over the SIMD register budget its context step walks the
  /// entry states sequentially (core/context_step.h).
  std::optional<dialect::DialectSpec> dialect;

  /// Output schema. Empty schema: the number of columns is inferred and
  /// every column is parsed as a string (or inferred, see infer_types).
  Schema schema;

  /// Upper bound on columns a single record may tag. Adversarial inputs (a
  /// million-delimiter row) would otherwise grow O(columns) lookup/count
  /// tables without bound inside the tagging pass; a record exceeding the
  /// limit fails the parse with a ParseError carrying the record's byte
  /// span. Must be positive.
  uint32_t max_record_columns = 1u << 16;

  /// Terminator byte for TaggingMode::kInlineTerminated; the ASCII unit
  /// separator by default (§4.1).
  uint8_t terminator = 0x1F;

  ColumnCountPolicy column_count_policy = ColumnCountPolicy::kRobust;

  /// When true, invalid DFA transitions or a non-accepting end state fail
  /// the parse with ParseError (§4.3 "Validating format").
  bool validate = false;

  /// When true and the schema is empty, column types are inferred (§4.3);
  /// otherwise inferred columns are strings.
  bool infer_types = false;

  /// Leading physical rows to prune before parsing (headers, preambles).
  /// Rows are raw lines, not records (§4.3 "Skipping rows").
  int64_t skip_rows = 0;

  /// Record indices (post row-skip) to ignore (§4.3 "Skipping records").
  std::vector<int64_t> skip_records;

  /// Column indices to ignore; their symbols are dropped after tagging and
  /// they do not appear in the output table (§4.3 "Selecting columns").
  std::vector<int> skip_columns;

  /// Input encoding; kUtf16Le inputs are transcoded by a data-parallel
  /// pre-pass (§4.2).
  TextEncoding encoding = TextEncoding::kUtf8;

  /// Field length thresholds selecting the collaboration level for value
  /// generation (§3.3): fields longer than block_collaboration_threshold
  /// use the block-level path, which copies in segments of that many bytes
  /// (so it must be positive); longer than device_collaboration_threshold
  /// the device-level path.
  size_t block_collaboration_threshold = 256;
  size_t device_collaboration_threshold = 64 * 1024;

  /// Worker pool; nullptr uses ThreadPool::Default().
  ThreadPool* pool = nullptr;

  /// Observability sinks (src/obs). Both default to null: with no sink the
  /// pipeline's instrumentation reduces to one pointer test per step, so a
  /// plain parse costs the same as before the subsystem existed. Point
  /// them at obs::MetricsRegistry::Global() / obs::Tracer::Global() (or at
  /// private instances) to collect per-step histograms, byte counters, and
  /// chrome://tracing spans; see docs/observability.md for the taxonomy.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  /// Streaming support (§4.4): when true, an unterminated trailing record
  /// is not emitted; instead ParseOutput::remainder_offset reports where it
  /// starts so the caller can prepend it to the next partition as the
  /// carry-over.
  bool exclude_trailing_record = false;

  /// What to do with malformed records (values that do not convert,
  /// non-nullable NULLs, wrong column counts under kReject). See
  /// robust::ErrorPolicy; kNull reproduces the historical behaviour
  /// (NULL value + rejected bit). kQuarantine additionally captures the
  /// record in ParseOutput::quarantine for ReparseQuarantined().
  robust::ErrorPolicy error_policy = robust::ErrorPolicy::kNull;

  /// Peak working-set budget in bytes; 0 means unlimited. A monolithic
  /// Parse() whose estimated working set (~16x input, see
  /// robust::EstimateParseMemory) exceeds the budget fails with
  /// kResourceExhausted instead of attempting the allocations; the
  /// pipelined executor, which the bulk loader and Reader run on, degrades
  /// instead — smaller partitions, fewer in flight — and never returns
  /// kResourceExhausted for the budget alone.
  int64_t memory_budget = 0;

  /// Validates the option *combination* without looking at any input.
  /// Returns an actionable InvalidArgument for conflicts that a parse
  /// would otherwise discover midway (or silently mis-handle): chunk_size
  /// bounds (Tuning::ValidateTuning), inline-terminator collisions with the
  /// format's delimiters, negative skips/budget, a zero block threshold,
  /// collaboration-threshold ordering, and policy pairs that contradict
  /// each other. Every entry point (Parser::Parse, BulkLoader, Reader,
  /// exec::PipelineExecutor) calls this exactly once up front, so deeper
  /// layers can assume a coherent configuration.
  Status Validate() const;
};

/// Multiplier over input bytes for the parse's peak working set under the
/// transpose mode plan::PlanParse resolves for the options: robust::kParseMemoryFactor (16) for
/// kSymbolSort — per-symbol tags, permutation and scratch — and
/// robust::kParseMemoryFactorFieldGather (8) for kFieldGather, whose
/// metadata is O(fields) rather than O(bytes). Feed the result to
/// robust::EstimateParseMemory / ClampPartitionSizeForBudget.
int64_t ParseWorkingSetFactor(const ParseOptions& options);

/// \brief Result of a parse: the columnar table plus instrumentation.
struct ParseOutput {
  Table table;
  StepTimings timings;
  WorkCounters work;
  /// Observed min/max columns per record (before policy application).
  uint32_t min_columns = 0;
  uint32_t max_columns = 0;
  /// Records dropped by kReject / skip_records.
  int64_t records_dropped = 0;
  /// With exclude_trailing_record: byte offset where the unterminated
  /// trailing record starts (== input size when the input ends exactly on
  /// a record boundary); -1 otherwise. Relative to the caller-provided
  /// buffer — skipped leading rows are included in the offset.
  int64_t remainder_offset = -1;
  /// Under ErrorPolicy::kQuarantine: every malformed record with its byte
  /// span and provenance. table.rejected is a view over this (bit r set
  /// iff an entry with row == r exists). Empty under other policies.
  robust::QuarantineTable quarantine;
};

}  // namespace parparaw

#endif  // PARPARAW_CORE_OPTIONS_H_
