#include "plan/planner.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dfa/formats.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "robust/failpoint.h"
#include "simd/simd_kernels.h"

namespace parparaw::plan {

namespace {

/// Chunk size of the convergence probe. Deliberately mid-range: small
/// enough that a converging input converges within most probe chunks,
/// large enough that the measured convergence depth separates "converges
/// almost immediately" (large chunks are nearly free) from "converges
/// eventually" (mid-size chunks only).
constexpr size_t kProbeChunk = 256;

/// Complete records the sample must contain before min == max column
/// counts are believed to generalise to the stream.
constexpr int64_t kMinRecordsForUniformity = 8;

/// Caps on the measurement work, so planning stays well under 1% of the
/// parse it tunes: the exact flag walk (record structure) covers at most
/// this prefix of the sample, and at most kMaxProbeChunks probe chunks are
/// run, strided evenly across the whole sample so a long prefix still
/// contributes evidence. Both caps are deterministic functions of the
/// sample length, so identical bytes keep producing identical stats.
constexpr size_t kMaxWalkBytes = 64 * 1024;
constexpr int64_t kMaxProbeChunks = 128;

/// Decision thresholds (see docs/tuning.md for the derivation from
/// BENCH_simd.json): the SWAR kernel only beats the scalar reference when
/// speculation converges on most chunks or special symbols are sparse
/// enough for word-probe skipping.
constexpr double kSwarConvergenceThreshold = 0.5;
constexpr double kSwarSpecialDensityThreshold = 0.05;

const char* KernelKindName(simd::KernelKind kind) {
  switch (kind) {
    case simd::KernelKind::kAuto:
      return "auto";
    case simd::KernelKind::kScalar:
      return "scalar";
    case simd::KernelKind::kSimd:
      return "simd";
  }
  return "unknown";
}

const char* TaggingModeName(TaggingMode mode) {
  switch (mode) {
    case TaggingMode::kRecordTags:
      return "record_tags";
    case TaggingMode::kInlineTerminated:
      return "inline_terminated";
    case TaggingMode::kVectorDelimited:
      return "vector_delimited";
    case TaggingMode::kAuto:
      return "auto";
  }
  return "unknown";
}

const char* TransposeModeName(TransposeMode mode) {
  switch (mode) {
    case TransposeMode::kAuto:
      return "auto";
    case TransposeMode::kFieldGather:
      return "field_gather";
    case TransposeMode::kSymbolSort:
      return "symbol_sort";
  }
  return "unknown";
}

/// True when at least one knob is still at its auto sentinel, i.e. the
/// planner has something to decide.
bool AnyKnobAuto(const ParseOptions& options) {
  return options.kernel == simd::KernelKind::kAuto ||
         options.chunk_size == 0 ||
         options.tagging_mode == TaggingMode::kAuto ||
         options.transpose_mode == TransposeMode::kAuto;
}

void AppendReason(std::string* reason, const std::string& line) {
  if (!reason->empty()) reason->push_back('\n');
  reason->append(line);
}

/// The level a kernel request resolves to for `dfa`: a DFA over the
/// register budget always takes the context step's sequential walk, which
/// is the scalar level.
simd::KernelLevel KernelLevelFor(const Dfa& dfa, simd::KernelKind kernel) {
  return dfa.fits_register_budget() ? simd::ResolveKernelLevel(kernel)
                                    : simd::KernelLevel::kScalar;
}

/// Measures the sampled prefix with the exact flag walk over the DFA's
/// tables and, for a DFA within the register budget (kernel_plan
/// non-null), the portable SWAR kernel's convergence probe. Everything
/// here is counted, never timed, so the stats — and every decision derived
/// from them — are reproducible.
SampleStats MeasureSample(std::string_view sample, bool truncated,
                          const Dfa& dfa,
                          const simd::KernelPlan* kernel_plan) {
  SampleStats stats;
  stats.sample_bytes = static_cast<int64_t>(sample.size());
  stats.truncated = truncated;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(sample.data());
  const size_t n = sample.size();
  if (n == 0) return stats;

  // Exact flag walk from the start state: the ground-truth symbol classes
  // for record/field structure, unaffected by speculation. Capped at a
  // prefix — record shape is established within a few thousand records.
  const size_t walk_bytes = std::min(n, kMaxWalkBytes);
  std::vector<simd::SymbolMasks> masks(simd::MaskWordsFor(n));
  simd::MaskWriter out(masks.data(), 0, walk_bytes);
  int state = dfa.start_state();
  for (size_t i = 0; i < walk_bytes; ++i) {
    const int group = dfa.SymbolGroup(data[i]);
    out.Set(i, dfa.Flags(state, group));
    state = dfa.NextState(state, group);
  }
  out.Finish();

  const int catchall_group = dfa.num_symbol_groups() - 1;
  int64_t special_bytes = 0;
  for (size_t i = 0; i < walk_bytes; ++i) {
    if (dfa.SymbolGroup(data[i]) != catchall_group) ++special_bytes;
  }
  stats.special_density = static_cast<double>(special_bytes) /
                          static_cast<double>(walk_bytes);

  // Record structure over *complete* records only: a record's stats are
  // finalised on its record delimiter, so a truncated trailing record never
  // skews the counts.
  uint32_t fields_in_record = 0;
  size_t record_start = 0;
  int64_t record_bytes = 0;
  simd::ForEachMaskWord(0, walk_bytes, [&](size_t w, uint64_t keep) {
    const simd::SymbolMasks& m = masks[w];
    for (uint64_t ends = (m.record | m.field) & keep; ends != 0;
         ends &= ends - 1) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(ends));
      if ((m.field >> b) & 1) ++fields_in_record;
      if ((m.record >> b) & 1) {
        const uint32_t columns = fields_in_record + 1;
        if (stats.records == 0) {
          stats.min_columns = stats.max_columns = columns;
        } else {
          stats.min_columns = std::min(stats.min_columns, columns);
          stats.max_columns = std::max(stats.max_columns, columns);
        }
        ++stats.records;
        stats.fields += columns;
        const size_t i = 64 * w + b;
        record_bytes += static_cast<int64_t>(i + 1 - record_start);
        record_start = i + 1;
        fields_in_record = 0;
      }
    }
  });
  if (stats.records > 0) {
    stats.mean_record_length = static_cast<double>(record_bytes) /
                               static_cast<double>(stats.records);
    stats.mean_field_length = static_cast<double>(record_bytes) /
                              static_cast<double>(stats.fields);
    stats.uniform_columns = stats.min_columns == stats.max_columns &&
                            stats.records >= kMinRecordsForUniformity;
  }

  // Convergence probe: run the SWAR kernel chunk by chunk and record where
  // (and whether) the lanes merged into one live state; a chunk the kernel
  // only speculated on does not count. The portable kernel keeps
  // the measurement machine-independent. Only full probe chunks count — a
  // short tail converges trivially and would skew the fraction — and at
  // most kMaxProbeChunks are run, strided evenly so a large sample is
  // probed across its whole length instead of just its head. A DFA over
  // the register budget has no kernel to probe.
  if (kernel_plan == nullptr) return stats;
  int64_t depth_sum = 0;
  const size_t full_chunks = n / kProbeChunk;
  const size_t stride =
      std::max<size_t>(1, full_chunks / static_cast<size_t>(kMaxProbeChunks)) *
      kProbeChunk;
  for (size_t begin = 0; begin + kProbeChunk <= n; begin += stride) {
    const size_t end = begin + kProbeChunk;
    const simd::ChunkKernelResult result =
        simd::internal::ChunkKernelSwar(*kernel_plan, data, begin, end,
                                        masks.data());
    ++stats.probe_chunks;
    if (result.spec_offset >= 0 && !result.speculated) {
      ++stats.converged_chunks;
      depth_sum += result.spec_offset - static_cast<int64_t>(begin);
    }
  }
  if (stats.probe_chunks > 0) {
    stats.convergence_fraction = static_cast<double>(stats.converged_chunks) /
                                 static_cast<double>(stats.probe_chunks);
  }
  if (stats.converged_chunks > 0) {
    stats.mean_convergence_depth = static_cast<double>(depth_sum) /
                                   static_cast<double>(stats.converged_chunks);
  }
  return stats;
}

}  // namespace

std::string SampleStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sampled=%lldB%s probe_chunks=%lld convergence=%.0f%% "
                "depth=%.1fB specials=%.1f%% records=%lld rec_len=%.1fB "
                "columns=[%u,%u]%s",
                static_cast<long long>(sample_bytes),
                truncated ? " (prefix)" : "",
                static_cast<long long>(probe_chunks),
                convergence_fraction * 100.0, mean_convergence_depth,
                special_density * 100.0, static_cast<long long>(records),
                mean_record_length, min_columns, max_columns,
                uniform_columns ? " uniform" : "");
  return buf;
}

std::string ParsePlan::Explain() const {
  std::string out = "plan: kernel=";
  out += KernelKindName(kernel);
  out += '(';
  out += simd::KernelLevelName(kernel_level);
  out += ") chunk=";
  out += std::to_string(chunk_size);
  out += " tagging=";
  out += TaggingModeName(tagging_mode);
  out += " transpose=";
  out += TransposeModeName(transpose_mode);
  out += " partition=";
  out += partition_size == 0 ? std::string("default")
                             : std::to_string(partition_size);
  out += planned ? " [planned]" : fallback ? " [fallback]" : " [static]";
  if (planned) {
    out += "\nstats: ";
    out += stats.ToString();
  }
  if (!reason.empty()) {
    out += "\nreason: ";
    out += reason;
  }
  return out;
}

ParsePlan StaticPlan(const ParseOptions& options) {
  ParsePlan plan;
  plan.kernel = options.kernel == simd::KernelKind::kAuto
                    ? simd::KernelKind::kSimd
                    : options.kernel;
  plan.kernel_level = KernelLevelFor(options.format.dfa, plan.kernel);
  plan.chunk_size = options.chunk_size == 0 ? 31 : options.chunk_size;
  plan.tagging_mode = EffectiveTaggingMode(options);
  plan.transpose_mode = EffectiveTransposeMode(options);
  plan.partition_size = options.partition_size;
  plan.planned = false;
  return plan;
}

Result<ParsePlan> PlanParse(std::string_view sample, bool sample_truncated,
                            const ParseOptions& options) {
  PARPARAW_FAILPOINT("plan.sample");
  if (options.dialect.has_value() && options.format.dfa.num_states() == 0) {
    return Status::Invalid(
        "PlanParse needs the dialect resolved into the format first");
  }
  Format format = options.format;
  if (format.dfa.num_states() == 0) {
    PARPARAW_ASSIGN_OR_RETURN(format, Rfc4180Format());
  }
  const Dfa& dfa = format.dfa;
  const bool in_budget = dfa.fits_register_budget();
  std::optional<simd::KernelPlan> kernel_plan;
  if (in_budget) kernel_plan.emplace(simd::BuildKernelPlan(dfa));

  const size_t budget = options.sample_budget;
  const bool clipped = sample.size() > budget;
  std::string_view clipped_sample =
      clipped ? sample.substr(0, budget) : sample;

  ParsePlan plan = StaticPlan(options);
  plan.planned = true;
  plan.stats = MeasureSample(clipped_sample, sample_truncated || clipped, dfa,
                             kernel_plan ? &*kernel_plan : nullptr);
  const SampleStats& stats = plan.stats;

  PARPARAW_FAILPOINT("plan.decide");

  // Kernel: a real vector ISA amortises the multi-lane walk so thoroughly
  // that it wins regardless of convergence (BENCH_simd.json: 3-6x). The
  // portable SWAR kernel, however, loses to the scalar reference unless
  // speculation converges on most chunks or specials are sparse enough for
  // word skipping (0.63x on yelp/taxi vs 5.9x on lineitem).
  if (options.kernel == simd::KernelKind::kAuto) {
    const simd::KernelLevel best = simd::DetectBestKernelLevel();
    if (!in_budget) {
      plan.kernel = simd::KernelKind::kScalar;
      AppendReason(&plan.reason,
                   "kernel=scalar: " + std::to_string(dfa.num_states()) +
                       " states / " + std::to_string(dfa.num_symbols()) +
                       " symbols exceed the register budget, so the "
                       "context step walks the entry states sequentially");
    } else if (best != simd::KernelLevel::kSwar &&
        best != simd::KernelLevel::kScalar) {
      plan.kernel = simd::KernelKind::kSimd;
      AppendReason(&plan.reason,
                   std::string("kernel=simd: vector ISA available (") +
                       simd::KernelLevelName(best) + ")");
    } else if (stats.convergence_fraction >= kSwarConvergenceThreshold ||
               stats.special_density <= kSwarSpecialDensityThreshold) {
      plan.kernel = simd::KernelKind::kSimd;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "kernel=simd(swar): convergence %.0f%% / specials %.1f%% "
                    "favour the speculative kernel",
                    stats.convergence_fraction * 100.0,
                    stats.special_density * 100.0);
      AppendReason(&plan.reason, line);
    } else {
      plan.kernel = simd::KernelKind::kScalar;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "kernel=scalar: convergence %.0f%% and specials %.1f%% "
                    "defeat SWAR speculation",
                    stats.convergence_fraction * 100.0,
                    stats.special_density * 100.0);
      AppendReason(&plan.reason, line);
    }
    plan.kernel_level = KernelLevelFor(dfa, plan.kernel);
  }

  // Chunk size: chunks are both the speculation granularity and the unit
  // the composite-operator scan runs over, and on the CPU substrate the
  // per-chunk scan overhead dominates — the measured grid (BENCH_simd.json,
  // BENCH_autotune.json) has kilobyte chunks beating the paper's 31 bytes
  // on every corpus and kernel. Convergence decides how far to push:
  // converging lanes make large chunks outright free (lineitem), while a
  // never-converging state vector (taxi) re-simulates each chunk's prefix,
  // so the non-convergent choice stays a step smaller. The 31-byte default
  // survives only where the sample carries no probe evidence at all: it is
  // the paper's Fig. 9 setting and keeps tiny inputs maximally parallel.
  if (options.chunk_size == 0) {
    size_t chunk = 31;
    const char* why = "sample shorter than one probe chunk: paper default 31";
    if (!in_budget) {
      chunk = 1024;
      why = "sequential entry-state walk: amortise the per-chunk overhead "
            "of the chunk-parallel steps";
    } else if (stats.probe_chunks == 0) {
      // Keep the default reason.
    } else if (plan.kernel_level == simd::KernelLevel::kScalar) {
      chunk = 1024;
      why = "scalar walk: no speculation to misprice, amortise the "
            "per-chunk scan overhead";
    } else if (stats.convergence_fraction >= 0.5) {
      chunk = 4096;
      why = "lanes converge on >=50% of chunks: large chunks are free";
    } else {
      chunk = 2048;
      why = "speculation rarely converges: amortise the per-chunk scan "
            "overhead but halve the re-simulated span";
    }
    plan.chunk_size = chunk;
    AppendReason(&plan.reason, std::string("chunk=") + std::to_string(chunk) +
                                   ": " + why);
  }

  // Tagging: the 4-byte-per-symbol record tags are the robust default.
  // kVectorDelimited drops the sideband to 1 byte per symbol but requires a
  // consistent column count; it is only safe when the caller already runs
  // the reject policy (inconsistent records are dropped either way) and the
  // sample shows uniform columns. Never auto-select kInlineTerminated: its
  // correctness depends on the terminator byte not occurring in *unseen*
  // data, which no sample can prove.
  if (options.tagging_mode == TaggingMode::kAuto) {
    if (options.column_count_policy == ColumnCountPolicy::kReject &&
        stats.uniform_columns) {
      plan.tagging_mode = TaggingMode::kVectorDelimited;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "tagging=vector_delimited: %lld sampled records all have "
                    "%u columns under the reject policy",
                    static_cast<long long>(stats.records), stats.min_columns);
      AppendReason(&plan.reason, line);
    } else {
      plan.tagging_mode = TaggingMode::kRecordTags;
    }
  }

  // Transpose: the field-gather path is the CPU-substrate winner across
  // every corpus benchmarked (BENCH_transpose.json); the planner keeps the
  // static resolution (which also honours PARPARAW_TRANSPOSE_MODE).
  // Partition size: 0 defers to the entry point's 64 MB budget-clamped
  // default — the clamp already adapts to memory_budget, and the sample
  // carries no signal that beats it.

  return plan;
}

void ApplyPlan(const ParsePlan& plan, ParseOptions* options) {
  options->kernel = plan.kernel;
  options->chunk_size = plan.chunk_size;
  options->tagging_mode = plan.tagging_mode;
  options->transpose_mode = plan.transpose_mode;
  options->partition_size = plan.partition_size;
  // Plan once per stream: downstream entry points (the per-partition
  // Parser::Parse of a streaming parse) see only pinned knobs.
  options->planner = PlannerMode::kDisabled;
}

Result<ParsePlan> PlanStream(std::string_view sample, bool sample_truncated,
                             ParseOptions* options) {
  if (options->planner == PlannerMode::kDisabled) {
    return StaticPlan(*options);
  }
  if (!AnyKnobAuto(*options)) {
    // Everything pinned (only reachable under kAuto; kForce rejects pins in
    // Validate): nothing to decide, skip the sampling cost.
    return StaticPlan(*options);
  }
  obs::TraceSpan span(options->tracer, "plan", "plan",
                      static_cast<int64_t>(sample.size()));
  obs::AddCount(options->metrics, "plan.runs", 1);
  Result<ParsePlan> planned = PlanParse(sample, sample_truncated, *options);
  if (!planned.ok()) {
    if (options->planner == PlannerMode::kForce) {
      return planned.status().WithContext("planner forced but sampling failed");
    }
    // kAuto degrades silently: the static defaults are always correct, the
    // plan was only ever a performance upgrade.
    obs::AddCount(options->metrics, "plan.fallback", 1);
    ParsePlan fallback = StaticPlan(*options);
    fallback.fallback = true;
    fallback.reason = planned.status().ToString();
    ApplyPlan(fallback, options);
    return fallback;
  }
  ParsePlan plan = std::move(planned).ValueOrDie();
  obs::AddCount(options->metrics, "plan.sampled_bytes",
                plan.stats.sample_bytes);
  obs::SetGauge(options->metrics, "plan.chunk_size",
                static_cast<int64_t>(plan.chunk_size));
  obs::SetGauge(options->metrics, "plan.convergence_pct",
                static_cast<int64_t>(plan.stats.convergence_fraction * 100.0));
  obs::AddCount(options->metrics,
                plan.kernel == simd::KernelKind::kScalar
                    ? "plan.kernel.scalar"
                    : "plan.kernel.simd",
                1);
  if (plan.tagging_mode == TaggingMode::kVectorDelimited) {
    obs::AddCount(options->metrics, "plan.tagging.vector_delimited", 1);
  }
  ApplyPlan(plan, options);
  return plan;
}

}  // namespace parparaw::plan
