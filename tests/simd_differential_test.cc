#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/parser.h"
#include "dfa/formats.h"
#include "dialect/dialect.h"
#include "dialect_oracle.h"
#include "simd/dispatch.h"
#include "simd/simd_kernels.h"
#include "text/unicode.h"
#include "test_util.h"
#include "workload/generators.h"

// Differential harness for the src/simd kernels: every vectorized dispatch
// level must produce bit-identical pipeline state to the scalar reference
// on arbitrary inputs. The scalar path is the ground truth (it predates the
// SIMD subsystem and is covered by the rest of the suite); each available
// level — portable SWAR, SSE4.2, AVX2, NEON — is forced explicitly via the
// SetForcedKernelLevel() test hook and compared field by field.

namespace parparaw {
namespace {

using simd::KernelLevel;

/// Forces a kernel level for the current scope; restores normal resolution
/// on destruction so a failing ASSERT cannot leak the override into later
/// tests.
class ScopedKernelLevel {
 public:
  explicit ScopedKernelLevel(KernelLevel level) {
    simd::SetForcedKernelLevel(level);
  }
  ~ScopedKernelLevel() { simd::SetForcedKernelLevel(std::nullopt); }
};

/// Every level beyond the scalar reference that this build + CPU can run.
/// kSwar is always available; arch levels depend on the translation units
/// compiled in (PARPARAW_DISABLE_SIMD) and the runtime CPU check.
std::vector<KernelLevel> AvailableVectorLevels() {
  std::vector<KernelLevel> levels = {KernelLevel::kSwar};
  for (KernelLevel level :
       {KernelLevel::kSse42, KernelLevel::kAvx2, KernelLevel::kNeon}) {
    if (simd::KernelLevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

/// Everything the context and bitmap steps produce that later steps (and
/// the final table) depend on.
struct PipelineSnapshot {
  std::vector<StateVector> transition_vectors;
  std::vector<int32_t> entry_states;
  int32_t final_state = 0;
  bool has_trailing_record = false;
  SymbolIndex symbol_index;
  std::vector<uint32_t> record_counts;
  std::vector<ColumnOffset> column_offsets;
  int64_t first_invalid_offset = -1;
};

PipelineSnapshot SnapshotThroughBitmaps(const std::string& input,
                                        const ParseOptions& options) {
  auto harness = StepHarness::Make(input, options);
  EXPECT_NE(harness, nullptr);
  PipelineSnapshot snap;
  if (harness == nullptr) return snap;
  const Status status = harness->RunThroughBitmaps();
  EXPECT_TRUE(status.ok()) << status.ToString();
  snap.transition_vectors = harness->state.transition_vectors;
  snap.entry_states = harness->state.entry_states;
  snap.final_state = harness->state.final_state;
  snap.has_trailing_record = harness->state.has_trailing_record;
  snap.symbol_index = harness->state.symbol_index;
  snap.record_counts = harness->state.record_counts;
  snap.column_offsets = harness->state.column_offsets;
  snap.first_invalid_offset = harness->state.first_invalid_offset;
  return snap;
}

std::string VectorToString(const StateVector& v) {
  std::string out = "[";
  for (int s = 0; s < v.size(); ++s) {
    if (s > 0) out += ' ';
    out += std::to_string(v.Get(s));
  }
  return out + "]";
}

/// Asserts that `got` (a vectorized level) matches `want` (scalar) exactly.
void ExpectSnapshotsEqual(const PipelineSnapshot& want,
                          const PipelineSnapshot& got,
                          const std::string& context) {
  ASSERT_EQ(want.transition_vectors.size(), got.transition_vectors.size())
      << context;
  for (size_t c = 0; c < want.transition_vectors.size(); ++c) {
    ASSERT_TRUE(want.transition_vectors[c] == got.transition_vectors[c])
        << context << " chunk " << c << ": transition vector mismatch ("
        << VectorToString(want.transition_vectors[c]) << " vs "
        << VectorToString(got.transition_vectors[c]) << ")";
  }
  ASSERT_EQ(want.entry_states, got.entry_states) << context;
  ASSERT_EQ(want.final_state, got.final_state) << context;
  ASSERT_EQ(want.has_trailing_record, got.has_trailing_record) << context;
  ASSERT_EQ(want.symbol_index.size(), got.symbol_index.size()) << context;
  for (size_t w = 0; w < want.symbol_index.size(); ++w) {
    ASSERT_EQ(want.symbol_index[w].record, got.symbol_index[w].record)
        << context << " word " << w << ": record mask mismatch";
    ASSERT_EQ(want.symbol_index[w].field, got.symbol_index[w].field)
        << context << " word " << w << ": field mask mismatch";
    ASSERT_EQ(want.symbol_index[w].control, got.symbol_index[w].control)
        << context << " word " << w << ": control mask mismatch";
  }
  ASSERT_EQ(want.record_counts, got.record_counts) << context;
  ASSERT_EQ(want.column_offsets.size(), got.column_offsets.size()) << context;
  for (size_t c = 0; c < want.column_offsets.size(); ++c) {
    ASSERT_EQ(want.column_offsets[c].value, got.column_offsets[c].value)
        << context << " chunk " << c;
    ASSERT_EQ(want.column_offsets[c].absolute, got.column_offsets[c].absolute)
        << context << " chunk " << c;
  }
  ASSERT_EQ(want.first_invalid_offset, got.first_invalid_offset) << context;
}

struct NamedFormat {
  std::string name;
  Format format;
};

/// Every registered format family: the paper's RFC 4180 DFA, DSV variants
/// covering pipes/TSV/comments/CR/escapes, and the Extended Log Format.
std::vector<NamedFormat> RegisteredFormats() {
  std::vector<NamedFormat> formats;
  auto add = [&formats](const std::string& name, Result<Format> format) {
    ASSERT_TRUE(format.ok()) << name << ": " << format.status().ToString();
    formats.push_back({name, *std::move(format)});
  };
  add("rfc4180", Rfc4180Format());
  {
    DsvOptions pipe;
    pipe.field_delimiter = '|';
    add("pipe", DsvFormat(pipe));
  }
  {
    DsvOptions tsv;
    tsv.field_delimiter = '\t';
    tsv.escape = '\\';
    tsv.strict_quotes = false;
    add("tsv_escape", DsvFormat(tsv));
  }
  {
    DsvOptions commented;
    commented.comment = '#';
    commented.skip_empty_lines = true;
    commented.ignore_carriage_return = true;
    add("comment_cr", DsvFormat(commented));
  }
  add("extended_log", ExtendedLogFormat());
  return formats;
}

/// Deterministic xorshift for input mutation (seeded, reproducible).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

 private:
  uint64_t state_;
};

/// Sprinkles multibyte UTF-8 sequences into an input so the chunk-boundary
/// AdjustBegin logic runs on every level. The result may not be valid for
/// the format — irrelevant for a differential test, every level sees the
/// same bytes.
std::string InjectUtf8(std::string input, uint64_t seed) {
  static const char* const kSamples[] = {"é", "→", "𝛑", "汉", "ß", "🚀"};
  Rng rng(seed);
  const int injections = 1 + static_cast<int>(rng.Next() % 6);
  for (int i = 0; i < injections; ++i) {
    const size_t pos = input.empty() ? 0 : rng.Next() % input.size();
    input.insert(pos, kSamples[rng.Next() % 6]);
  }
  return input;
}

/// Purely random bytes: exercises invalid transitions, never-converging
/// state vectors, and symbols outside every symbol group.
std::string RandomBytes(uint64_t seed, size_t size) {
  Rng rng(seed);
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>(rng.Next() & 0xFF);
  }
  return out;
}

std::string InputForSeed(const NamedFormat& format, uint64_t seed) {
  const uint64_t category = seed % 8;
  if (category == 6) return RandomBytes(seed, 64 + seed % 512);
  if (format.name == "extended_log") {
    std::string input = GenerateLogLike(seed, 256 + seed % 512);
    if (category == 7) return InjectUtf8(std::move(input), seed);
    return input;
  }
  RandomCsvOptions options;
  options.num_records = 3 + static_cast<int>(seed % 20);
  options.num_columns = 1 + static_cast<int>(seed % 7);
  options.quote_probability = (seed % 5) * 0.2;
  options.embedded_delimiter_probability = (seed % 3) * 0.3;
  options.escaped_quote_probability = (seed % 4) * 0.25;
  options.ragged_probability = (seed % 2) * 0.3;
  options.trailing_newline = (seed % 3) != 0;
  std::string input = GenerateRandomCsv(seed, options);
  if (format.format.field_delimiter != ',') {
    for (char& ch : input) {
      if (ch == ',') ch = static_cast<char>(format.format.field_delimiter);
    }
  }
  if (category == 7) return InjectUtf8(std::move(input), seed);
  return input;
}

size_t ChunkSizeForSeed(uint64_t seed) {
  static const size_t kChunkSizes[] = {1, 2, 3, 5, 7, 16, 31, 64};
  return kChunkSizes[seed % 8];
}

// The headline sweep: >= 10k seeded inputs, every registered format, every
// available dispatch level compared byte-for-byte against scalar.
TEST(SimdDifferentialTest, AllLevelsMatchScalarOnSeededInputs) {
  const std::vector<KernelLevel> levels = AvailableVectorLevels();
  ASSERT_FALSE(levels.empty());
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  // 2048 seeds x 5 formats = 10240 distinct inputs.
  constexpr uint64_t kSeedsPerFormat = 2048;
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < kSeedsPerFormat; ++seed) {
      const std::string input = InputForSeed(format, seed);
      ParseOptions options;
      options.format = format.format;
      options.chunk_size = ChunkSizeForSeed(seed);

      PipelineSnapshot reference;
      {
        ScopedKernelLevel force(KernelLevel::kScalar);
        reference = SnapshotThroughBitmaps(input, options);
      }
      for (KernelLevel level : levels) {
        ScopedKernelLevel force(level);
        const PipelineSnapshot got = SnapshotThroughBitmaps(input, options);
        const std::string context = format.name + " seed " +
                                    std::to_string(seed) + " level " +
                                    simd::KernelLevelName(level);
        ASSERT_NO_FATAL_FAILURE(ExpectSnapshotsEqual(reference, got, context));
      }
    }
  }
}

// End-to-end differential: the final tables (not just the intermediate
// bitmaps) are identical for every level, across tagging modes and column
// count policies.
TEST(SimdDifferentialTest, FinalTablesMatchScalar) {
  const std::vector<KernelLevel> levels = AvailableVectorLevels();
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (const NamedFormat& format : formats) {
    if (format.name == "extended_log") continue;  // covered by the sweep
    for (uint64_t seed = 0; seed < 64; ++seed) {
      const std::string input = InputForSeed(format, seed * 13 + 1);
      ParseOptions options;
      options.format = format.format;
      options.chunk_size = ChunkSizeForSeed(seed);
      options.tagging_mode = static_cast<TaggingMode>(seed % 3);
      if (options.tagging_mode != TaggingMode::kRecordTags) {
        options.column_count_policy = ColumnCountPolicy::kReject;
      }

      Result<ParseOutput> reference = [&] {
        ScopedKernelLevel force(KernelLevel::kScalar);
        return Parser::Parse(input, options);
      }();
      for (KernelLevel level : levels) {
        ScopedKernelLevel force(level);
        Result<ParseOutput> got = Parser::Parse(input, options);
        const std::string context = format.name + " seed " +
                                    std::to_string(seed) + " level " +
                                    simd::KernelLevelName(level);
        ASSERT_EQ(reference.ok(), got.ok()) << context;
        if (!reference.ok()) continue;
        ASSERT_TRUE(reference->table.Equals(got->table)) << context;
        ASSERT_EQ(reference->min_columns, got->min_columns) << context;
        ASSERT_EQ(reference->max_columns, got->max_columns) << context;
        ASSERT_EQ(reference->records_dropped, got->records_dropped) << context;
      }
    }
  }
}

// Projection axis: every level's field gather, with seeded skip sets
// (exactly one kept column, only the last, a random set reaching past the
// records' width), against the scalar level's symbol sort, the reference
// of both harnesses. The gather's walks jump over the skipped columns in
// the masks each level wrote.
TEST(SimdDifferentialTest, ProjectionAxisMatchesScalarSymbolSort) {
  const std::vector<KernelLevel> levels = AvailableVectorLevels();
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  int projected = 0;
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < 96; ++seed) {
      const std::string input = InputForSeed(format, seed * 11 + 4);
      ParseOptions options;
      options.format = format.format;
      options.chunk_size = ChunkSizeForSeed(seed);
      options.tagging_mode = static_cast<TaggingMode>(seed % 3);
      if (options.tagging_mode != TaggingMode::kRecordTags) {
        options.column_count_policy = ColumnCountPolicy::kReject;
      }
      options.error_policy = static_cast<robust::ErrorPolicy>((seed / 3) % 4);
      Rng rng(seed + 101);
      const int width = 1 + static_cast<int>(seed % 7);
      const int keep = static_cast<int>(rng.Next() % width);
      for (int j = 0; j < width + 2; ++j) {
        const bool skipped = (seed / 4) % 3 == 0   ? j != keep
                             : (seed / 4) % 3 == 1 ? j + 1 != width
                                                   : rng.Next() % 2 == 0;
        if (skipped) options.skip_columns.push_back(j);
      }

      options.transpose_mode = TransposeMode::kSymbolSort;
      Result<ParseOutput> reference = [&] {
        ScopedKernelLevel force(KernelLevel::kScalar);
        return Parser::Parse(input, options);
      }();
      options.transpose_mode = TransposeMode::kFieldGather;
      for (KernelLevel level : levels) {
        ScopedKernelLevel force(level);
        Result<ParseOutput> got = Parser::Parse(input, options);
        const std::string context = format.name + " seed " +
                                    std::to_string(seed) + " level " +
                                    simd::KernelLevelName(level);
        ASSERT_EQ(reference.ok(), got.ok()) << context;
        if (!reference.ok()) {
          ASSERT_EQ(reference.status().ToString(), got.status().ToString())
              << context;
          continue;
        }
        ASSERT_TRUE(reference->table.Equals(got->table)) << context;
        ASSERT_EQ(reference->records_dropped, got->records_dropped)
            << context;
        ASSERT_EQ(reference->quarantine.size(), got->quarantine.size())
            << context;
        projected += reference->table.num_rows > 0;
      }
    }
  }
  EXPECT_GT(projected, 200);
}

// Validation must fire identically: same ParseError offsets whether the
// invalid transition is found by the scalar walk, the fused converged
// phase, or the bitmap step's head walk.
TEST(SimdDifferentialTest, ValidationFailuresMatchScalar) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  const NamedFormat& rfc = formats[0];
  for (uint64_t seed = 0; seed < 256; ++seed) {
    // Quote dropped into an unquoted field: strict RFC 4180 invalid input.
    std::string input = InputForSeed(rfc, seed);
    Rng rng(seed + 77);
    if (!input.empty()) input[rng.Next() % input.size()] = '"';
    ParseOptions options;
    options.format = rfc.format;
    options.chunk_size = ChunkSizeForSeed(seed);
    options.validate = true;

    Result<ParseOutput> reference = [&] {
      ScopedKernelLevel force(KernelLevel::kScalar);
      return Parser::Parse(input, options);
    }();
    for (KernelLevel level : AvailableVectorLevels()) {
      ScopedKernelLevel force(level);
      Result<ParseOutput> got = Parser::Parse(input, options);
      const std::string context =
          "seed " + std::to_string(seed) + " level " +
          simd::KernelLevelName(level);
      ASSERT_EQ(reference.ok(), got.ok()) << context;
      if (!reference.ok()) {
        // Identical first-invalid offset implies identical message.
        ASSERT_EQ(reference.status().ToString(), got.status().ToString())
            << context;
      }
    }
  }
}

// Generated-dialect axis: seeded random DialectSpecs (src/dialect) whose
// compiled formats drive the same per-level sweep — the SIMD kernels must
// be bit-identical to scalar on runtime-compiled DFAs (multi-byte record
// delimiters, backslash escapes, fixed-width inclusive boundaries), not
// just on the hand-written built-ins. A fixed-width record of 15 bytes or
// more exceeds the register budget (one state per byte, plus EOL and INV);
// every level then takes the context step's sequential walk. The scalar
// reference itself must match the automaton-walk oracle.
// PARPARAW_DIALECT_SEEDS overrides the seed count (default 48) for deeper
// sweeps (scripts/check.sh dialects).
dialect::DialectSpec DialectSpecForSeed(uint64_t seed) {
  Rng rng(seed * 257 + 11);
  dialect::DialectSpec spec;
  spec.name = "gen-" + std::to_string(seed);
  if (rng.Next() % 4 == 0) {
    const int fields = 1 + static_cast<int>(rng.Next() % 3);
    for (int f = 0; f < fields; ++f) {
      spec.fixed_widths.push_back(1 + static_cast<int>(rng.Next() % 16));
    }
    spec.quote = 0;
    return spec;
  }
  static const uint8_t kFieldDelims[] = {',', ';', '\t', '|'};
  static const char* const kRecordDelims[] = {"\n", "\r\n", "%$"};
  spec.field_delimiter = kFieldDelims[rng.Next() % 4];
  spec.record_delimiter = kRecordDelims[rng.Next() % 3];
  spec.quote = (rng.Next() % 4 == 0) ? 0 : '"';
  spec.escape_style = (rng.Next() % 2 == 0)
                          ? dialect::EscapeStyle::kDoubledQuote
                          : dialect::EscapeStyle::kBackslash;
  spec.comment = (rng.Next() % 3 == 0) ? '#' : 0;
  spec.skip_empty_lines = rng.Next() % 2 == 0;
  spec.strict_quotes = rng.Next() % 2 == 0;
  return spec;
}

std::string DialectInputForSeed(const dialect::DialectSpec& spec,
                                uint64_t seed) {
  Rng rng(seed + 5);
  if (!spec.fixed_widths.empty()) {
    int64_t width = 0;
    for (int w : spec.fixed_widths) width += w;
    std::string input;
    const int records = 4 + static_cast<int>(seed % 12);
    for (int r = 0; r < records; ++r) {
      for (int64_t i = 0; i < width; ++i) {
        input.push_back(static_cast<char>('a' + rng.Next() % 26));
      }
      // A few broken records exercise the trap state across levels.
      if (rng.Next() % 7 == 0) input.pop_back();
      input += spec.record_delimiter;
    }
    return input;
  }
  std::string input = InputForSeed({spec.name, Format{}}, seed);
  if (spec.field_delimiter != ',' && spec.field_delimiter != 0) {
    for (char& ch : input) {
      if (ch == ',') ch = static_cast<char>(spec.field_delimiter);
    }
  }
  if (spec.record_delimiter != "\n") {
    std::string rewritten;
    rewritten.reserve(input.size() * 2);
    for (char ch : input) {
      if (ch == '\n') {
        rewritten += spec.record_delimiter;
      } else {
        rewritten.push_back(ch);
      }
    }
    input = std::move(rewritten);
  }
  return input;
}

TEST(SimdDifferentialTest, GeneratedDialectsMatchScalarAcrossLevels) {
  const std::vector<KernelLevel> levels = AvailableVectorLevels();
  const char* env = std::getenv("PARPARAW_DIALECT_SEEDS");
  const uint64_t seeds =
      env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 48;
  int swept = 0;
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    const dialect::DialectSpec spec = DialectSpecForSeed(seed);
    auto compiled = dialect::Compile(spec);
    ASSERT_TRUE(compiled.ok()) << spec.name << ": "
                               << compiled.status().ToString();
    const std::string input = DialectInputForSeed(spec, seed);
    ParseOptions options;
    options.dialect = spec;
    options.chunk_size = ChunkSizeForSeed(seed);

    Result<ParseOutput> reference = [&] {
      ScopedKernelLevel force(KernelLevel::kScalar);
      return Parser::Parse(input, options);
    }();
    ParseOptions walk_options = options;
    walk_options.dialect.reset();
    const Result<OracleParse> oracle =
        AutomatonWalkParse(input, compiled->automaton,
                           spec.record_delimiter_final(), walk_options);
    ASSERT_TRUE(oracle.ok()) << spec.name << ": "
                             << oracle.status().ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
        reference, *oracle, robust::ErrorPolicy::kNull, input,
        spec.name + " scalar vs oracle"));
    for (KernelLevel level : levels) {
      ScopedKernelLevel force(level);
      Result<ParseOutput> got = Parser::Parse(input, options);
      const std::string context = spec.name + " level " +
                                  simd::KernelLevelName(level);
      ASSERT_EQ(reference.ok(), got.ok()) << context;
      if (!reference.ok()) {
        ASSERT_EQ(reference.status().ToString(), got.status().ToString())
            << context;
        continue;
      }
      ASSERT_TRUE(reference->table.Equals(got->table)) << context;
      ASSERT_EQ(reference->min_columns, got->min_columns) << context;
      ASSERT_EQ(reference->max_columns, got->max_columns) << context;
    }
    ++swept;
  }
  EXPECT_GT(swept, static_cast<int>(seeds / 2));
}

// Planner axis: a planned parse (every knob at its auto sentinel, knobs
// decided from the DFA and the input's length) must be bit-identical to
// the same options with the paper's 31-byte chunk pinned on every seeded
// input — the plan is a performance decision, never a semantic one.
TEST(SimdDifferentialTest, PlannedParsesMatchStaticDefaults) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < 256; ++seed) {
      const std::string input = InputForSeed(format, seed * 7 + 3);
      ParseOptions options;
      options.format = format.format;
      // Alternate the reject policy: the planned tagging must keep every
      // record the pinned configuration keeps under both policies.
      options.column_count_policy = (seed % 2) != 0
                                        ? ColumnCountPolicy::kReject
                                        : ColumnCountPolicy::kRobust;

      ParseOptions unplanned = options;
      unplanned.chunk_size = 31;
      const ParseOptions& planned = options;

      const Result<ParseOutput> want = Parser::Parse(input, unplanned);
      const Result<ParseOutput> got = Parser::Parse(input, planned);
      const std::string context =
          format.name + " seed " + std::to_string(seed);
      ASSERT_EQ(want.ok(), got.ok())
          << context << ": "
          << (want.ok() ? got.status() : want.status()).ToString();
      if (!want.ok()) continue;
      ASSERT_TRUE(want->table.Equals(got->table)) << context;
      ASSERT_EQ(want->min_columns, got->min_columns) << context;
      ASSERT_EQ(want->max_columns, got->max_columns) << context;
      ASSERT_EQ(want->records_dropped, got->records_dropped) << context;
      ASSERT_EQ(want->remainder_offset, got->remainder_offset) << context;
    }
  }
}

// The arch levels this build claims must actually resolve to themselves —
// a level that silently degrades would turn the whole differential suite
// into swar-vs-swar.
TEST(SimdDifferentialTest, ForcedLevelsResolveExactly) {
  for (KernelLevel level : AvailableVectorLevels()) {
    ScopedKernelLevel force(level);
    EXPECT_EQ(simd::ResolveKernelLevel(simd::KernelKind::kAuto), level);
    // The test hook outranks even an explicit scalar request.
    EXPECT_EQ(simd::ResolveKernelLevel(simd::KernelKind::kScalar), level);
  }
  // The hook outranks the PARPARAW_FORCE_KERNEL environment override too.
  {
    ScopedKernelLevel force(KernelLevel::kScalar);
    EXPECT_EQ(simd::ResolveKernelLevel(simd::KernelKind::kAuto),
              KernelLevel::kScalar);
  }
  // With the hook cleared, an explicit scalar request resolves to scalar —
  // unless the environment override is active (scripts/check.sh kernel
  // sweep), which by design outranks the request.
  if (std::getenv("PARPARAW_FORCE_KERNEL") == nullptr) {
    EXPECT_EQ(simd::ResolveKernelLevel(simd::KernelKind::kScalar),
              KernelLevel::kScalar);
  }
}

}  // namespace
}  // namespace parparaw
