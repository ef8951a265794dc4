#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/parser.h"
#include "dfa/formats.h"
#include "dialect/dialect.h"
#include "dialect_oracle.h"
#include "exec/executor.h"
#include "parallel/thread_pool.h"
#include "robust/failpoint.h"
#include "test_util.h"
#include "workload/generators.h"

// Differential harness for the transposition modes: the field-gather path
// (TransposeMode::kFieldGather, the default) must produce bit-identical
// output to the paper's symbol-sort path (kSymbolSort) on arbitrary
// inputs. The symbol sort is the ground truth — it predates the gather
// subsystem and mirrors the paper's §3.3 construction directly — and the
// two are compared end to end across formats, tagging modes, error
// policies, partition sizes, and injected gather-allocation faults.

namespace parparaw {
namespace {

using robust::ErrorPolicy;
using robust::FailpointRegistry;

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

/// Purely random bytes: exercises dropped records, zero-length fields and
/// symbols outside every symbol group. Both modes see the same bytes.
std::string RandomBytes(uint64_t seed, size_t size) {
  Rng rng(seed);
  std::string out(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>(rng.Next() & 0xFF);
  }
  return out;
}

/// A seeded random CSV of `num_records` records in the format's field
/// delimiter; the other generator knobs rotate with the seed.
std::string RandomCsvForSeed(const NamedFormat& format, uint64_t seed,
                             int num_records) {
  RandomCsvOptions options;
  options.num_records = num_records;
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
  return input;
}

std::string InputForSeed(const NamedFormat& format, uint64_t seed) {
  const uint64_t category = seed % 8;
  if (category == 6) return RandomBytes(seed, 64 + seed % 512);
  if (format.name == "extended_log") {
    return GenerateLogLike(seed, 256 + seed % 512);
  }
  return RandomCsvForSeed(format, seed, 3 + static_cast<int>(seed % 20));
}

size_t ChunkSizeForSeed(uint64_t seed) {
  static const size_t kChunkSizes[] = {1, 2, 3, 5, 7, 16, 31, 64};
  return kChunkSizes[seed % 8];
}

/// The per-seed option axes: tagging mode and error policy rotate with the
/// seed so the sweep covers the full cross product over a few thousand
/// inputs. Non-record-tag modes require consistent column counts, so they
/// ride with the reject policy (same convention as the SIMD harness).
ParseOptions OptionsForSeed(const NamedFormat& format, uint64_t seed) {
  ParseOptions options;
  options.format = format.format;
  options.chunk_size = ChunkSizeForSeed(seed);
  options.tagging_mode = static_cast<TaggingMode>(seed % 3);
  if (options.tagging_mode != TaggingMode::kRecordTags) {
    options.column_count_policy = ColumnCountPolicy::kReject;
  }
  options.error_policy = static_cast<ErrorPolicy>(seed % 4);
  return options;
}

void ExpectOutputsEqual(const Result<ParseOutput>& want,
                        const Result<ParseOutput>& got,
                        const std::string& context) {
  ASSERT_EQ(want.ok(), got.ok())
      << context << ": "
      << (want.ok() ? got.status().ToString() : want.status().ToString());
  if (!want.ok()) {
    // Same failure, byte-identical message and offsets.
    ASSERT_EQ(want.status().ToString(), got.status().ToString()) << context;
    return;
  }
  ASSERT_TRUE(want->table.Equals(got->table)) << context;
  ASSERT_EQ(want->min_columns, got->min_columns) << context;
  ASSERT_EQ(want->max_columns, got->max_columns) << context;
  ASSERT_EQ(want->records_dropped, got->records_dropped) << context;
  ASSERT_EQ(want->remainder_offset, got->remainder_offset) << context;
  ASSERT_EQ(want->quarantine.entries().size(), got->quarantine.entries().size())
      << context;
  for (size_t q = 0; q < want->quarantine.entries().size(); ++q) {
    ASSERT_EQ(want->quarantine.entries()[q].begin,
              got->quarantine.entries()[q].begin)
        << context << " quarantine entry " << q;
    ASSERT_EQ(want->quarantine.entries()[q].end, got->quarantine.entries()[q].end)
        << context << " quarantine entry " << q;
    ASSERT_EQ(want->quarantine.entries()[q].raw, got->quarantine.entries()[q].raw)
        << context << " quarantine entry " << q;
    ASSERT_EQ(want->quarantine.entries()[q].row, got->quarantine.entries()[q].row)
        << context << " quarantine entry " << q;
    ASSERT_EQ(want->quarantine.entries()[q].column,
              got->quarantine.entries()[q].column)
        << context << " quarantine entry " << q;
    ASSERT_EQ(want->quarantine.entries()[q].message,
              got->quarantine.entries()[q].message)
        << context << " quarantine entry " << q;
  }
}

/// The value bytes of column `j`'s CSS: the slice without its terminator
/// slots (the inline mode's terminator bytes, the vector mode's marked
/// delimiter bytes).
std::vector<uint8_t> CssValues(const PipelineState& state, uint32_t j) {
  std::vector<uint8_t> values;
  if (j >= state.num_partitions) return values;
  const TaggingMode mode = state.options->tagging_mode;
  for (int64_t i = state.column_css_offsets[j];
       i < state.column_css_offsets[j + 1]; ++i) {
    const bool slot =
        (mode == TaggingMode::kInlineTerminated &&
         state.css[i] == state.options->terminator) ||
        (mode == TaggingMode::kVectorDelimited && state.field_end[i] != 0);
    if (!slot) values.push_back(state.css[i]);
  }
  return values;
}

/// The step-level comparison of a symbol-sort harness `hs` and a
/// field-gather harness `hg`, both run through the partition step: the
/// same partitions and column plans; each string column the gather wrote
/// holds its column's CSS values byte for byte (no schema here, so no
/// defaults); and both convert steps give the same table and rejects.
void ExpectStepOutputsMatch(StepHarness* hs, StepHarness* hg,
                            const std::string& context) {
  ASSERT_EQ(hs->state.num_partitions, hg->state.num_partitions) << context;
  ASSERT_TRUE(hg->state.css.empty()) << context;
  const std::vector<ColumnPlan>& plans = hg->state.column_plans;
  ASSERT_EQ(hs->state.column_plans.size(), plans.size()) << context;
  ASSERT_EQ(hg->state.gathered_columns.size(), plans.size()) << context;
  for (size_t p = 0; p < plans.size(); ++p) {
    ASSERT_EQ(hs->state.column_plans[p].source, plans[p].source) << context;
    ASSERT_TRUE(plans[p].is_string() && !plans[p].has_default()) << context;
    ASSERT_TRUE(hg->state.gathered_columns[p].string_data() ==
                CssValues(hs->state, plans[p].source))
        << context << " column " << plans[p].source;
  }
  ParseOutput want;
  ParseOutput got;
  const Status ws =
      ConvertStep::Run(&hs->state, &hs->timings, &hs->work, &want);
  const Status gs =
      ConvertStep::Run(&hg->state, &hg->timings, &hg->work, &got);
  ASSERT_TRUE(ws.ok()) << context << ": " << ws.ToString();
  ASSERT_TRUE(gs.ok()) << context << ": " << gs.ToString();
  ASSERT_TRUE(want.table.Equals(got.table)) << context;
  ASSERT_EQ(want.table.rejected, got.table.rejected) << context;
  ASSERT_EQ(hs->state.reject_kind, hg->state.reject_kind) << context;
  ASSERT_EQ(hs->state.reject_column, hg->state.reject_column) << context;
}

// The headline sweep: >= 10k seeded inputs, every registered format,
// tagging modes and error policies rotating with the seed, field-gather
// output compared field by field against symbol sort.
TEST(TransposeDifferentialTest, GatherMatchesSymbolSortOnSeededInputs) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  // 2048 seeds x 5 formats = 10240 distinct inputs.
  constexpr uint64_t kSeedsPerFormat = 2048;
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < kSeedsPerFormat; ++seed) {
      const std::string input = InputForSeed(format, seed);
      ParseOptions options = OptionsForSeed(format, seed);

      options.transpose_mode = TransposeMode::kSymbolSort;
      const Result<ParseOutput> reference = Parser::Parse(input, options);
      options.transpose_mode = TransposeMode::kFieldGather;
      const Result<ParseOutput> got = Parser::Parse(input, options);

      const std::string context = format.name + " seed " +
                                  std::to_string(seed);
      ASSERT_NO_FATAL_FAILURE(ExpectOutputsEqual(reference, got, context));
    }
  }
}

// The intermediate state, not just the final table: after the partition
// step, each string column the field gather wrote must hold exactly the
// values of the symbol sort's concatenated symbol string for that column,
// and the two convert steps must agree (ExpectStepOutputsMatch).
TEST(TransposeDifferentialTest, CssLayoutsMatchAcrossModes) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < 256; ++seed) {
      const std::string input = InputForSeed(format, seed * 31 + 7);
      ParseOptions options = OptionsForSeed(format, seed);
      options.error_policy = ErrorPolicy::kNull;  // step harness: no repair

      options.transpose_mode = TransposeMode::kSymbolSort;
      auto hs = StepHarness::Make(input, options);
      const Status ss = hs->RunThroughPartition();
      options.transpose_mode = TransposeMode::kFieldGather;
      auto hg = StepHarness::Make(input, options);
      const Status sg = hg->RunThroughPartition();

      const std::string context = format.name + " seed " +
                                  std::to_string(seed);
      ASSERT_EQ(ss.ok(), sg.ok()) << context;
      if (!ss.ok()) {
        ASSERT_EQ(ss.ToString(), sg.ToString()) << context;
        continue;
      }
      ASSERT_NO_FATAL_FAILURE(
          ExpectStepOutputsMatch(hs.get(), hg.get(), context));
    }
  }
}

// --- The axes the gather's field walk depends on. The tag step counts
// each tile's kept fields per column and the partition step walks the same
// tiles again to place them, carrying a field that spans a chunk edge by
// its first byte and its value bytes so far. So the kept-field predicate
// (skipped columns and records, an excluded trailing record), the carries
// (UTF-8 chunk starts, fields spanning many chunks) and the tile edges
// (the pool's worker count) each get an axis of their own.

/// Explicit pools of 1, 2, 3 and 8 workers: the gather cuts two tiles per
/// runner, so its tile edges move with the pool.
ThreadPool* PoolForSeed(uint64_t seed) {
  static ThreadPool one(1);
  static ThreadPool two(2);
  static ThreadPool three(3);
  static ThreadPool eight(8);
  static ThreadPool* const kPools[] = {&one, &two, &three, &eight};
  return kPools[seed % 4];
}

/// UTF-8 text: a leading continuation byte (which belongs to no chunk),
/// then the seed's input with letters widened to two-, three- and
/// four-byte sequences, so small chunks start inside multi-byte symbols.
std::string Utf8InputForSeed(const NamedFormat& format, uint64_t seed) {
  std::string out = "\xA9";
  for (char ch : InputForSeed(format, seed)) {
    switch (ch) {
      case 'a':
        out += "\xC3\xA9";
        break;
      case 'e':
        out += "\xE6\xB1\x89";
        break;
      case 'o':
        out += "\xF0\x9F\x9A\x80";
        break;
      default:
        out.push_back(ch);
        break;
    }
  }
  return out;
}

/// Today's inputs, their UTF-8 widening, or a random CSV of 60-300
/// records, so tiles hold many chunks and many fields.
std::string GatherInputForSeed(const NamedFormat& format, uint64_t seed) {
  switch ((seed / 13) % 3) {
    case 0:
      return InputForSeed(format, seed);
    case 1:
      return Utf8InputForSeed(format, seed);
    default:
      break;
  }
  if (format.name == "extended_log") {
    return GenerateLogLike(seed, 4096 + seed % 4096);
  }
  return RandomCsvForSeed(format, seed, 60 + static_cast<int>(seed % 241));
}

/// OptionsForSeed plus the gather axes, each rotating with the seed:
/// skipped columns, skipped records, an excluded trailing record, the
/// encoding, and the pool.
ParseOptions GatherOptionsForSeed(const NamedFormat& format, uint64_t seed) {
  ParseOptions options = OptionsForSeed(format, seed);
  static const std::vector<int> kSkipColumns[] = {{}, {0}, {1}, {0, 2}};
  static const std::vector<int64_t> kSkipRecords[] = {{}, {0}, {1, 3}};
  options.skip_columns = kSkipColumns[(seed / 5) % 4];
  options.skip_records = kSkipRecords[(seed / 7) % 3];
  options.exclude_trailing_record = (seed / 11) % 2 != 0;
  options.encoding =
      (seed / 2) % 5 == 0 ? TextEncoding::kAscii : TextEncoding::kUtf8;
  options.pool = PoolForSeed(seed / 3);
  return options;
}

TEST(TransposeDifferentialTest, GatherAxesMatchSymbolSort) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < 768; ++seed) {
      const std::string input = GatherInputForSeed(format, seed);
      ParseOptions options = GatherOptionsForSeed(format, seed);

      options.transpose_mode = TransposeMode::kSymbolSort;
      const Result<ParseOutput> reference = Parser::Parse(input, options);
      options.transpose_mode = TransposeMode::kFieldGather;
      const Result<ParseOutput> got = Parser::Parse(input, options);

      const std::string context = format.name + " seed " +
                                  std::to_string(seed);
      ASSERT_NO_FATAL_FAILURE(ExpectOutputsEqual(reference, got, context));
    }
  }
}

// The same axes at the step level: the gather's string columns hold the
// symbol sort's CSS values, and the convert steps agree.
TEST(TransposeDifferentialTest, GatherAxesCssLayoutsMatch) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < 192; ++seed) {
      const std::string input = GatherInputForSeed(format, seed * 29 + 3);
      ParseOptions options = GatherOptionsForSeed(format, seed);
      options.error_policy = ErrorPolicy::kNull;  // step harness: no repair

      options.transpose_mode = TransposeMode::kSymbolSort;
      auto hs = StepHarness::Make(input, options);
      const Status ss = hs->RunThroughPartition();
      options.transpose_mode = TransposeMode::kFieldGather;
      auto hg = StepHarness::Make(input, options);
      const Status sg = hg->RunThroughPartition();

      const std::string context = format.name + " seed " +
                                  std::to_string(seed);
      ASSERT_EQ(ss.ok(), sg.ok()) << context;
      if (!ss.ok()) {
        ASSERT_EQ(ss.ToString(), sg.ToString()) << context;
        continue;
      }
      ASSERT_NO_FATAL_FAILURE(
          ExpectStepOutputsMatch(hs.get(), hg.get(), context));
    }
  }
}

// Skew axis (Fig. 11 right): one giant quoted field, with embedded
// delimiters, newlines and escaped quotes, spans many chunks and several
// gather tiles, so its carries cross chunk and tile edges. Every other
// seed lowers the device threshold below the field's length, so the
// gather copies its value runs device-wide, in pieces.
TEST(TransposeDifferentialTest, SkewedGiantFieldMatchesAcrossModes) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    static const size_t kChunkSizes[] = {31, 64, 7, 256};
    const size_t giant = (24 << 10) + seed * 97;
    const std::string input =
        GenerateSkewed(seed, 16 << 10, giant, /*yelp_like=*/true);
    ParseOptions options;
    options.chunk_size = kChunkSizes[seed % 4];
    options.pool = PoolForSeed(seed / 4);
    if (seed % 2 != 0) options.device_collaboration_threshold = 4096;
    options.tagging_mode = static_cast<TaggingMode>(seed % 3);
    if (options.tagging_mode != TaggingMode::kRecordTags) {
      options.column_count_policy = ColumnCountPolicy::kReject;
    }
    options.error_policy = static_cast<ErrorPolicy>(seed % 4);
    const std::string context = "seed " + std::to_string(seed);

    options.transpose_mode = TransposeMode::kSymbolSort;
    const Result<ParseOutput> reference = Parser::Parse(input, options);
    options.transpose_mode = TransposeMode::kFieldGather;
    const Result<ParseOutput> got = Parser::Parse(input, options);
    ASSERT_TRUE(reference.ok()) << context << ": "
                                << reference.status().ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectOutputsEqual(reference, got, context));

    // The giant field really crosses more than one tile edge: its value,
    // the longest the gather wrote, is longer than two of the largest
    // tiles.
    options.error_policy = ErrorPolicy::kNull;
    auto h = StepHarness::Make(input, options);
    ASSERT_TRUE(h->RunThroughPartition().ok()) << context;
    int64_t longest = 0;
    for (const Column& column : h->state.gathered_columns) {
      const std::vector<int64_t>& offsets = column.offsets();
      for (size_t r = 0; r + 1 < offsets.size(); ++r) {
        longest = std::max(longest, offsets[r + 1] - offsets[r]);
      }
    }
    int64_t widest_tile = 0;
    for (size_t t = 0; t + 1 < h->state.gather_tiles.size(); ++t) {
      widest_tile = std::max(
          widest_tile,
          h->state.gather_tiles[t + 1] - h->state.gather_tiles[t]);
    }
    EXPECT_GT(longest,
              2 * widest_tile * static_cast<int64_t>(options.chunk_size))
        << context;
  }
}

// --- The schema axis: typed conversion. Under the field gather the
// partition step's walk parses, defaults, NULLs and rejects every value
// itself, while the symbol sort converts its CSS in the convert step; both
// apply one value rule (core/column_plan.h), and these cases compare them
// with schemas, defaults, non-nullable columns, malformed and quoted
// numerics, ragged rows, skipped columns and inferred types. ---

/// The types the axis rotates through, every output type of the parser.
const DataType kAxisTypes[] = {
    DataType::Bool(),    DataType::Int32(),  DataType::Int64(),
    DataType::Float64(), DataType::Decimal64(2), DataType::Date32(),
    DataType::TimestampMicros(), DataType::String()};

std::string TwoDigits(uint64_t v) {
  return std::string(1, static_cast<char>('0' + v / 10 % 10)) +
         static_cast<char>('0' + v % 10);
}

/// A well-formed literal of `type`. One string in eight is longer than the
/// small device threshold the axis sets.
std::string LiteralOf(const DataType& type, Rng& rng) {
  switch (type.id) {
    case TypeId::kBool:
      return rng.Next() % 2 != 0 ? "true" : "f";
    case TypeId::kInt32:
      return std::to_string(static_cast<int64_t>(rng.Next() % 200001) -
                            100000);
    case TypeId::kInt64:
      return std::to_string(static_cast<int64_t>(rng.Next() % 20000000001) -
                            10000000000);
    case TypeId::kFloat64:
      return (rng.Next() % 3 == 0 ? "-" : "") +
             std::to_string(rng.Next() % 100000) + "." +
             std::to_string(rng.Next() % 1000) +
             (rng.Next() % 4 == 0 ? "e3" : "");
    case TypeId::kDecimal64:
      return std::to_string(rng.Next() % 100000) + "." +
             TwoDigits(rng.Next() % 100);
    case TypeId::kDate32:
      return "20" + TwoDigits(rng.Next() % 40) + "-" +
             TwoDigits(1 + rng.Next() % 12) + "-" +
             TwoDigits(1 + rng.Next() % 28);
    case TypeId::kTimestampMicros:
      return "19" + TwoDigits(70 + rng.Next() % 30) + "-0" +
             std::to_string(1 + rng.Next() % 9) + "-1" +
             std::to_string(rng.Next() % 10) + " " +
             TwoDigits(rng.Next() % 24) + ":" + TwoDigits(rng.Next() % 60) +
             ":" + TwoDigits(rng.Next() % 60);
    case TypeId::kString:
      break;
  }
  std::string value;
  const uint64_t length =
      rng.Next() % 8 == 0 ? 17 + rng.Next() % 40 : 1 + rng.Next() % 9;
  for (uint64_t i = 0; i < length; ++i) {
    value.push_back(static_cast<char>('a' + rng.Next() % 26));
  }
  return value;
}

/// One cell: mostly a literal, sometimes empty, malformed, padded with
/// spaces, quoted, or quoted with an escaped quote or a delimiter inside.
std::string CellOf(const DataType& type, Rng& rng, uint64_t quote_percent) {
  const uint64_t roll = rng.Next() % 100;
  if (roll < 8) return "";
  if (roll < 13) return "x" + LiteralOf(type, rng);
  if (roll < 16) return " " + LiteralOf(type, rng) + " ";
  if (roll < 19) return "\"" + LiteralOf(type, rng) + "\"\"1\"";
  if (roll < 21) return "\"" + LiteralOf(type, rng) + ",\n\"";
  if (roll < 21 + quote_percent) return "\"" + LiteralOf(type, rng) + "\"";
  return LiteralOf(type, rng);
}

struct TypedCase {
  std::string input;
  ParseOptions options;
};

/// The seed's typed case. Each knob rotates with the seed on its own
/// divisor: the error policy, the tagging mode, inferred types (no
/// schema), defaults (a string one longer than the device threshold, under
/// small collaboration thresholds), non-nullable columns, skipped columns,
/// ragged rows, the quoting rate, an invalid default, the chunk size and
/// the pool.
TypedCase TypedCaseForSeed(const NamedFormat& format, uint64_t seed) {
  Rng rng(seed * 131 + 7);
  TypedCase c;
  ParseOptions& options = c.options;
  options.format = format.format;
  options.chunk_size = ChunkSizeForSeed(seed / 3);
  options.pool = PoolForSeed(seed / 2);
  options.error_policy = static_cast<ErrorPolicy>(seed % 4);
  options.tagging_mode = static_cast<TaggingMode>((seed / 4) % 3);
  if (options.tagging_mode != TaggingMode::kRecordTags && seed % 5 != 0) {
    options.column_count_policy = ColumnCountPolicy::kReject;
  }
  const bool infer = (seed / 5) % 5 == 0;
  const bool defaults = (seed / 6) % 2 != 0;
  const bool non_nullable = (seed / 7) % 3 == 0;
  const bool ragged = (seed / 9) % 2 != 0;
  const uint64_t quote_percent = 10 * ((seed / 11) % 4);
  static const std::vector<int> kSkipColumns[] = {{}, {1}, {0, 2}, {3}};
  options.skip_columns = kSkipColumns[(seed / 13) % 4];
  if ((seed / 17) % 2 != 0) {
    options.block_collaboration_threshold = 4;
    options.device_collaboration_threshold = 16;
  }

  const int num_columns = 2 + static_cast<int>(seed % 7);
  std::vector<DataType> types;
  for (int j = 0; j < num_columns; ++j) {
    types.push_back(kAxisTypes[(seed + static_cast<uint64_t>(j) * 3) % 8]);
  }
  if (infer) {
    options.infer_types = true;
  } else {
    for (int j = 0; j < num_columns; ++j) {
      Field field("c" + std::to_string(j), types[j],
                  !(non_nullable && j % 2 == 0));
      if (defaults && j % 3 != 1) {
        field.default_value =
            types[j].id == TypeId::kString && j % 2 == 0
                ? "a-default-longer-than-the-device-threshold"
                : LiteralOf(types[j], rng);
      }
      options.schema.AddField(std::move(field));
    }
    if (seed % 29 == 0) {
      // A default that is not a valid value of its column.
      Field* field = options.schema.mutable_field(num_columns - 1);
      if (field->type.id != TypeId::kString) field->default_value = "zz";
    }
  }

  const int records = 10 + static_cast<int>(rng.Next() % 120);
  for (int r = 0; r < records; ++r) {
    int cells = num_columns;
    if (ragged && rng.Next() % 4 == 0) {
      cells = rng.Next() % 3 == 0 ? num_columns + 1
                                  : 1 + static_cast<int>(rng.Next() %
                                                         num_columns);
    }
    for (int j = 0; j < cells; ++j) {
      if (j > 0) c.input.push_back(static_cast<char>(format.format.field_delimiter));
      c.input += CellOf(types[static_cast<size_t>(j) % types.size()], rng,
                        quote_percent);
    }
    if (r + 1 < records || seed % 3 != 0) c.input.push_back('\n');
  }
  if (format.format.field_delimiter != ',') {
    // The quoted cells' embedded delimiter follows the format.
    for (char& ch : c.input) {
      if (ch == ',') ch = static_cast<char>(format.format.field_delimiter);
    }
  }
  return c;
}

TEST(TransposeDifferentialTest, SchemaAxisMatchesSymbolSort) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  int typed_tables = 0;
  int failed_parses = 0;
  for (const NamedFormat& format : formats) {
    if (format.name != "rfc4180" && format.name != "pipe") continue;
    for (uint64_t seed = 0; seed < 384; ++seed) {
      TypedCase c = TypedCaseForSeed(format, seed);
      c.options.transpose_mode = TransposeMode::kSymbolSort;
      const Result<ParseOutput> reference = Parser::Parse(c.input, c.options);
      c.options.transpose_mode = TransposeMode::kFieldGather;
      const Result<ParseOutput> got = Parser::Parse(c.input, c.options);

      const std::string context = format.name + " seed " +
                                  std::to_string(seed);
      ASSERT_NO_FATAL_FAILURE(ExpectOutputsEqual(reference, got, context));
      if (!reference.ok()) {
        ++failed_parses;
        continue;
      }
      for (const Column& column : reference->table.columns) {
        if (column.type().id != TypeId::kString) {
          ++typed_tables;
          break;
        }
      }
    }
  }
  // The axis reaches typed columns and the error paths alike.
  EXPECT_GT(typed_tables, 300);
  EXPECT_GT(failed_parses, 20);
}

// The first reject of a row is its lowest column's, in both modes, also
// when the row's fields lie in different gather tiles: row 150 is
// malformed in columns 1 and 3, 400 bytes apart, and an 8-worker pool
// cuts ~140-byte tiles.
TEST(TransposeDifferentialTest, FirstRejectOfARowIsItsLowestColumn) {
  std::string input;
  for (int r = 0; r < 200; ++r) {
    input += r == 150 ? "1,x," + std::string(400, 'a') + ",y\n"
                      : "1,2,abc,4\n";
  }
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    ParseOptions options;
    options.transpose_mode = mode;
    options.pool = PoolForSeed(3);
    options.chunk_size = 7;
    options.schema.AddField(Field("a", DataType::Int64()));
    options.schema.AddField(Field("b", DataType::Int64()));
    options.schema.AddField(Field("c", DataType::String()));
    options.schema.AddField(Field("d", DataType::Int64()));
    const std::string context =
        mode == TransposeMode::kSymbolSort ? "sort" : "gather";

    options.error_policy = ErrorPolicy::kFail;
    const Result<ParseOutput> failed = Parser::Parse(input, options);
    ASSERT_FALSE(failed.ok()) << context;
    EXPECT_NE(failed.status().message().find(
                  "row 150, column 1: value is not a valid int64"),
              std::string::npos)
        << context << ": " << failed.status().ToString();

    options.error_policy = ErrorPolicy::kQuarantine;
    const Result<ParseOutput> quarantined = Parser::Parse(input, options);
    ASSERT_TRUE(quarantined.ok()) << context;
    ASSERT_EQ(quarantined->quarantine.entries().size(), 1u) << context;
    EXPECT_EQ(quarantined->quarantine.entries()[0].row, 150) << context;
    EXPECT_EQ(quarantined->quarantine.entries()[0].column, 1) << context;
  }
}

// Regression: a row that takes a string default longer than
// device_collaboration_threshold is copied at the device level from the
// default, in both modes (the CSS path used to read the copy's source
// from the row's field, which a defaulted row does not have).
TEST(TransposeDifferentialTest, LongStringDefaultsTakeTheDeviceLevelCopy) {
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    for (ThreadPool* pool : {PoolForSeed(0), PoolForSeed(3)}) {
      ParseOptions options;
      options.transpose_mode = mode;
      options.pool = pool;
      options.block_collaboration_threshold = 2;
      options.device_collaboration_threshold = 4;
      options.schema.AddField(Field("a", DataType::String()));
      Field b("b", DataType::String());
      b.default_value = "abcdefgh";
      options.schema.AddField(b);
      const Result<ParseOutput> result =
          Parser::Parse("x,\ny,zz\nw\n", options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const Table& table = result->table;
      ASSERT_EQ(table.num_rows, 3);
      EXPECT_EQ(table.columns[1].StringValue(0), "abcdefgh");
      EXPECT_EQ(table.columns[1].StringValue(1), "zz");
      EXPECT_EQ(table.columns[1].StringValue(2), "abcdefgh");
      for (int64_t row = 0; row < 3; ++row) {
        EXPECT_TRUE(table.columns[1].IsValid(row)) << row;
      }
      EXPECT_EQ(table.NumRejected(), 0);
    }
  }
}

// Kernel axis: the gather path consumes the symbol-flag bitmaps, which the
// SIMD subsystem produces — both transpose modes must agree under every
// kernel resolution, not just the build default.
TEST(TransposeDifferentialTest, ModesAgreeUnderScalarAndSimdKernels) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (simd::KernelKind kernel :
       {simd::KernelKind::kScalar, simd::KernelKind::kAuto}) {
    for (const NamedFormat& format : formats) {
      for (uint64_t seed = 0; seed < 128; ++seed) {
        const std::string input = InputForSeed(format, seed * 17 + 3);
        ParseOptions options = OptionsForSeed(format, seed);
        options.kernel = kernel;

        options.transpose_mode = TransposeMode::kSymbolSort;
        const Result<ParseOutput> reference = Parser::Parse(input, options);
        options.transpose_mode = TransposeMode::kFieldGather;
        const Result<ParseOutput> got = Parser::Parse(input, options);

        const std::string context =
            format.name + " seed " + std::to_string(seed) + " kernel " +
            (kernel == simd::KernelKind::kScalar ? "scalar" : "simd");
        ASSERT_NO_FATAL_FAILURE(ExpectOutputsEqual(reference, got, context));
      }
    }
  }
}

// Partition-size axis: the executor re-runs the transposition per
// partition with cross-partition carry; the modes must agree for partition
// sizes from degenerate (every record its own partition) to several
// records per partition.
TEST(TransposeDifferentialTest, StreamingPartitionsMatchAcrossModes) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (int64_t partition_size : {int64_t{256}, int64_t{1024}, int64_t{8192}}) {
    for (const NamedFormat& format : formats) {
      if (format.name == "extended_log") continue;  // covered by the sweep
      for (uint64_t seed = 0; seed < 64; ++seed) {
        const std::string input = InputForSeed(format, seed * 13 + 5);
        exec::PipelineExecutor executor;
        exec::ExecOptions streaming;
        streaming.base = OptionsForSeed(format, seed);
        streaming.partition_size = partition_size;

        streaming.base.transpose_mode = TransposeMode::kSymbolSort;
        const Result<exec::IngestResult> reference =
            executor.IngestBuffer(input, streaming);
        streaming.base.transpose_mode = TransposeMode::kFieldGather;
        const Result<exec::IngestResult> got =
            executor.IngestBuffer(input, streaming);

        const std::string context = format.name + " seed " +
                                    std::to_string(seed) + " partition " +
                                    std::to_string(partition_size);
        ASSERT_EQ(reference.ok(), got.ok()) << context;
        if (!reference.ok()) {
          ASSERT_EQ(reference.status().ToString(), got.status().ToString())
              << context;
          continue;
        }
        ASSERT_TRUE(reference->table.Equals(got->table)) << context;
        ASSERT_EQ(reference->quarantine.entries().size(),
                  got->quarantine.entries().size())
            << context;
      }
    }
  }
}

// Planner axis: the planner decides the per-stream tuning (kernel, chunk
// size, tagging, transpose) from the DFA and the stream's length; whatever
// it chooses must be bit-identical to the same options with the paper's
// 31-byte chunk pinned — across streaming partition seams, where a planned
// chunk choice interacts with carry-over splitting.
TEST(TransposeDifferentialTest, PlannedStreamsMatchStaticDefaults) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  for (const NamedFormat& format : formats) {
    if (format.name == "extended_log") continue;  // covered by the sweep
    for (uint64_t seed = 0; seed < 96; ++seed) {
      const std::string input = InputForSeed(format, seed * 19 + 11);
      exec::PipelineExecutor executor;
      exec::ExecOptions streaming;
      streaming.base.format = format.format;
      streaming.base.error_policy = static_cast<ErrorPolicy>(seed % 4);
      streaming.base.column_count_policy = (seed % 2) != 0
                                               ? ColumnCountPolicy::kReject
                                               : ColumnCountPolicy::kRobust;
      streaming.partition_size = (seed % 3 == 0) ? 512 : 4096;

      streaming.base.chunk_size = 31;
      const Result<exec::IngestResult> want =
          executor.IngestBuffer(input, streaming);
      streaming.base.chunk_size = 0;
      const Result<exec::IngestResult> got =
          executor.IngestBuffer(input, streaming);

      const std::string context =
          format.name + " seed " + std::to_string(seed);
      ASSERT_EQ(want.ok(), got.ok())
          << context << ": "
          << (want.ok() ? got.status() : want.status()).ToString();
      if (!want.ok()) {
        ASSERT_EQ(want.status().ToString(), got.status().ToString())
            << context;
        continue;
      }
      ASSERT_TRUE(want->table.Equals(got->table)) << context;
      ASSERT_EQ(want->quarantine.entries().size(),
                got->quarantine.entries().size())
          << context;
    }
  }
}

// Generated-dialect axis: seeded random DialectSpecs (src/dialect) ride
// the same symbol-sort vs field-gather comparison — the gather path's
// whole-field copies must honour runtime-compiled flag conventions
// (notably the fixed-width *inclusive* field boundary, where the boundary
// byte is both the field's end and its last value byte) exactly like the
// paper's per-symbol sort. PARPARAW_DIALECT_SEEDS overrides the seed
// count (default 48).
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
      if (rng.Next() % 7 == 0) input.pop_back();  // broken record
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

uint64_t DialectSeedCount() {
  const char* env = std::getenv("PARPARAW_DIALECT_SEEDS");
  return env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10)
                                        : 48;
}

TEST(TransposeDifferentialTest, GeneratedDialectsAgreeAcrossModes) {
  const uint64_t seeds = DialectSeedCount();
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
    options.tagging_mode = TaggingMode::kRecordTags;

    options.transpose_mode = TransposeMode::kSymbolSort;
    const Result<ParseOutput> reference = Parser::Parse(input, options);
    options.transpose_mode = TransposeMode::kFieldGather;
    const Result<ParseOutput> got = Parser::Parse(input, options);
    ASSERT_NO_FATAL_FAILURE(ExpectOutputsEqual(reference, got, spec.name));
    ++swept;
  }
  EXPECT_GT(swept, static_cast<int>(seeds / 2));
}

// Oracle axis: for every generated dialect, within the register budget or
// over it, the sequential walk of the minimised wide automaton
// (AutomatonWalkParse, tests/dialect_oracle.h) and the full parallel
// pipeline under both transpose modes must produce the same table from the
// same spec. This pins the packed Dfa, the SymbolFlags conventions, the
// context step's sequential entry-state walk and both transposition paths
// to one reference semantics.
TEST(TransposeDifferentialTest, AutomatonWalkMatchesPipelineOnDialects) {
  const uint64_t seeds = DialectSeedCount();
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    const dialect::DialectSpec spec = DialectSpecForSeed(seed * 7 + 1);
    auto compiled = dialect::Compile(spec);
    ASSERT_TRUE(compiled.ok()) << spec.name;
    const std::string input = DialectInputForSeed(spec, seed);

    ParseOptions options;  // defaults: kRecordTags, kRobust, kNull policy
    const Result<OracleParse> walked = AutomatonWalkParse(
        input, compiled->automaton, spec.record_delimiter_final(), options);
    ASSERT_TRUE(walked.ok()) << spec.name << ": "
                             << walked.status().ToString();

    for (TransposeMode mode :
         {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
      ParseOptions pipeline;
      pipeline.dialect = spec;
      pipeline.transpose_mode = mode;
      const std::string context =
          spec.name + (mode == TransposeMode::kSymbolSort ? " sort"
                                                          : " gather");
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
          Parser::Parse(input, pipeline), *walked,
          robust::ErrorPolicy::kNull, input, context));
    }
  }
}

// Fault axis: with the gather allocation failpoint firing on its n-th hit,
// a gather-mode parse either fails with the injected kResourceExhausted or
// — once the trigger is exhausted — succeeds bit-identical to the
// fault-free run. Never a crash or silently different data.
TEST(TransposeDifferentialTest, GatherAllocFaultsFailCleanOrMatch) {
  const NamedFormat rfc = {"rfc4180", *Rfc4180Format()};
  FailpointRegistry& registry = FailpointRegistry::Instance();
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const std::string input = InputForSeed(rfc, seed * 7 + 2);
    ParseOptions options = OptionsForSeed(rfc, seed);
    options.transpose_mode = TransposeMode::kFieldGather;
    const Result<ParseOutput> clean = Parser::Parse(input, options);

    for (int64_t nth = 1; nth <= 4; ++nth) {
      registry.Arm("alloc.gather",
                   robust::EveryNthTrigger(nth, /*transient=*/true));
      const Result<ParseOutput> faulted = Parser::Parse(input, options);
      registry.Disarm("alloc.gather");

      const std::string context =
          "seed " + std::to_string(seed) + " nth " + std::to_string(nth);
      if (!faulted.ok()) {
        // Either the fault surfaced — as resource exhaustion from a guarded
        // allocation or as the injected status from the bare site check —
        // or the input fails identically without any fault (e.g. a
        // terminator collision in the inline mode).
        const bool injected =
            faulted.status().code() == StatusCode::kResourceExhausted ||
            faulted.status().code() == StatusCode::kIoError;
        const bool same_as_clean =
            !clean.ok() &&
            clean.status().ToString() == faulted.status().ToString();
        EXPECT_TRUE(injected || same_as_clean)
            << context << ": " << faulted.status().ToString();
        continue;
      }
      ASSERT_TRUE(clean.ok()) << context;
      ASSERT_TRUE(clean->table.Equals(faulted->table)) << context;
    }
  }
  registry.DisarmAll();
}

}  // namespace
}  // namespace parparaw
