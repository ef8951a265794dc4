#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/reader.h"
#include "core/parser.h"
#include "dfa/formats.h"
#include "dfa/sniffer.h"
#include "dialect/dialect.h"
#include "exec/executor.h"
#include "io/file.h"
#include "json/json_lines.h"
#include "obs/metrics.h"
#include "stream/streaming_parser.h"
#include "workload/generators.h"

// The dialect compiler's correctness story (see docs/dialects.md): every
// built-in format has a DialectSpec twin whose compiled + minimised
// automaton is *proven* language- and flag-equivalent to the hand-written
// DFA by product construction — a failed check yields a concrete witness
// input, a passing check covers every input. On top of the proof, packed
// twins are swept differentially (same table bit for bit), and the novel
// dialects the compiler unlocks — multi-byte record delimiters, backslash
// escapes, fixed-width fields — are checked scalar vs best-SIMD and serial
// vs pipelined.

namespace parparaw {
namespace {

using dialect::CheckEquivalent;
using dialect::CompileDialect;
using dialect::CompiledDialect;
using dialect::DialectSpec;
using dialect::EquivalenceResult;
using dialect::EscapeStyle;
using dialect::FromFormat;
using dialect::Minimize;

DialectSpec CsvTwinSpec() {
  DialectSpec spec;
  spec.name = "csv-twin";
  return spec;  // defaults == RFC 4180: ',', "\n", '"', doubled, strict
}

DialectSpec TsvEscapeTwinSpec() {
  DialectSpec spec;
  spec.name = "tsv-escape-twin";
  spec.field_delimiter = '\t';
  spec.escape_style = EscapeStyle::kBackslash;
  spec.escape_char = '\\';
  spec.strict_quotes = false;
  return spec;
}

DialectSpec ExtendedLogTwinSpec() {
  DialectSpec spec;
  spec.name = "extended-log-twin";
  spec.field_delimiter = ' ';
  spec.comment = '#';
  spec.skip_empty_lines = true;
  spec.strict_quotes = false;
  return spec;
}

DialectSpec JsonLinesTwinSpec() {
  DialectSpec spec;
  spec.name = "jsonl-twin";
  spec.field_delimiter = 0;  // single-column records
  spec.escape_style = EscapeStyle::kBackslash;
  spec.escape_char = '\\';
  spec.verbatim_quotes = true;
  spec.skip_empty_lines = true;
  return spec;
}

/// Compiles `spec`, minimises it, and proves it equivalent to `builtin`.
void ExpectTwinEquivalent(const DialectSpec& spec, const Format& builtin) {
  auto wide = CompileDialect(spec);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  auto minimized = Minimize(*wide, nullptr);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  const EquivalenceResult proof =
      CheckEquivalent(*minimized, FromFormat(builtin));
  EXPECT_TRUE(proof.equivalent)
      << spec.name << " vs " << builtin.name << ": " << proof.detail
      << " (witness: \"" << proof.witness << "\")";
  // Minimisation never grows the automaton, and the built-ins are already
  // minimal — the compiled twin must land on exactly their state count.
  EXPECT_LE(minimized->num_states, wide->num_states);
  EXPECT_EQ(minimized->num_states, builtin.dfa.num_states());
}

TEST(DialectEquivalenceTest, CsvTwinProvedEquivalentToRfc4180) {
  ASSERT_NO_FATAL_FAILURE(
      ExpectTwinEquivalent(CsvTwinSpec(), *Rfc4180Format()));
}

TEST(DialectEquivalenceTest, TsvEscapeTwinProvedEquivalentToDsv) {
  DsvOptions options;
  options.field_delimiter = '\t';
  options.escape = '\\';
  options.strict_quotes = false;
  ASSERT_NO_FATAL_FAILURE(
      ExpectTwinEquivalent(TsvEscapeTwinSpec(), *DsvFormat(options)));
}

TEST(DialectEquivalenceTest, ExtendedLogTwinProvedEquivalentToBuiltin) {
  ASSERT_NO_FATAL_FAILURE(
      ExpectTwinEquivalent(ExtendedLogTwinSpec(), *ExtendedLogFormat()));
}

TEST(DialectEquivalenceTest, JsonLinesTwinProvedEquivalentToBuiltin) {
  // The JSONL built-in has no invalid trap — every byte is legal. The
  // compiled twin's INV state is unreachable and pruning drops it, so the
  // proof runs over exactly the four JSON Lines states.
  ASSERT_NO_FATAL_FAILURE(
      ExpectTwinEquivalent(JsonLinesTwinSpec(), *JsonLinesFormat()));
}

TEST(DialectEquivalenceTest, InequivalentDialectsYieldConcreteWitness) {
  auto csv = Minimize(*CompileDialect(CsvTwinSpec()), nullptr);
  DialectSpec semicolon = CsvTwinSpec();
  semicolon.name = "semicolon";
  semicolon.field_delimiter = ';';
  auto other = Minimize(*CompileDialect(semicolon), nullptr);
  ASSERT_TRUE(csv.ok() && other.ok());

  const EquivalenceResult verdict = CheckEquivalent(*csv, *other);
  ASSERT_FALSE(verdict.equivalent);
  ASSERT_FALSE(verdict.detail.empty());
  ASSERT_FALSE(verdict.witness.empty());
  // The witness is a machine-checked counterexample: replaying it, the two
  // automata must visibly disagree on the final byte's flags (or on the
  // acceptance of the state it reaches).
  const std::string& w = verdict.witness;
  const auto* head = reinterpret_cast<const uint8_t*>(w.data());
  const int end_a = csv->Run(csv->start, head, w.size() - 1);
  const int end_b = other->Run(other->start, head, w.size() - 1);
  const uint8_t last = static_cast<uint8_t>(w.back());
  const bool flags_differ =
      csv->FlagsFor(end_a, last) != other->FlagsFor(end_b, last);
  const bool acceptance_differs =
      (csv->accepting[csv->Next(end_a, last)] != 0) !=
      (other->accepting[other->Next(end_b, last)] != 0);
  const bool mid_differs =
      (csv->mid_record[csv->Next(end_a, last)] != 0) !=
      (other->mid_record[other->Next(end_b, last)] != 0);
  EXPECT_TRUE(flags_differ || acceptance_differs || mid_differs)
      << "witness \"" << w << "\" does not reproduce: " << verdict.detail;
}

// --- packed-format differential: the compiled twin drives the full
// parallel pipeline and must produce the same table as the built-in. ---

std::string TwinInputForSeed(uint8_t field_delimiter, uint64_t seed) {
  RandomCsvOptions options;
  options.num_records = 3 + static_cast<int>(seed % 16);
  options.num_columns = 1 + static_cast<int>(seed % 5);
  options.quote_probability = (seed % 5) * 0.2;
  options.embedded_delimiter_probability = (seed % 3) * 0.3;
  options.escaped_quote_probability = (seed % 4) * 0.25;
  options.trailing_newline = (seed % 3) != 0;
  std::string input = GenerateRandomCsv(seed, options);
  if (field_delimiter != ',') {
    for (char& ch : input) {
      if (ch == ',') ch = static_cast<char>(field_delimiter);
    }
  }
  return input;
}

TEST(DialectEquivalenceTest, PackedTwinsParseBitIdenticalToBuiltins) {
  struct Twin {
    DialectSpec spec;
    Format builtin;
  };
  std::vector<Twin> twins;
  twins.push_back({CsvTwinSpec(), *Rfc4180Format()});
  {
    DsvOptions tsv;
    tsv.field_delimiter = '\t';
    tsv.escape = '\\';
    tsv.strict_quotes = false;
    twins.push_back({TsvEscapeTwinSpec(), *DsvFormat(tsv)});
  }
  twins.push_back({ExtendedLogTwinSpec(), *ExtendedLogFormat()});

  for (const Twin& twin : twins) {
    for (uint64_t seed = 0; seed < 64; ++seed) {
      const std::string input =
          twin.spec.name == "extended-log-twin"
              ? GenerateLogLike(seed, 256 + seed % 256)
              : TwinInputForSeed(twin.spec.field_delimiter, seed);

      ParseOptions with_builtin;
      with_builtin.format = twin.builtin;
      const Result<ParseOutput> reference = Parser::Parse(input, with_builtin);

      ParseOptions with_dialect;
      with_dialect.dialect = twin.spec;
      const Result<ParseOutput> got = Parser::Parse(input, with_dialect);

      const std::string context =
          twin.spec.name + " seed " + std::to_string(seed);
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
  }
}

// --- the novel dialects the compiler unlocks (ISSUE acceptance) ---

/// Parses `input` under `spec` four ways — scalar vs best-SIMD kernels,
/// serial Parser vs pipelined executor — and checks all four agree.
void ExpectAllPathsAgree(const DialectSpec& spec, const std::string& input,
                         Table* out) {
  ParseOptions scalar;
  scalar.dialect = spec;
  scalar.kernel = simd::KernelKind::kScalar;
  auto scalar_result = Parser::Parse(input, scalar);
  ASSERT_TRUE(scalar_result.ok()) << scalar_result.status().ToString();

  ParseOptions vectorized;
  vectorized.dialect = spec;
  vectorized.kernel = simd::KernelKind::kSimd;
  auto simd_result = Parser::Parse(input, vectorized);
  ASSERT_TRUE(simd_result.ok()) << simd_result.status().ToString();
  ASSERT_TRUE(scalar_result->table.Equals(simd_result->table))
      << spec.name << ": scalar vs SIMD";

  exec::PipelineExecutor executor;
  exec::ExecOptions pipelined;
  pipelined.base.dialect = spec;
  pipelined.partition_size = 128;  // several partitions in flight
  auto exec_result = executor.IngestBuffer(input, pipelined);
  ASSERT_TRUE(exec_result.ok()) << exec_result.status().ToString();
  ASSERT_TRUE(scalar_result->table.Equals(exec_result->table))
      << spec.name << ": serial vs pipelined";

  if (out != nullptr) *out = std::move(scalar_result->table);
}

TEST(DialectEquivalenceTest, MultiByteRecordDelimiterDialect) {
  DialectSpec spec;
  spec.name = "crlf-strict";
  spec.record_delimiter = "\r\n";

  // Within the register budget: CSV's six states plus one chain state.
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->within_budget);
  EXPECT_LE(compiled->minimized_states, kMaxDfaStates);

  const std::string input =
      "a,b,c\r\n"
      "\"quoted \r\n newline\",2,3\r\n"
      "x,,z\r\n";
  Table table;
  ASSERT_NO_FATAL_FAILURE(ExpectAllPathsAgree(spec, input, &table));
  ASSERT_EQ(table.num_rows, 3);
  ASSERT_EQ(static_cast<int>(table.columns.size()), 3);
  EXPECT_EQ(table.columns[0].StringValue(1), "quoted \r\n newline");
  EXPECT_EQ(table.columns[2].StringValue(2), "z");

  // Strict matching: a bare '\r' outside quotes is a broken prefix, so
  // validation rejects it instead of guessing.
  ParseOptions validate;
  validate.dialect = spec;
  validate.validate = true;
  auto broken = Parser::Parse("a,b\rc\r\n", validate);
  EXPECT_FALSE(broken.ok());
}

TEST(DialectEquivalenceTest, BackslashEscapeDialect) {
  DialectSpec spec;
  spec.name = "semicolon-backslash";
  spec.field_delimiter = ';';
  spec.escape_style = EscapeStyle::kBackslash;
  spec.escape_char = '\\';
  spec.strict_quotes = false;

  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->within_budget);

  const std::string input =
      "one;\"two \\\" escaped\";three\n"
      "\"semi \\; colon\";b;c\n";
  Table table;
  ASSERT_NO_FATAL_FAILURE(ExpectAllPathsAgree(spec, input, &table));
  ASSERT_EQ(table.num_rows, 2);
  ASSERT_EQ(static_cast<int>(table.columns.size()), 3);
  EXPECT_EQ(table.columns[1].StringValue(0), "two \" escaped");
  EXPECT_EQ(table.columns[0].StringValue(1), "semi ; colon");
}

TEST(DialectEquivalenceTest, FixedWidthDialectWithinBudget) {
  DialectSpec spec;
  spec.name = "fixed-3-2-4";
  spec.fixed_widths = {3, 2, 4};
  spec.quote = 0;  // fixed-width fields have no quoting layer

  // 9 position states + EOL + INV = 11 states: packs into the Dfa.
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->within_budget);
  EXPECT_EQ(compiled->minimized_states, 11);

  const std::string input =
      "abc12defg\n"
      "xyz99    \n"
      "  c 7hijk\n";
  Table table;
  ASSERT_NO_FATAL_FAILURE(ExpectAllPathsAgree(spec, input, &table));
  ASSERT_EQ(table.num_rows, 3);
  ASSERT_EQ(static_cast<int>(table.columns.size()), 3);
  // Every byte of a field belongs to its value — including the last one
  // (the inclusive-boundary SymbolFlags shape).
  EXPECT_EQ(table.columns[0].StringValue(0), "abc");
  EXPECT_EQ(table.columns[1].StringValue(0), "12");
  EXPECT_EQ(table.columns[2].StringValue(0), "defg");
  EXPECT_EQ(table.columns[1].StringValue(2), " 7");
  EXPECT_EQ(table.columns[2].StringValue(1), "    ");

  // A record of the wrong width is invalid input under validation.
  ParseOptions validate;
  validate.dialect = spec;
  validate.validate = true;
  EXPECT_FALSE(Parser::Parse("abc12defgh\n", validate).ok());
  EXPECT_FALSE(Parser::Parse("abc12def\n", validate).ok());
}

TEST(DialectEquivalenceTest, OverBudgetDialectFallsBackToScalarWalk) {
  DialectSpec spec;
  spec.name = "fixed-wide";
  spec.fixed_widths = {10, 10};  // 20 positions + EOL + INV > 16 states
  spec.quote = 0;

  obs::MetricsRegistry metrics;
  auto compiled = dialect::Compile(spec, nullptr, &metrics);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_FALSE(compiled->within_budget);
  EXPECT_GT(compiled->minimized_states, kMaxDfaStates);

  // Parser::Parse transparently runs the scalar wide-automaton walk and
  // counts the fallback.
  ParseOptions options;
  options.dialect = spec;
  options.metrics = &metrics;
  const std::string input =
      "0123456789abcdefghij\n"
      "ABCDEFGHIJklmnopqrst\n";
  auto result = Parser::Parse(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows, 2);
  ASSERT_EQ(static_cast<int>(result->table.columns.size()), 2);
  EXPECT_EQ(result->table.columns[0].StringValue(0), "0123456789");
  EXPECT_EQ(result->table.columns[1].StringValue(1), "klmnopqrst");
  obs::Counter* fallback = metrics.GetCounter("dialect.fallback");
  ASSERT_NE(fallback, nullptr);
  EXPECT_GE(fallback->Value(), 1);

  // The pipelined executor runs the same scalar walk on every partition
  // and returns the identical table; the second record spans the seam.
  exec::PipelineExecutor executor;
  exec::ExecOptions pipelined;
  pipelined.base.dialect = spec;
  pipelined.partition_size = 24;
  auto ingested = executor.IngestBuffer(input, pipelined);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested->stats.num_partitions, 2);
  EXPECT_TRUE(ingested->table.Equals(result->table));
}

// An over-budget dialect gives the table of one monolithic Parser::Parse
// through every entry point that cuts the input into partitions, and the
// scalar walk keeps refusing kQuarantine.
TEST(DialectEquivalenceTest, OverBudgetDialectMatchesAcrossEntryPoints) {
  DialectSpec spec;
  spec.name = "fixed-wide";
  spec.fixed_widths = {10, 10};
  spec.quote = 0;
  Schema schema;
  schema.AddField(Field("left", DataType::String()));
  schema.AddField(Field("right", DataType::String()));
  std::string input;
  for (int i = 0; i < 40; ++i) {
    const std::string left = std::to_string(i * 7919);
    const std::string right = "row" + std::to_string(i);
    input += left + std::string(10 - left.size(), ' ') + right +
             std::string(10 - right.size(), '.') + "\n";
  }
  const size_t partition_size = 64;  // 21-byte records straddle seams

  ParseOptions options;
  options.dialect = spec;
  options.schema = schema;
  auto want = Parser::Parse(input, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->table.num_rows, 40);

  auto read = Reader::FromBuffer(input)
                  .WithDialect(spec)
                  .WithSchema(schema)
                  .WithHeader(false)
                  .WithPartitionSize(partition_size)
                  .Read();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->Equals(want->table)) << "Reader::Read";

  const std::string path = "/tmp/parparaw_over_budget_dialect.csv";
  ASSERT_TRUE(WriteStringToFile(path, input).ok());
  auto loaded = Reader::FromFile(path)
                    .WithDialect(spec)
                    .WithSchema(schema)
                    .WithHeader(false)
                    .WithPartitionSize(partition_size)
                    .Read();
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->Equals(want->table)) << "Reader::FromFile";

  std::vector<Table> batches;
  auto streamed = Reader::FromBuffer(input)
                      .WithDialect(spec)
                      .WithSchema(schema)
                      .WithHeader(false)
                      .WithPartitionSize(partition_size)
                      .ReadStream([&](Table&& batch) {
                        batches.push_back(std::move(batch));
                        return Status::OK();
                      });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(ConcatTables(batches).Equals(want->table))
      << "Reader::ReadStream";

  StreamingOptions streaming;
  streaming.base = options;
  streaming.partition_size = partition_size;
  auto partitioned = StreamingParser::Parse(input, streaming);
  ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
  EXPECT_GE(partitioned->num_partitions, 2);
  EXPECT_TRUE(partitioned->table.Equals(want->table)) << "StreamingParser";

  options.error_policy = robust::ErrorPolicy::kQuarantine;
  EXPECT_EQ(Parser::Parse(input, options).status().code(),
            StatusCode::kInvalidArgument);
  streaming.base = options;
  EXPECT_EQ(StreamingParser::Parse(input, streaming).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DialectEquivalenceTest, DialectAndExplicitFormatAreMutuallyExclusive) {
  ParseOptions options;
  options.format = *Rfc4180Format();
  options.dialect = CsvTwinSpec();
  auto result = Parser::Parse("a,b\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DialectEquivalenceTest, ReaderWithDialectEndToEnd) {
  DialectSpec spec;
  spec.name = "crlf";
  spec.record_delimiter = "\r\n";
  const std::string input = "h1,h2\r\n1,x\r\n2,y\r\n";
  auto table = Reader::FromBuffer(input)
                   .WithDialect(spec)
                   .WithHeader(true)
                   .Read();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows, 2);
  ASSERT_EQ(table->schema.num_fields(), 2);
  EXPECT_EQ(table->schema.field(0).name, "h1");
  EXPECT_EQ(table->columns[1].StringValue(1), "y");
}

TEST(DialectEquivalenceTest, SnifferScoresRegisteredDialects) {
  dialect::ClearRegisteredDialects();
  DialectSpec spec;
  spec.name = "euro-csv";
  spec.field_delimiter = ';';
  spec.comment = '#';
  spec.skip_empty_lines = true;
  dialect::RegisterDialect(spec);

  const std::string sample =
      "# comment line\n"
      "alpha;beta;gamma\n"
      "1;2;3\n"
      "4;5;6\n";
  auto sniffed = SniffDsvFormat(sample);
  dialect::ClearRegisteredDialects();
  ASSERT_TRUE(sniffed.ok()) << sniffed.status().ToString();
  ASSERT_TRUE(sniffed->dialect_spec.has_value());
  EXPECT_EQ(sniffed->dialect_spec->name, "euro-csv");
  EXPECT_EQ(sniffed->options.field_delimiter, ';');
  EXPECT_EQ(sniffed->num_columns, 3u);
}

}  // namespace
}  // namespace parparaw
