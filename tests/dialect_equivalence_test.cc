#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "api/reader.h"
#include "core/parser.h"
#include "dfa/formats.h"
#include "dfa/sniffer.h"
#include "dialect/dialect.h"
#include "dialect_oracle.h"
#include "exec/executor.h"
#include "io/file.h"
#include "json/json_lines.h"
#include "obs/metrics.h"
#include "simd/dispatch.h"
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
  vectorized.kernel = simd::KernelKind::kAuto;
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
  EXPECT_TRUE(compiled->format.dfa.fits_register_budget());
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
  EXPECT_TRUE(compiled->format.dfa.fits_register_budget());

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

  // 9 position states + EOL + INV = 11 states: within the register budget.
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->format.dfa.fits_register_budget());
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

// A fixed-width layout over the register budget: one DFA state per record
// byte, 20 positions + EOL + INV.
DialectSpec WideFixedSpec() {
  DialectSpec spec;
  spec.name = "fixed-wide";
  spec.fixed_widths = {10, 10};
  spec.quote = 0;
  return spec;
}

// A {6, 14} layout: a zero-padded id, then a name.
DialectSpec TypedWideFixedSpec() {
  DialectSpec spec;
  spec.name = "fixed-typed";
  spec.fixed_widths = {6, 14};
  spec.quote = 0;
  return spec;
}

Schema TypedWideFixedSchema() {
  Schema schema;
  schema.AddField(Field("id", DataType::Int64()));
  schema.AddField(Field("name", DataType::String()));
  return schema;
}

// `records` records of TypedWideFixedSpec, 21 bytes each with the
// delimiter; every seventh id is malformed, so its row is rejected.
std::string TypedWideFixedInput(int records) {
  std::string input;
  for (int i = 0; i < records; ++i) {
    std::string id = std::to_string(100000 + i * 37);
    if (i % 7 == 3) id[2] = 'x';
    std::string name = "row" + std::to_string(i);
    name += std::string(14 - name.size(), '.');
    input += id + name + "\n";
  }
  return input;
}

OracleParse WalkOracle(const std::string& input, const DialectSpec& spec,
                       const ParseOptions& options) {
  auto compiled = dialect::Compile(spec);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto oracle = AutomatonWalkParse(input, compiled->automaton,
                                   spec.record_delimiter_final(), options);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  return std::move(oracle).ValueOrDie();
}

const robust::ErrorPolicy kAllPolicies[] = {
    robust::ErrorPolicy::kNull, robust::ErrorPolicy::kFail,
    robust::ErrorPolicy::kSkip, robust::ErrorPolicy::kQuarantine};

TEST(DialectEquivalenceTest, OverBudgetDialectParsesOnThePipeline) {
  const DialectSpec spec = WideFixedSpec();
  obs::MetricsRegistry metrics;
  auto compiled = dialect::Compile(spec, nullptr, &metrics);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_FALSE(compiled->format.dfa.fits_register_budget());
  EXPECT_GT(compiled->minimized_states, kMaxDfaStates);

  // Parser::Parse runs the staged pipeline: the context step walks the
  // entry states with one instance, one transition per byte.
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
  EXPECT_EQ(result->work.dfa_transitions,
            static_cast<int64_t>(input.size()));
  EXPECT_EQ(metrics.GetCounter("parse.runs")->Value(), 1);

  // The pipelined executor gives the identical table, plans the scalar
  // level and reports it; the second record spans the seam.
  exec::PipelineExecutor executor;
  exec::ExecOptions pipelined;
  pipelined.base.dialect = spec;
  pipelined.partition_size = 24;
  auto ingested = executor.IngestBuffer(input, pipelined);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested->stats.num_partitions, 2);
  EXPECT_TRUE(ingested->table.Equals(result->table));
  EXPECT_EQ(ingested->plan.kernel_level, simd::KernelLevel::kScalar);
}

// An over-budget dialect gives the oracle's table through every entry
// point that cuts the input into partitions, records straddling the
// seams, and quarantines through each of them.
TEST(DialectEquivalenceTest, OverBudgetDialectMatchesAcrossEntryPoints) {
  const DialectSpec spec = TypedWideFixedSpec();
  const Schema schema = TypedWideFixedSchema();
  const std::string input = TypedWideFixedInput(40);
  ParseOptions options;
  options.schema = schema;
  const OracleParse want = WalkOracle(input, spec, options);
  ASSERT_EQ(want.output.table.num_rows, 40);
  options.dialect = spec;

  for (size_t partition_size : {size_t{24}, size_t{64}, size_t{100}}) {
    const std::string context =
        "partition " + std::to_string(partition_size);
    // Every partition parses its own records: a wrong entry state would
    // leave them unparsed and carry them on to the last partition, whose
    // table alone would still match.
    exec::PipelineExecutor executor;
    exec::ExecOptions pipelined;
    pipelined.base = options;
    pipelined.partition_size = partition_size;
    auto ingested = executor.IngestBuffer(input, pipelined);
    ASSERT_TRUE(ingested.ok()) << context << ": "
                               << ingested.status().ToString();
    EXPECT_TRUE(ingested->table.Equals(want.output.table))
        << context << " IngestBuffer";
    for (const exec::PartitionRecord& part : ingested->partitions) {
      EXPECT_LT(part.carry_bytes, 21) << context;
    }

    auto read = Reader::FromBuffer(input)
                    .WithDialect(spec)
                    .WithSchema(schema)
                    .WithHeader(false)
                    .WithPartitionSize(partition_size)
                    .Read();
    ASSERT_TRUE(read.ok()) << context << ": " << read.status().ToString();
    EXPECT_TRUE(read->Equals(want.output.table))
        << context << " Reader::Read";

    const std::string path = "/tmp/parparaw_over_budget_dialect.csv";
    ASSERT_TRUE(WriteStringToFile(path, input).ok());
    auto loaded = Reader::FromFile(path)
                      .WithDialect(spec)
                      .WithSchema(schema)
                      .WithHeader(false)
                      .WithPartitionSize(partition_size)
                      .Read();
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << context << ": " << loaded.status().ToString();
    EXPECT_TRUE(loaded->Equals(want.output.table))
        << context << " Reader::FromFile";

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
    ASSERT_TRUE(streamed.ok()) << context << ": "
                               << streamed.status().ToString();
    EXPECT_TRUE(ConcatTables(batches).Equals(want.output.table))
        << context << " Reader::ReadStream";

    for (robust::ErrorPolicy policy : kAllPolicies) {
      pipelined.base.error_policy = policy;
      auto partitioned = executor.IngestBuffer(input, pipelined);
      const std::string where =
          context + " IngestBuffer " + robust::ErrorPolicyToString(policy);
      if (partitioned.ok()) {
        EXPECT_GE(partitioned->stats.num_partitions, 2) << where;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
          partitioned.status(),
          partitioned.ok() ? partitioned->table : Table(),
          partitioned.ok() ? partitioned->quarantine
                           : robust::QuarantineTable(),
          want, policy, input, where));
    }
  }
}

// All four error policies on an over-budget dialect, through Parser::Parse
// across chunk sizes (chunk seams inside records, so the sequential walk's
// per-chunk entry states matter) and through the executor across
// partition sizes: tables, rejects and quarantine spans match the oracle
// byte for byte.
TEST(DialectEquivalenceTest, OverBudgetDialectErrorPoliciesMatchOracle) {
  const DialectSpec spec = TypedWideFixedSpec();
  const std::string input = TypedWideFixedInput(60);
  ParseOptions base;
  base.schema = TypedWideFixedSchema();
  const OracleParse want = WalkOracle(input, spec, base);
  int64_t rejected = 0;
  for (uint8_t r : want.output.table.rejected) rejected += r;
  ASSERT_EQ(rejected, 9);
  base.dialect = spec;

  for (robust::ErrorPolicy policy : kAllPolicies) {
    const std::string name = robust::ErrorPolicyToString(policy);
    for (size_t chunk : {size_t{7}, size_t{31}, size_t{64}, size_t{1024}}) {
      ParseOptions options = base;
      options.error_policy = policy;
      options.chunk_size = chunk;
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
          Parser::Parse(input, options), want, policy, input,
          name + " chunk " + std::to_string(chunk)));
    }
    for (size_t partition : {size_t{64}, size_t{250}, size_t{1} << 20}) {
      exec::PipelineExecutor executor;
      exec::ExecOptions exec_options;
      exec_options.base = base;
      exec_options.base.error_policy = policy;
      exec_options.partition_size = partition;
      auto got = executor.IngestBuffer(input, exec_options);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
          got.status(), got.ok() ? got->table : Table(),
          got.ok() ? got->quarantine : robust::QuarantineTable(), want,
          policy, input, name + " partition " + std::to_string(partition)));
    }
  }
}

// The widest layout the spec allows: 4096-byte records, one DFA state per
// byte. Minimising that automaton takes seconds, so the spec compiles
// once for the oracle and the monolithic parses and once more inside the
// executor.
TEST(DialectEquivalenceTest, FixedWidth4096ByteRecordsMatchOracle) {
  DialectSpec spec;
  spec.name = "fixed-4096";
  spec.fixed_widths = {1000, 2000, 1096};
  spec.quote = 0;
  auto compiled = dialect::Compile(spec);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_GT(compiled->minimized_states, 4096);

  std::string input;
  for (int r = 0; r < 12; ++r) {
    for (int i = 0; i < 4096; ++i) {
      input.push_back(static_cast<char>('a' + (r * 7 + i) % 26));
    }
    input.push_back('\n');
  }
  input.resize(input.size() - 100);  // an unterminated trailing record

  auto oracle = AutomatonWalkParse(input, compiled->automaton, '\n',
                                   ParseOptions());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const OracleParse& want = *oracle;
  ASSERT_EQ(want.output.table.num_rows, 12);
  for (size_t chunk : {size_t{31}, size_t{4096}}) {
    ParseOptions options;
    options.format = compiled->format;
    options.chunk_size = chunk;
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
        Parser::Parse(input, options), want, robust::ErrorPolicy::kNull,
        input, "chunk " + std::to_string(chunk)));
  }
  exec::PipelineExecutor executor;
  exec::ExecOptions pipelined;
  pipelined.base.dialect = spec;
  pipelined.partition_size = 10000;  // records straddle every seam
  auto ingested = executor.IngestBuffer(input, pipelined);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_GT(ingested->stats.num_partitions, 2);
  EXPECT_TRUE(ingested->table.Equals(want.output.table));
}

// A hand-built DFA over both bounds of the register budget — 21 states
// and 19 symbols in 20 groups — parses through the pipeline like a
// compiled dialect.
TEST(DialectEquivalenceTest, BuilderDfaBeyondTheRegisterBudget) {
  // EOR, then F0..F19: the index of the current field modulo 20. Each of
  // 'A'..'R' is a field delimiter in its own group, '\n' ends the record.
  DfaBuilder b;
  const int eor = b.AddState("EOR", true);
  std::vector<int> field;
  for (int k = 0; k < 20; ++k) {
    field.push_back(b.AddState("F" + std::to_string(k), true));
  }
  const int g_nl = b.AddSymbol('\n');
  std::vector<int> delimiter_groups;
  for (char c = 'A'; c <= 'R'; ++c) {
    delimiter_groups.push_back(b.AddSymbol(static_cast<uint8_t>(c)));
  }
  const uint8_t kRec = kSymbolRecordDelimiter | kSymbolControl;
  const uint8_t kFld = kSymbolFieldDelimiter | kSymbolControl;
  b.SetTransition(eor, g_nl, eor, kRec);
  b.SetDefaultTransition(eor, field[0], kSymbolData);
  for (int g : delimiter_groups) b.SetTransition(eor, g, field[1], kFld);
  for (int k = 0; k < 20; ++k) {
    b.SetTransition(field[k], g_nl, eor, kRec);
    b.SetDefaultTransition(field[k], field[k], kSymbolData);
    for (int g : delimiter_groups) {
      b.SetTransition(field[k], g, field[(k + 1) % 20], kFld);
    }
  }
  auto dfa = b.Build();
  ASSERT_TRUE(dfa.ok()) << dfa.status().ToString();
  EXPECT_EQ(dfa->num_states(), 21);
  EXPECT_EQ(dfa->num_symbols(), 19);
  EXPECT_EQ(dfa->num_symbol_groups(), 20);
  EXPECT_FALSE(dfa->fits_register_budget());

  Format format;
  format.dfa = *dfa;
  format.record_delimiter = '\n';
  format.field_delimiter = 'A';
  for (int k : field) format.MarkMidRecordState(k);

  std::string input;
  for (int r = 0; r < 50; ++r) {
    for (int f = 0; f < 1 + r % 5; ++f) {
      if (f > 0) input.push_back(static_cast<char>('A' + (r + f) % 18));
      input += "v" + std::to_string(r * 10 + f);
    }
    input.push_back('\n');
  }
  input += "tailAend";  // an unterminated trailing record

  ParseOptions options;
  options.format = format;
  const dialect::Automaton automaton = FromFormat(format);
  auto oracle = AutomatonWalkParse(input, automaton, '\n', options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle->output.table.num_rows, 51);
  ASSERT_EQ(oracle->output.table.num_columns(), 5);
  for (size_t chunk : {size_t{5}, size_t{64}}) {
    options.chunk_size = chunk;
    auto got = Parser::Parse(input, options);
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
        got, *oracle, robust::ErrorPolicy::kNull, input,
        "chunk " + std::to_string(chunk)));
    EXPECT_EQ(got->table.columns[1].StringValue(50), "end");
  }
}

// A forced vector level does not reach an over-budget DFA: the context
// step walks sequentially and reports the scalar level, with the oracle's
// output.
TEST(DialectEquivalenceTest, ForcedAvx2ParsesOverBudgetDialect) {
  const DialectSpec spec = TypedWideFixedSpec();
  const std::string input = TypedWideFixedInput(30);
  ParseOptions options;
  options.schema = TypedWideFixedSchema();
  const OracleParse want = WalkOracle(input, spec, options);
  options.dialect = spec;
  options.chunk_size = 16;

  simd::SetForcedKernelLevel(simd::KernelLevel::kAvx2);
  auto parsed = Parser::Parse(input, options);
  exec::PipelineExecutor executor;
  exec::ExecOptions pipelined;
  pipelined.base = options;
  pipelined.partition_size = 64;
  auto ingested = executor.IngestBuffer(input, pipelined);
  simd::SetForcedKernelLevel(std::nullopt);

  ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
      parsed, want, robust::ErrorPolicy::kNull, input, "forced avx2"));
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_TRUE(ingested->table.Equals(want.output.table));
  EXPECT_EQ(ingested->plan.kernel_level, simd::KernelLevel::kScalar);
}

TEST(DialectEquivalenceTest, SnifferPicksRegisteredOverBudgetDialect) {
  dialect::ClearRegisteredDialects();
  const DialectSpec spec = WideFixedSpec();
  dialect::RegisterDialect(spec);

  std::string sample;
  for (int i = 0; i < 12; ++i) {
    const std::string left = "id" + std::to_string(1000 + i);
    const std::string right = "value" + std::to_string(i);
    sample += left + std::string(10 - left.size(), '.') + right +
              std::string(10 - right.size(), '.') + "\n";
  }
  auto sniffed = SniffDsvFormat(sample);
  auto read = Reader::FromBuffer(sample).WithHeader(false).Read();
  dialect::ClearRegisteredDialects();
  ASSERT_TRUE(sniffed.ok()) << sniffed.status().ToString();
  ASSERT_TRUE(sniffed->dialect_spec.has_value());
  EXPECT_EQ(sniffed->dialect_spec->name, "fixed-wide");
  EXPECT_EQ(sniffed->num_columns, 2u);

  // The sniffed dialect drives the whole read.
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->num_rows, 12);
  ASSERT_EQ(read->num_columns(), 2);
  EXPECT_EQ(read->columns[0].StringValue(3), "id1003....");
  EXPECT_EQ(read->columns[1].StringValue(11), "value11...");
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
