#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "baseline/sequential_parser.h"
#include "columnar/dictionary.h"
#include "core/parser.h"
#include "obs/metrics.h"
#include "pushdown_oracle.h"
#include "query/pushdown.h"
#include "query/query.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

TEST(PushdownTest, MatchesParseThenFilter) {
  const std::string csv = GenerateTaxiLike(66, 64 * 1024);
  ParseOptions options;
  options.schema = TaxiSchema();
  const Predicate predicate{6, CompareOp::kEq, "Y"};

  // Reference: parse everything, then gather matching rows.
  auto full = Parser::Parse(csv, options);
  ASSERT_TRUE(full.ok());
  auto selection = EvaluatePredicate(full->table, predicate);
  ASSERT_TRUE(selection.ok());
  auto expected = GatherRows(full->table, *selection);
  ASSERT_TRUE(expected.ok());

  PushdownStats stats;
  auto pushed = ParseWithPushdown(csv, options, predicate, &stats);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_TRUE(pushed->table.Equals(*expected));
  EXPECT_EQ(stats.records_scanned, full->table.num_rows);
  EXPECT_EQ(stats.records_selected, expected->num_rows);
  EXPECT_LT(stats.Selectivity(), 0.2);  // 'Y' is ~5% of rows
}

TEST(PushdownTest, WorksOnQuotedData) {
  const std::string csv =
      "1,\"match, with\ncomma\"\n2,\"other\"\n3,\"also match\"\n";
  ParseOptions options;
  options.schema.AddField(Field("id", DataType::Int64()));
  options.schema.AddField(Field("text", DataType::String()));
  auto pushed = ParseWithPushdown(csv, options,
                                  {1, CompareOp::kContains, "match"});
  ASSERT_TRUE(pushed.ok());
  ASSERT_EQ(pushed->table.num_rows, 2);
  EXPECT_EQ(pushed->table.columns[0].Value<int64_t>(0), 1);
  EXPECT_EQ(pushed->table.columns[0].Value<int64_t>(1), 3);
}

TEST(PushdownTest, InvalidConfigurations) {
  ParseOptions no_schema;
  EXPECT_FALSE(
      ParseWithPushdown("a\n", no_schema, {0, CompareOp::kEq, "a"}).ok());

  ParseOptions options;
  options.schema.AddField(Field("a", DataType::String()));
  EXPECT_FALSE(
      ParseWithPushdown("a\n", options, {5, CompareOp::kEq, "a"}).ok());

  options.skip_records = {1};
  EXPECT_FALSE(
      ParseWithPushdown("a\n", options, {0, CompareOp::kEq, "a"}).ok());
  options.skip_records.clear();
  options.column_count_policy = ColumnCountPolicy::kReject;
  EXPECT_FALSE(
      ParseWithPushdown("a\n", options, {0, CompareOp::kEq, "a"}).ok());
}

// Phase 2 reads phase 1's rows as record numbers, so under kSkip phase 1
// must keep a record whose predicate value is malformed.
TEST(PushdownTest, SkipPolicyKeepsRecordNumbering) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::Int64()));
  options.schema.AddField(Field("b", DataType::Int64()));
  options.error_policy = robust::ErrorPolicy::kSkip;
  PushdownStats stats;
  auto pushed = ParseWithPushdown("x,1\n2,2\n3,3\n", options,
                                  {0, CompareOp::kEq, "3"}, &stats);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_EQ(pushed->table.num_rows, 1);
  EXPECT_EQ(pushed->table.columns[0].Value<int64_t>(0), 3);
  EXPECT_EQ(pushed->table.columns[1].Value<int64_t>(0), 3);
  EXPECT_EQ(stats.records_scanned, 3);
  EXPECT_EQ(stats.records_selected, 1);
}

TEST(PushdownTest, QuarantineCountsNoUnmatchedRecord) {
  // A malformed predicate value is NULL and matches no predicate, so under
  // kQuarantine its record is neither returned nor quarantined nor counted.
  std::string csv;
  for (int i = 0; i < 120; ++i) {
    csv += (i % 5 == 0 ? "x" : "") + std::to_string(i) + ",v" +
           std::to_string(i) + "\n";
  }
  obs::MetricsRegistry metrics;
  ParseOptions options;
  options.schema.AddField(Field("k", DataType::Int64()));
  options.schema.AddField(Field("v", DataType::String()));
  options.error_policy = robust::ErrorPolicy::kQuarantine;
  options.metrics = &metrics;
  auto pushed = ParseWithPushdown(csv, options, {0, CompareOp::kGt, "50"});
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_EQ(pushed->table.num_rows, 56);
  EXPECT_EQ(pushed->quarantine.entries().size(), 0u);
  EXPECT_EQ(metrics.GetCounter("robust.quarantined_rows")->Value(), 0);
}

TEST(PushdownTest, NoMatches) {
  ParseOptions options;
  options.schema.AddField(Field("a", DataType::Int64()));
  auto pushed = ParseWithPushdown("1\n2\n3\n", options,
                                  {0, CompareOp::kGt, "100"});
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(pushed->table.num_rows, 0);
}

// Quoted delimiters and newlines, empty fields, malformed Int64 values in
// the predicate column, short records, and an unterminated last record.
std::string MixedInput() {
  std::string csv;
  for (int i = 0; i < 90; ++i) {
    switch (i % 6) {
      case 1:
        csv += "\"q" + std::to_string(i) + ",x\"," + std::to_string(i) +
               ",\"line\nbreak\"\n";
        break;
      case 2:
        csv += "row" + std::to_string(i) + ",notanint,plain\n";
        break;
      case 3:
        csv += std::to_string(i) + ",,\n";
        break;
      case 4:
        csv += "short" + std::to_string(i) + "\n";
        break;
      default:
        csv += "f" + std::to_string(i) + "," + std::to_string(i * 37) +
               ",tail" + std::to_string(i) + "\n";
        break;
    }
  }
  return csv + "last,999999,unterminated";
}

Schema MixedSchema() {
  Schema schema;
  schema.AddField(Field("s", DataType::String()));
  schema.AddField(Field("n", DataType::Int64()));
  schema.AddField(Field("t", DataType::String()));
  return schema;
}

// Both sides fail alike, or agree on every output a query returns.
void ExpectSameOutcome(const Result<ParseOutput>& got,
                       const PushdownStats& got_stats,
                       const Result<ParseOutput>& want,
                       const PushdownStats& want_stats,
                       const std::string& label) {
  ASSERT_EQ(got.ok(), want.ok())
      << label << ": got " << got.status().ToString() << ", want "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << label;
    EXPECT_EQ(got.status().message(), want.status().message()) << label;
    return;
  }
  ASSERT_TRUE(got->table.Equals(want->table)) << label;
  EXPECT_EQ(got->table.rejected, want->table.rejected) << label;
  EXPECT_EQ(got->records_dropped, want->records_dropped) << label;
  EXPECT_EQ(got_stats.records_scanned, want_stats.records_scanned) << label;
  EXPECT_EQ(got_stats.records_selected, want_stats.records_selected)
      << label;
  ASSERT_EQ(got->quarantine.size(), want->quarantine.size()) << label;
  for (int64_t i = 0; i < want->quarantine.size(); ++i) {
    const robust::QuarantineEntry& g = got->quarantine.entries()[i];
    const robust::QuarantineEntry& w = want->quarantine.entries()[i];
    EXPECT_EQ(g.row, w.row) << label << " entry " << i;
    EXPECT_EQ(g.record_index, w.record_index) << label << " entry " << i;
    EXPECT_EQ(g.begin, w.begin) << label << " entry " << i;
    EXPECT_EQ(g.end, w.end) << label << " entry " << i;
    EXPECT_EQ(g.column, w.column) << label << " entry " << i;
    EXPECT_EQ(g.message, w.message) << label << " entry " << i;
  }
}

// The select stage (one scan, the predicate column tagged, partitioned and
// converted from the parse's own bitmap indexes) against the two-parse
// oracle, across every axis the stages branch on.
TEST(PushdownTest, MatchesTwoParseOracle) {
  struct Case {
    std::string name;
    std::string input;
    Schema schema;
    std::vector<Predicate> predicates;
    int64_t skip_rows = 0;
    std::optional<dialect::DialectSpec> dialect;
  };
  std::vector<Case> cases;
  cases.push_back({"taxi", GenerateTaxiLike(7, 3 * 1024), TaxiSchema(),
                   {{3, CompareOp::kGt, "3"},
                    {6, CompareOp::kContains, "Y"},
                    {10, CompareOp::kIsNull},
                    {0, CompareOp::kGt, "100"},  // no match
                    {0, CompareOp::kGt, "0"}},   // all match
                   0, std::nullopt});
  cases.push_back({"yelp", GenerateYelpLike(11, 5 * 1024), YelpSchema(),
                   {{3, CompareOp::kGt, "3"},
                    {7, CompareOp::kContains, "good"},
                    {8, CompareOp::kIsNull}},
                   0, std::nullopt});
  const std::vector<Predicate> mixed = {{1, CompareOp::kGt, "1000"},
                                        {2, CompareOp::kContains, "tail1"},
                                        {1, CompareOp::kIsNull}};
  cases.push_back({"mixed", MixedInput(), MixedSchema(), mixed, 0,
                   std::nullopt});
  cases.push_back({"skip_rows", "s,n,t\n" + MixedInput(), MixedSchema(),
                   mixed, /*skip_rows=*/1, std::nullopt});
  cases.push_back(
      {"empty", "", MixedSchema(), {mixed[0]}, 0, std::nullopt});
  // A fixed-width dialect: 20 positions + EOL + INV states, over the SIMD
  // register budget.
  dialect::DialectSpec fixed;
  fixed.name = "fixed-wide";
  fixed.fixed_widths = {10, 10};
  fixed.quote = 0;
  std::string fixed_input;
  for (int i = 0; i < 40; ++i) {
    const std::string left = std::to_string(i * 7919);
    const std::string right = i % 9 == 4 ? "" : "row" + std::to_string(i);
    fixed_input += left + std::string(10 - left.size(), ' ') + right +
                   std::string(10 - right.size(), '.') + "\n";
  }
  Schema fixed_schema;
  fixed_schema.AddField(Field("left", DataType::String()));
  fixed_schema.AddField(Field("right", DataType::String()));
  cases.push_back({"fixed_width", fixed_input, fixed_schema,
                   {{1, CompareOp::kContains, "row1"},
                    {0, CompareOp::kIsNull}},
                   0, fixed});

  int compared = 0;
  int answered = 0;
  for (const Case& c : cases) {
    for (const Predicate& predicate : c.predicates) {
      for (robust::ErrorPolicy policy :
           {robust::ErrorPolicy::kNull, robust::ErrorPolicy::kSkip,
            robust::ErrorPolicy::kQuarantine, robust::ErrorPolicy::kFail}) {
        for (TransposeMode transpose :
             {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
          for (TaggingMode tagging :
               {TaggingMode::kRecordTags, TaggingMode::kInlineTerminated,
                TaggingMode::kVectorDelimited}) {
            for (simd::KernelKind kernel :
                 {simd::KernelKind::kScalar, simd::KernelKind::kAuto}) {
              for (size_t chunk : {size_t{7}, size_t{64}, size_t{4096}}) {
                ParseOptions options;
                options.schema = c.schema;
                options.dialect = c.dialect;
                options.skip_rows = c.skip_rows;
                options.error_policy = policy;
                options.transpose_mode = transpose;
                options.tagging_mode = tagging;
                options.kernel = kernel;
                options.chunk_size = chunk;
                const std::string label =
                    c.name + " column=" + std::to_string(predicate.column) +
                    " op=" + std::to_string(static_cast<int>(predicate.op)) +
                    " policy=" + std::to_string(static_cast<int>(policy)) +
                    " transpose=" +
                    std::to_string(static_cast<int>(transpose)) +
                    " tagging=" + std::to_string(static_cast<int>(tagging)) +
                    " kernel=" + std::to_string(static_cast<int>(kernel)) +
                    " chunk=" + std::to_string(chunk);
                PushdownStats want_stats;
                PushdownStats got_stats;
                const Result<ParseOutput> want = TwoParsePushdown(
                    c.input, options, predicate, &want_stats);
                const Result<ParseOutput> got = ParseWithPushdown(
                    c.input, options, predicate, &got_stats);
                ExpectSameOutcome(got, got_stats, want, want_stats, label);
                if (HasFatalFailure()) return;
                ++compared;
                answered += want.ok() ? 1 : 0;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 17 * 4 * 2 * 3 * 2 * 3);
  // kFail and the short records under the inline and vector modes fail
  // some runs; most must answer.
  EXPECT_GT(answered, compared / 2);
}

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  Column column(DataType::String());
  column.AppendString("red");
  column.AppendString("green");
  column.AppendString("red");
  column.AppendNull();
  column.AppendString("blue");
  column.AppendString("green");
  auto encoded = DictionaryEncode(column);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->cardinality(), 3);
  EXPECT_EQ(encoded->codes,
            (std::vector<int32_t>{0, 1, 0, -1, 2, 1}));
  EXPECT_EQ(encoded->dictionary.StringValue(0), "red");
  EXPECT_EQ(encoded->dictionary.StringValue(2), "blue");
  const Column decoded = encoded->Decode();
  EXPECT_TRUE(decoded.Equals(column));
}

TEST(DictionaryTest, CompressionOnLowCardinality) {
  ParseOptions options;
  options.schema = TaxiSchema();
  const std::string csv = GenerateTaxiLike(5, 64 * 1024);
  auto parsed = Parser::Parse(csv, options);
  ASSERT_TRUE(parsed.ok());
  const Column& flags = parsed->table.columns[6];  // Y/N column
  auto encoded = DictionaryEncode(flags);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->cardinality(), 2);
  // 4 bytes/row codes beat 8-byte offsets + data? Not necessarily for
  // 1-char strings, but the dictionary itself must be tiny.
  EXPECT_LE(encoded->dictionary.TotalBufferBytes(), 64);
  EXPECT_TRUE(encoded->Decode().Equals(flags));
}

TEST(DictionaryTest, TypeAndEmptyEdgeCases) {
  Column ints(DataType::Int64());
  ints.AppendValue<int64_t>(1);
  EXPECT_FALSE(DictionaryEncode(ints).ok());

  Column empty(DataType::String());
  empty.Allocate(0);
  auto encoded = DictionaryEncode(empty);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->num_rows(), 0);
  EXPECT_EQ(encoded->cardinality(), 0);
  EXPECT_EQ(encoded->Decode().length(), 0);
}

TEST(LineitemTest, ParsesUnderPipeDsv) {
  DsvOptions dsv;
  dsv.field_delimiter = '|';
  dsv.quote = 0;
  auto format = DsvFormat(dsv);
  ASSERT_TRUE(format.ok());
  ParseOptions options;
  options.format = *format;
  options.schema = LineitemSchema();
  options.validate = true;
  const std::string data = GenerateLineitemLike(3, 64 * 1024);
  auto result = Parser::Parse(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_columns(), 16);
  EXPECT_GT(result->table.num_rows, 100);
  EXPECT_EQ(result->table.NumRejected(), 0);
  // Parity with the sequential reference.
  auto expected = SequentialParser::Parse(data, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(result->table.Equals(expected->table));
  // TPC-H Q1-style sanity: aggregate by returnflag+linestatus.
  QuerySpec spec;
  spec.group_by = 8;
  spec.aggregates = {Aggregate(AggKind::kCountAll),
                     Aggregate(AggKind::kSum, 4)};
  auto q1 = RunQuery(result->table, spec);
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->num_rows, 3);  // R, N, A
}

}  // namespace
}  // namespace parparaw
