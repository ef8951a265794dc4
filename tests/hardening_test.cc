#include <gtest/gtest.h>

#include <random>

#include "baseline/sequential_parser.h"
#include "columnar/ipc.h"
#include "convert/temporal.h"
#include "core/parser.h"
#include "exec/executor.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

// --- cross-cutting stress and failure-injection tests ---

TEST(HardeningTest, ConcurrentParsesShareTheDefaultPool) {
  // Many parses racing through one pool must stay independent.
  ThreadPool pool(8);
  const std::string input = GenerateYelpLike(1, 64 * 1024);
  ParseOptions options;
  options.schema = YelpSchema();
  options.pool = &pool;
  auto reference = Parser::Parse(input, options);
  ASSERT_TRUE(reference.ok());
  for (int i = 0; i < 8; ++i) {
    auto result = Parser::Parse(input, options);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->table.Equals(reference->table)) << "iteration " << i;
  }
}

TEST(HardeningTest, StreamingEqualsOneShotOnAdversarialInputs) {
  for (uint64_t seed = 900; seed < 906; ++seed) {
    RandomCsvOptions gen;
    gen.num_records = 150;
    gen.num_columns = 4;
    gen.embedded_delimiter_probability = 0.35;
    gen.trailing_newline = (seed % 2) == 0;
    const std::string input = GenerateRandomCsv(seed, gen);
    ParseOptions base;
    for (int j = 0; j < 4; ++j) {
      base.schema.AddField(Field("c" + std::to_string(j),
                                 DataType::String()));
    }
    auto one_shot = Parser::Parse(input, base);
    ASSERT_TRUE(one_shot.ok());
    for (size_t partition : {64u, 257u, 1024u}) {
      exec::ExecOptions streaming;
      streaming.base = base;
      streaming.partition_size = partition;
      exec::PipelineExecutor executor;
      auto streamed = executor.IngestBuffer(input, streaming);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_TRUE(streamed->table.Equals(one_shot->table))
          << "seed " << seed << " partition " << partition;
    }
  }
}

TEST(HardeningTest, IpcRandomCorruptionNeverCrashes) {
  ParseOptions options;
  options.schema = TaxiSchema();
  auto parsed = Parser::Parse(GenerateTaxiLike(31, 8 * 1024), options);
  ASSERT_TRUE(parsed.ok());
  auto bytes = SerializeTable(parsed->table);
  ASSERT_TRUE(bytes.ok());
  std::mt19937_64 rng(17);
  int failures = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = *bytes;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      corrupted[rng() % corrupted.size()] ^=
          static_cast<char>(1 << (rng() % 8));
    }
    auto result = DeserializeTable(corrupted);
    // Either a clean error or a structurally valid table; never a crash.
    if (!result.ok()) ++failures;
  }
  // Flips inside value buffers legitimately deserialize (to different
  // values); flips in the framing/offsets must fail cleanly. The real
  // invariant is "no crash on any corruption", plus a sanity floor on the
  // validator actually firing.
  EXPECT_GT(failures, 20);
}

TEST(HardeningTest, TemporalFormatParseRoundTripSweep) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const int32_t days = static_cast<int32_t>(rng() % 80000) - 20000;
    const std::string text = FormatDate32(days);
    int32_t parsed;
    ASSERT_TRUE(ParseDate32(text, &parsed)) << text;
    ASSERT_EQ(parsed, days) << text;
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const int64_t micros =
        (static_cast<int64_t>(rng() % 4000000000ull) - 1000000000) *
            1000000 +
        static_cast<int64_t>(rng() % 1000000);
    const std::string text = FormatTimestampMicros(micros);
    int64_t parsed;
    ASSERT_TRUE(ParseTimestampMicros(text, &parsed)) << text;
    ASSERT_EQ(parsed, micros) << text;
  }
}

TEST(HardeningTest, PackedTransitionRowsMatchBuilderInput) {
  // Dfa::Row packs 16 4-bit states; verify the packing across every
  // (state, group) of the RFC 4180 machine against Table 1's layout.
  auto format = Rfc4180Format();
  ASSERT_TRUE(format.ok());
  const Dfa& dfa = format->dfa;
  for (int g = 0; g < dfa.num_symbol_groups(); ++g) {
    const Dfa::Row row = dfa.row(g);
    for (int s = 0; s < dfa.num_states(); ++s) {
      EXPECT_EQ((row >> (4 * s)) & 0xF, dfa.NextState(s, g));
    }
  }
}

TEST(HardeningTest, LineitemParsesEndToEnd) {
  DsvOptions dsv;
  dsv.field_delimiter = '|';
  dsv.quote = 0;
  auto dsv_format = DsvFormat(dsv);
  ASSERT_TRUE(dsv_format.ok());
  ParseOptions options;
  options.format = *dsv_format;
  options.schema = LineitemSchema();
  auto parsed = Parser::Parse(GenerateLineitemLike(9, 64 * 1024), options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(HardeningTest, HugeColumnCountsAndSingleColumn) {
  // 300 columns exercise multi-pass radix partitioning (> 1 byte of tag
  // bits would need 2 passes at 8 bits; 300 needs 9 bits -> 2 passes).
  std::string wide;
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 300; ++c) {
      if (c > 0) wide.push_back(',');
      wide += std::to_string(r * 300 + c);
    }
    wide.push_back('\n');
  }
  ParseOptions options;
  auto result = Parser::Parse(wide, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_columns(), 300);
  EXPECT_EQ(result->table.columns[299].StringValue(4), "1499");

  // Degenerate single-column input.
  auto single = Parser::Parse("alpha\nbeta\n", options);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->table.num_columns(), 1);
}

TEST(HardeningTest, AllBytesInputRobustness) {
  // Feed every byte value 0-255 as unquoted data; parsing must not crash
  // and must match the sequential reference.
  std::string input;
  for (int b = 0; b < 256; ++b) {
    input.push_back(static_cast<char>(b));
  }
  input.push_back('\n');
  ParseOptions options;
  options.chunk_size = 7;
  auto expected = SequentialParser::Parse(input, options);
  ASSERT_TRUE(expected.ok());
  auto got = Parser::Parse(input, options);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->table.Equals(expected->table));
}

TEST(HardeningTest, RecordLargerThanEveryChunk) {
  // One 100 KB quoted field with a 31-byte chunk size: thousands of
  // chunks inside a single quoted context.
  std::string big(100 * 1024, 'x');
  big[50] = ',';
  big[51] = '\n';
  const std::string input = "a,\"" + big + "\"\nb,short\n";
  ParseOptions options;
  options.schema.AddField(Field("k", DataType::String()));
  options.schema.AddField(Field("v", DataType::String()));
  auto result = Parser::Parse(input, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->table.num_rows, 2);
  EXPECT_EQ(result->table.columns[1].StringValue(0).size(), big.size());
  EXPECT_EQ(result->table.columns[1].StringValue(1), "short");
}

}  // namespace
}  // namespace parparaw
