#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/field_walk.h"
#include "dfa/formats.h"
#include "dialect/dialect.h"
#include "field_walk_oracle.h"
#include "test_util.h"
#include "workload/generators.h"

// The field walk over a wanted set (ForEachField, core/field_walk.h)
// against the one-step-per-field oracle (tests/field_walk_oracle.h): for
// every chunk and every wanted set, the walk yields exactly the oracle's
// fields of the wanted columns, every FieldSpan member equal, and reports
// exactly the ends of the records whose last field is not wanted but which
// lack a wanted column, in the same order.

namespace parparaw {
namespace {

struct NamedFormat {
  std::string name;
  Format format;
};

/// Every registered format family.
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

/// Deterministic xorshift (seeded, reproducible).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// One event of a walk: a yielded field, or a record-end report (record
/// and column only).
struct WalkEvent {
  bool yielded = false;
  FieldSpan span;
};

std::vector<WalkEvent> WalkChunk(const PipelineState& state, int64_t c,
                                 const WantedColumns& wanted) {
  std::vector<WalkEvent> events;
  ForEachField(
      state, c, wanted,
      [&](const FieldSpan& field) { events.push_back({true, field}); },
      [&](int64_t record, uint32_t last_column) {
        WalkEvent report;
        report.span.record = record;
        report.span.column = last_column;
        events.push_back(report);
      });
  return events;
}

std::vector<WalkEvent> OracleChunk(const PipelineState& state, int64_t c,
                                   const WantedColumns& wanted) {
  std::vector<WalkEvent> events;
  OracleFieldWalk(state, c, [&](const FieldSpan& field) {
    if (wanted.wants(field.column)) {
      events.push_back({true, field});
    } else if (field.record_end &&
               wanted.Next(field.column) != WantedColumns::kNone) {
      WalkEvent report;
      report.span.record = field.record;
      report.span.column = field.column;
      events.push_back(report);
    }
  });
  return events;
}

/// Tallies of what the comparisons covered, so the test can insist that
/// its inputs reach every case of the walk.
struct Coverage {
  int64_t fields = 0;
  int64_t reports = 0;
  int64_t skipped = 0;  // oracle fields the walk did not yield
  int64_t trailing = 0;
  int64_t inclusive = 0;
  int64_t multiword = 0;  // yielded fields whose window spans mask words
};

void ExpectWalkMatchesOracle(const PipelineState& state,
                             const WantedColumns& wanted,
                             const std::string& context, Coverage* coverage) {
  for (int64_t c = 0; c < state.num_chunks; ++c) {
    const std::vector<WalkEvent> want = OracleChunk(state, c, wanted);
    const std::vector<WalkEvent> got = WalkChunk(state, c, wanted);
    const std::string where = context + " chunk " + std::to_string(c);
    ASSERT_EQ(want.size(), got.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      const FieldSpan& w = want[i].span;
      const FieldSpan& g = got[i].span;
      const std::string at = where + " event " + std::to_string(i);
      ASSERT_EQ(want[i].yielded, got[i].yielded) << at;
      ASSERT_EQ(w.record, g.record) << at;
      ASSERT_EQ(w.column, g.column) << at;
      if (!want[i].yielded) {
        ++coverage->reports;
        continue;
      }
      ASSERT_EQ(w.begin, g.begin) << at;
      ASSERT_EQ(w.end, g.end) << at;
      ASSERT_EQ(w.length, g.length) << at;
      ASSERT_EQ(w.inclusive, g.inclusive) << at;
      ASSERT_EQ(w.record_end, g.record_end) << at;
      ++coverage->fields;
      coverage->trailing += w.end == static_cast<int64_t>(state.size);
      coverage->inclusive += w.inclusive;
      coverage->multiword += (w.begin >> 6) != (w.end >> 6);
    }
    int64_t all = 0;
    OracleFieldWalk(state, c, [&](const FieldSpan&) { ++all; });
    int64_t yielded = 0;
    for (const WalkEvent& e : got) yielded += e.yielded;
    coverage->skipped += all - yielded;
  }
}

/// The wanted sets the sweep walks for a parse whose widest record has
/// `width` columns: all, none, one column (also past the records' width),
/// the last column, random subsets, and every column but a random few.
std::vector<std::pair<std::string, WantedColumns>> WantedSetsFor(
    uint32_t width, Rng& rng) {
  std::vector<std::pair<std::string, WantedColumns>> sets;
  sets.emplace_back("all", WantedColumns::AllBut({}));
  sets.emplace_back("none", WantedColumns::Only({}));
  sets.emplace_back("first", WantedColumns::Only({0}));
  sets.emplace_back("last", WantedColumns::Only({width - 1}));
  const uint32_t one = static_cast<uint32_t>(rng.Below(width + 3));
  sets.emplace_back("one " + std::to_string(one), WantedColumns::Only({one}));
  for (int k = 0; k < 3; ++k) {
    std::vector<uint32_t> subset;
    std::string name = "subset";
    for (uint32_t j = 0; j < width + 3; ++j) {
      if (rng.Below(3) == 0) {
        subset.push_back(j);
        name += " " + std::to_string(j);
      }
    }
    sets.emplace_back(name, WantedColumns::Only(subset));
  }
  std::vector<uint32_t> skipped;
  std::string name = "all but";
  for (uint32_t j = 0; j < width + 1; ++j) {
    if (rng.Below(3) == 0) {
      skipped.push_back(j);
      name += " " + std::to_string(j);
    }
  }
  sets.emplace_back(name, WantedColumns::AllBut(skipped));
  // The plain parse's gather: the columns [0, width), and none past them.
  std::vector<uint32_t> prefix;
  for (uint32_t j = 0; j < width; ++j) prefix.push_back(j);
  sets.emplace_back("prefix", WantedColumns::Only(prefix));
  return sets;
}

/// Runs the steps through the tag step (which computes the walk's
/// carries) and compares the walk with the oracle for every wanted set.
void SweepWantedSets(const std::string& input, ParseOptions options,
                     uint64_t seed, const std::string& context,
                     Coverage* coverage) {
  options.transpose_mode = TransposeMode::kFieldGather;
  auto h = StepHarness::Make(input, options);
  ASSERT_NE(h, nullptr) << context;
  const Status tagged = h->RunThroughTagging();
  ASSERT_TRUE(tagged.ok()) << context << ": " << tagged.ToString();
  Rng rng(seed * 7 + 3);
  const uint32_t width = h->state.max_column_index + 1;
  for (const auto& [name, wanted] : WantedSetsFor(width, rng)) {
    ASSERT_NO_FATAL_FAILURE(ExpectWalkMatchesOracle(
        h->state, wanted, context + " wanted " + name, coverage));
  }
}

/// UTF-8 text: a leading continuation byte (which belongs to no chunk),
/// then `input` with letters widened to two-, three- and four-byte
/// sequences, so small chunks start inside multi-byte symbols.
std::string WidenUtf8(const std::string& input) {
  std::string out = "\xA9";
  for (char ch : input) {
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

/// The seed's input in `format`: a random CSV whose records often span
/// several mask words, with quoted fields holding "" escapes, delimiters
/// and newlines, ragged records and, every third seed, no final record
/// delimiter, plus comment lines or backslash escapes where the format has
/// them; or random bytes; widened to UTF-8 on odd seeds.
std::string InputFor(const NamedFormat& format, uint64_t seed) {
  std::string input;
  if (format.name == "extended_log") {
    input = GenerateLogLike(seed, 512 + seed % 3000);
  } else if (seed % 9 == 4) {
    Rng rng(seed);
    input.resize(64 + seed % 700);
    for (char& ch : input) ch = static_cast<char>(rng.Next() & 0xFF);
  } else {
    RandomCsvOptions csv;
    csv.num_records = 5 + static_cast<int>(seed % 60);
    csv.num_columns = 1 + static_cast<int>(seed % 11);
    csv.quote_probability = (seed % 4) * 0.2;
    csv.embedded_delimiter_probability = 0.3;
    csv.escaped_quote_probability = 0.3;
    csv.ragged_probability = (seed % 3) * 0.25;
    csv.max_field_length = seed % 2 == 0 ? 24 : 150;
    csv.trailing_newline = seed % 3 != 0;
    input = GenerateRandomCsv(seed, csv);
    if (format.format.field_delimiter != ',') {
      for (char& ch : input) {
        if (ch == ',') ch = static_cast<char>(format.format.field_delimiter);
      }
    }
    if (format.name == "comment_cr" && seed % 2 == 0) {
      input = "# header comment\r\n\r\n" + input + "\n# trailing #\n";
    }
    if (format.name == "tsv_escape") {
      // Backslash escapes: the backslash is a control byte, the byte it
      // escapes (now and then a delimiter) a value byte.
      std::string escaped;
      for (size_t i = 0; i < input.size(); ++i) {
        if (i % 37 == 5) escaped.push_back('\\');
        escaped.push_back(input[i]);
      }
      input = std::move(escaped);
    }
  }
  return seed % 2 != 0 ? WidenUtf8(input) : input;
}

TEST(FieldWalkTest, WantedColumnsMatchOracleOnRegisteredFormats) {
  std::vector<NamedFormat> formats;
  ASSERT_NO_FATAL_FAILURE(formats = RegisteredFormats());
  Coverage coverage;
  for (const NamedFormat& format : formats) {
    for (uint64_t seed = 0; seed < 96; ++seed) {
      static const size_t kChunkSizes[] = {7, 31, 64, 4096};
      ParseOptions options;
      options.format = format.format;
      options.chunk_size = kChunkSizes[seed % 4];
      options.encoding =
          seed % 2 != 0 ? TextEncoding::kUtf8 : TextEncoding::kAscii;
      ASSERT_NO_FATAL_FAILURE(SweepWantedSets(
          InputFor(format, seed), options, seed,
          format.name + " seed " + std::to_string(seed), &coverage));
    }
  }
  // The inputs reach every case: jumps over unwanted fields, reports of
  // short records, trailing records and fields spanning mask words.
  EXPECT_GT(coverage.fields, 100000);
  EXPECT_GT(coverage.skipped, 100000);
  EXPECT_GT(coverage.reports, 1000);
  EXPECT_GT(coverage.trailing, 100);
  EXPECT_GT(coverage.multiword, 1000);
}

// A fixed-width dialect over the register budget (21-byte records): every
// field but a record's last ends at an inclusive boundary, the field's
// last value byte as well as its end. Short records (a byte missing)
// shift the boundaries of the records after them.
TEST(FieldWalkTest, WantedColumnsMatchOracleOnWideFixedWidth) {
  dialect::DialectSpec spec;
  spec.name = "fixed_7_9_5";
  spec.fixed_widths = {7, 9, 5};
  spec.quote = 0;
  Coverage coverage;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed + 11);
    std::string input;
    const int records = 3 + static_cast<int>(seed % 40);
    for (int r = 0; r < records; ++r) {
      for (int i = 0; i < 21; ++i) {
        input.push_back(static_cast<char>('a' + rng.Below(26)));
      }
      if (rng.Below(6) == 0) input.pop_back();
      if (r + 1 < records || seed % 3 != 0) input += spec.record_delimiter;
    }
    ParseOptions options;
    options.dialect = spec;
    static const size_t kChunkSizes[] = {7, 31, 64, 4096};
    options.chunk_size = kChunkSizes[seed % 4];
    ASSERT_TRUE(dialect::ResolveParseDialect(&options).ok());
    ASSERT_FALSE(options.format.dfa.fits_register_budget());
    ASSERT_NO_FATAL_FAILURE(SweepWantedSets(
        input, options, seed, "fixed-width seed " + std::to_string(seed),
        &coverage));
  }
  EXPECT_GT(coverage.inclusive, 1000);
  EXPECT_GT(coverage.skipped, 1000);
}

// Records far wider than one mask word, the wanted column deep inside:
// the walk counts many whole words of field bits before its select.
TEST(FieldWalkTest, JumpsAcrossManyMaskWords) {
  Coverage coverage;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed + 5);
    std::string input;
    const int columns = 40 + static_cast<int>(rng.Below(300));
    for (int r = 0; r < 12; ++r) {
      const int cells = r % 4 == 3 ? columns / 2 : columns;
      for (int j = 0; j < cells; ++j) {
        if (j > 0) input.push_back(',');
        const std::string cell(rng.Below(6), static_cast<char>('a' + j % 26));
        // Now and then a quoted cell with an escaped quote and a delimiter.
        input += rng.Below(20) == 0 ? "\"" + cell + "\"\",\"" : cell;
      }
      if (r < 11 || seed % 2 == 0) input.push_back('\n');
    }
    ParseOptions options;
    options.chunk_size = seed % 2 == 0 ? 64 : 4096;
    ASSERT_NO_FATAL_FAILURE(SweepWantedSets(
        input, options, seed, "wide seed " + std::to_string(seed),
        &coverage));
  }
  EXPECT_GT(coverage.reports, 50);
  EXPECT_GT(coverage.skipped, 10000);
}

TEST(FieldWalkTest, WantedColumnsLookup) {
  const WantedColumns all = WantedColumns::AllBut({});
  EXPECT_EQ(all.Next(0), 0u);
  EXPECT_EQ(all.Next(7), 7u);
  EXPECT_EQ(all.RunEnd(0), WantedColumns::kNone);

  const WantedColumns none = WantedColumns::Only({});
  EXPECT_EQ(none.Next(0), WantedColumns::kNone);
  EXPECT_EQ(none.RunEnd(0), 0u);
  EXPECT_EQ(none.RunEnd(5), 5u);

  const WantedColumns prefix = WantedColumns::Only({2, 0, 1});
  EXPECT_TRUE(prefix.wants(0) && prefix.wants(1) && prefix.wants(2));
  EXPECT_EQ(prefix.Next(3), WantedColumns::kNone);
  EXPECT_EQ(prefix.RunEnd(0), 3u);
  EXPECT_EQ(prefix.RunEnd(2), 3u);
  EXPECT_EQ(prefix.RunEnd(9), 9u);

  const WantedColumns sparse = WantedColumns::Only({1, 4});
  EXPECT_EQ(sparse.Next(0), 1u);
  EXPECT_EQ(sparse.Next(2), 4u);
  EXPECT_EQ(sparse.Next(4), 4u);
  EXPECT_EQ(sparse.Next(5), WantedColumns::kNone);
  EXPECT_EQ(sparse.Next(1000), WantedColumns::kNone);
  EXPECT_EQ(sparse.RunEnd(0), 0u);
  EXPECT_EQ(sparse.RunEnd(1), 2u);
  EXPECT_EQ(sparse.RunEnd(4), 5u);

  const WantedColumns all_but = WantedColumns::AllBut({0, 2});
  EXPECT_EQ(all_but.Next(0), 1u);
  EXPECT_EQ(all_but.Next(2), 3u);
  EXPECT_EQ(all_but.Next(1000), 1000u);
  EXPECT_FALSE(all_but.wants(2));
  EXPECT_EQ(all_but.RunEnd(1), 2u);
  EXPECT_EQ(all_but.RunEnd(3), WantedColumns::kNone);

  const WantedColumns all_but_tail = WantedColumns::AllBut({3});
  EXPECT_EQ(all_but_tail.Next(0), 0u);
  EXPECT_EQ(all_but_tail.Next(3), 4u);
  EXPECT_EQ(all_but_tail.RunEnd(0), 3u);
  EXPECT_EQ(all_but_tail.RunEnd(3), 3u);
  EXPECT_EQ(all_but_tail.RunEnd(4), WantedColumns::kNone);

  EXPECT_EQ(SelectBit(0b101100, 0), 2u);
  EXPECT_EQ(SelectBit(0b101100, 2), 5u);
  EXPECT_EQ(SelectBit(uint64_t{1} << 63 | 1, 1), 63u);
}

}  // namespace
}  // namespace parparaw
