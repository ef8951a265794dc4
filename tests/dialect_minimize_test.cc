#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dialect/dialect.h"
#include "robust/failpoint.h"

// Property tests for the dialect minimiser (dialect/automaton.cc): the
// minimised automaton accepts the same language with the same SymbolFlags
// on every transition (checked both by the product-construction proof and
// by direct lockstep walks), minimisation is a fixpoint, genuinely
// redundant states merge, and malformed specs are rejected with an
// actionable kInvalidArgument before any DFA is built.

namespace parparaw {
namespace {

using dialect::Automaton;
using dialect::CheckEquivalent;
using dialect::CompileDialect;
using dialect::DialectSpec;
using dialect::EquivalenceResult;
using dialect::EscapeStyle;
using dialect::Minimize;

/// Deterministic xorshift (same shape as the differential harnesses).
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

/// A seeded random — but always valid — DialectSpec spanning the whole
/// option space: delimiters, multi-byte record delimiters, quote and
/// escape conventions, comments, fixed widths.
DialectSpec RandomSpec(uint64_t seed) {
  Rng rng(seed);
  DialectSpec spec;
  spec.name = "random-" + std::to_string(seed);
  if (rng.Next() % 5 == 0) {
    // Fixed-width: 1-4 fields of width 1-6.
    const int fields = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < fields; ++f) {
      spec.fixed_widths.push_back(1 + static_cast<int>(rng.Next() % 6));
    }
    spec.quote = 0;
    if (rng.Next() % 3 == 0) spec.record_delimiter = "\r\n";
    return spec;
  }
  static const uint8_t kFieldDelims[] = {',', ';', '\t', '|', ' ', 0};
  static const char* const kRecordDelims[] = {"\n", "\r\n", "%$", "EOL"};
  spec.field_delimiter = kFieldDelims[rng.Next() % 6];
  spec.record_delimiter = kRecordDelims[rng.Next() % 4];
  spec.quote = (rng.Next() % 4 == 0) ? 0 : '"';
  spec.escape_style = (rng.Next() % 2 == 0) ? EscapeStyle::kDoubledQuote
                                            : EscapeStyle::kBackslash;
  spec.comment = (rng.Next() % 3 == 0) ? '#' : 0;
  spec.skip_empty_lines = rng.Next() % 2 == 0;
  spec.strict_quotes = rng.Next() % 2 == 0;
  spec.verbatim_quotes = spec.quote != 0 && rng.Next() % 5 == 0;
  // "EOL" contains no special byte for the choices above; "%$" and "\r\n"
  // likewise. Field delimiter ' ' never collides with them either.
  return spec;
}

/// A seeded input biased towards the spec's own special bytes so runs
/// visit quoted context, comments, delimiter chains and the trap state.
std::string RandomInput(const DialectSpec& spec, uint64_t seed,
                        size_t size) {
  Rng rng(seed);
  std::string special;
  if (spec.field_delimiter != 0) special.push_back(spec.field_delimiter);
  special += spec.record_delimiter;
  if (spec.quote != 0) special.push_back(spec.quote);
  if (spec.comment != 0) special.push_back(spec.comment);
  if (spec.escape_style == EscapeStyle::kBackslash) {
    special.push_back(spec.escape_char);
  }
  std::string out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    if (!special.empty() && rng.Next() % 3 == 0) {
      out.push_back(special[rng.Next() % special.size()]);
    } else if (rng.Next() % 7 == 0) {
      out.push_back(static_cast<char>(rng.Next() & 0xFF));
    } else {
      out.push_back(static_cast<char>('a' + rng.Next() % 26));
    }
  }
  return out;
}

TEST(DialectMinimizeTest, MinimizedProvedEquivalentToOriginal) {
  int compiled = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const DialectSpec spec = RandomSpec(seed);
    if (!spec.Validate().ok()) continue;
    auto wide = CompileDialect(spec);
    ASSERT_TRUE(wide.ok()) << spec.name << ": " << wide.status().ToString();
    auto minimized = Minimize(*wide);
    ASSERT_TRUE(minimized.ok()) << spec.name;
    EXPECT_LE(minimized->num_states, wide->num_states) << spec.name;
    const EquivalenceResult proof = CheckEquivalent(*wide, *minimized);
    ASSERT_TRUE(proof.equivalent)
        << spec.name << ": " << proof.detail << " (witness: \""
        << proof.witness << "\")";
    ++compiled;
  }
  // The generator must actually exercise the space, not skip everything.
  EXPECT_GT(compiled, 150);
}

TEST(DialectMinimizeTest, MinimizeIsAFixpoint) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    const DialectSpec spec = RandomSpec(seed * 31 + 7);
    if (!spec.Validate().ok()) continue;
    auto once = Minimize(*CompileDialect(spec));
    ASSERT_TRUE(once.ok());
    auto twice = Minimize(*once);
    ASSERT_TRUE(twice.ok());
    EXPECT_EQ(once->num_states, twice->num_states) << spec.name;
    EXPECT_TRUE(CheckEquivalent(*once, *twice).equivalent) << spec.name;
  }
}

TEST(DialectMinimizeTest, SymbolFlagsPreservedAlongLockstepRuns) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    const DialectSpec spec = RandomSpec(seed * 13 + 3);
    if (!spec.Validate().ok()) continue;
    auto wide = CompileDialect(spec);
    auto minimized = Minimize(*wide);
    ASSERT_TRUE(wide.ok() && minimized.ok());
    const std::string input = RandomInput(spec, seed, 96 + seed % 128);
    int sw = wide->start;
    int sm = minimized->start;
    for (size_t i = 0; i < input.size(); ++i) {
      const uint8_t byte = static_cast<uint8_t>(input[i]);
      ASSERT_EQ(wide->FlagsFor(sw, byte), minimized->FlagsFor(sm, byte))
          << spec.name << " offset " << i;
      sw = wide->Next(sw, byte);
      sm = minimized->Next(sm, byte);
      ASSERT_EQ(wide->accepting[sw] != 0, minimized->accepting[sm] != 0)
          << spec.name << " offset " << i;
      ASSERT_EQ(wide->mid_record[sw] != 0, minimized->mid_record[sm] != 0)
          << spec.name << " offset " << i;
    }
  }
}

TEST(DialectMinimizeTest, MergesDuplicatedStates) {
  auto wide = CompileDialect(DialectSpec{});
  ASSERT_TRUE(wide.ok());
  auto minimal = Minimize(*wide);
  ASSERT_TRUE(minimal.ok());

  // Clone one non-start state and reroute half its inbound edges to the
  // copy: the automaton grows but its behaviour cannot change, so the
  // minimiser must collapse back to the original count.
  Automaton bloated = *wide;
  const int victim = (bloated.start + 1) % bloated.num_states;
  const int clone = bloated.num_states++;
  bloated.names.push_back(bloated.names[victim] + "'");
  bloated.accepting.push_back(bloated.accepting[victim]);
  bloated.mid_record.push_back(bloated.mid_record[victim]);
  bloated.next.insert(
      bloated.next.end(), bloated.next.begin() + victim * 256,
      bloated.next.begin() + (victim + 1) * 256);
  bloated.flags.insert(
      bloated.flags.end(), bloated.flags.begin() + victim * 256,
      bloated.flags.begin() + (victim + 1) * 256);
  bool reroute = false;
  for (size_t i = 0; i < bloated.next.size() - 256; ++i) {
    if (bloated.next[i] == victim && (reroute = !reroute)) {
      bloated.next[i] = clone;
    }
  }

  auto collapsed = Minimize(bloated);
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed->num_states, minimal->num_states);
  EXPECT_TRUE(CheckEquivalent(*collapsed, *wide).equivalent);
}

TEST(DialectMinimizeTest, CompileFailpointsPropagate) {
  using robust::FailpointRegistry;
  FailpointRegistry& registry = FailpointRegistry::Instance();
  for (const char* site : {"dialect.compile", "dialect.minimise"}) {
    registry.Arm(site, robust::CountTrigger(1));
    auto result = dialect::Compile(DialectSpec{});
    registry.Disarm(site);
    ASSERT_FALSE(result.ok()) << site;
    ASSERT_NE(result.status().code(), StatusCode::kOk) << site;
    ASSERT_FALSE(result.status().message().empty()) << site;
  }
  // Disarmed, the same spec compiles.
  EXPECT_TRUE(dialect::Compile(DialectSpec{}).ok());
}

TEST(DialectMinimizeTest, MalformedSpecsRejectedWithInvalidArgument) {
  std::vector<DialectSpec> bad;

  {
    DialectSpec s;  // empty record delimiter
    s.record_delimiter.clear();
    bad.push_back(s);
  }
  {
    DialectSpec s;  // over the 4-byte delimiter bound
    s.record_delimiter = "ABCDE";
    bad.push_back(s);
  }
  {
    DialectSpec s;  // self-overlapping multi-byte delimiter
    s.record_delimiter = "\n\n";
    bad.push_back(s);
  }
  {
    DialectSpec s;  // border of length 1 ("aba")
    s.record_delimiter = "aba";
    bad.push_back(s);
  }
  {
    DialectSpec s;  // record-delimiter byte doubles as field delimiter
    s.record_delimiter = ";x";
    s.field_delimiter = ';';
    bad.push_back(s);
  }
  {
    DialectSpec s;  // record-delimiter byte doubles as the quote
    s.record_delimiter = "\"x";
    bad.push_back(s);
  }
  {
    DialectSpec s;  // quote == field delimiter
    s.quote = ',';
    bad.push_back(s);
  }
  {
    DialectSpec s;  // comment == field delimiter
    s.comment = ',';
    bad.push_back(s);
  }
  {
    DialectSpec s;  // comment == quote
    s.comment = '"';
    bad.push_back(s);
  }
  {
    DialectSpec s;  // backslash style with a zero escape byte
    s.escape_style = EscapeStyle::kBackslash;
    s.escape_char = 0;
    bad.push_back(s);
  }
  {
    DialectSpec s;  // escape collides with the quote
    s.escape_style = EscapeStyle::kBackslash;
    s.escape_char = '"';
    bad.push_back(s);
  }
  {
    DialectSpec s;  // verbatim quoting without a quote byte
    s.quote = 0;
    s.verbatim_quotes = true;
    bad.push_back(s);
  }
  {
    DialectSpec s;  // non-positive fixed width
    s.fixed_widths = {3, 0, 2};
    bad.push_back(s);
  }
  {
    DialectSpec s;  // fixed-width record over the 4096-byte bound
    s.fixed_widths = {4000, 1000};
    bad.push_back(s);
  }
  {
    DialectSpec s;  // fixed-width with quoting
    s.fixed_widths = {2, 2};
    s.quote = '"';
    bad.push_back(s);
  }
  {
    DialectSpec s;  // fixed-width with skip_empty_lines
    s.fixed_widths = {2, 2};
    s.quote = 0;
    s.skip_empty_lines = true;
    bad.push_back(s);
  }

  for (size_t i = 0; i < bad.size(); ++i) {
    const Status direct = bad[i].Validate();
    EXPECT_EQ(direct.code(), StatusCode::kInvalidArgument)
        << "case " << i << ": " << direct.ToString();
    EXPECT_FALSE(direct.message().empty()) << "case " << i;
    // Every compile entry point validates first: same rejection, no DFA.
    const auto compiled = dialect::Compile(bad[i]);
    ASSERT_FALSE(compiled.ok()) << "case " << i;
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument)
        << "case " << i;
  }
}

}  // namespace
}  // namespace parparaw
