// Custom dialect: parse a European-style CSV — ';'-separated fields,
// backslash escapes inside quotes, '#' comment lines — by describing the
// format as a DialectSpec instead of hand-building a DFA. The spec is
// compiled at runtime (DFA construction + Hopcroft-style minimisation +
// equivalence proof) and slots into the same massively parallel pipeline
// as the built-in formats. See docs/dialects.md.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/custom_dialect

#include <cstdio>

#include "api/reader.h"
#include "dialect/dialect.h"

int main() {
  using namespace parparaw;  // NOLINT

  // The same furniture data a European ERP system would export: ';' between
  // fields (',' is the decimal separator), backslash-escaped quotes, and
  // '#' comment lines interleaved with the data.
  const std::string csv =
      "# furniture export, 2026-08\n"
      "1941;199,99;\"Bookcase\"\n"
      "1938;19,99;\"Frame \\\"Ribba\\\"; black\"\n"
      "# prices include VAT\n"
      "2104;89,50;\"Shelf; wall-mounted\"\n";

  dialect::DialectSpec euro;
  euro.name = "euro-csv";
  euro.field_delimiter = ';';
  euro.escape_style = dialect::EscapeStyle::kBackslash;
  euro.comment = '#';
  euro.skip_empty_lines = true;

  // Optional: inspect what the compiler produced. Compile() builds the
  // wide automaton, minimises it, proves the result equivalent, and packs
  // it into the Dfa the pipeline parses with. Within the SIMD register
  // budget (16 states, 16 symbols) the context step runs the vector
  // kernels; over it, one DFA instance walks the chunks' entry states
  // sequentially and every later step still runs chunk-parallel.
  auto compiled = dialect::Compile(euro);
  if (!compiled.ok()) {
    std::fprintf(stderr, "dialect rejected: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  std::printf("dialect '%s': %d states minimised to %d, %s\n",
              euro.name.c_str(), compiled->original_states,
              compiled->minimized_states,
              compiled->format.dfa.fits_register_budget()
                  ? "within the SIMD register budget"
                  : "over the SIMD register budget (sequential context walk)");

  Schema schema;
  schema.AddField(Field("article_id", DataType::Int64()));
  schema.AddField(Field("price", DataType::String()));
  schema.AddField(Field("description", DataType::String()));

  auto result = Reader::FromBuffer(csv)
                    .WithDialect(euro)
                    .WithSchema(schema)
                    .WithHeader(false)
                    .Read();
  if (!result.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const Table& table = *result;
  std::printf("parsed %lld rows x %d columns\n",
              static_cast<long long>(table.num_rows), table.num_columns());
  for (int64_t row = 0; row < table.num_rows; ++row) {
    std::printf("  article %lld: %s EUR  %s\n",
                static_cast<long long>(table.columns[0].Value<int64_t>(row)),
                std::string(table.columns[1].StringValue(row)).c_str(),
                std::string(table.columns[2].StringValue(row)).c_str());
  }
  return 0;
}
