// Reproduces Figure 11: per-step time breakdown for the three tagging
// modes (left) and robustness on skewed input (right).
//
// Paper shape: record-tags ("tagged") is noticeably slower than the
// inline-terminated and vector-delimited modes — specifically in the tag,
// partition, and convert steps, which move the 4-byte record tags — and
// the skewed inputs (one 200 MB-class record) change totals only
// marginally versus the original inputs.
//
// The tagging modes shape only the symbol sort's CSS, so the left-hand
// breakdown pins TransposeMode::kSymbolSort; under the field gather the
// three rows would time the same code.

#include <cstdio>

#include "bench_util.h"
#include "core/parser.h"
#include "util/stopwatch.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

const char* ModeName(TaggingMode mode) {
  switch (mode) {
    case TaggingMode::kRecordTags:
      return "tagged";
    case TaggingMode::kInlineTerminated:
      return "inline";
    case TaggingMode::kVectorDelimited:
      return "delimited";
    case TaggingMode::kAuto:
      return "auto";
  }
  return "?";
}

void RunOne(const char* dataset, const std::string& data,
            const Schema& schema, TaggingMode mode) {
  ParseOptions options;
  options.schema = schema;
  options.tagging_mode = mode;
  options.transpose_mode = TransposeMode::kSymbolSort;
  auto result = Parser::Parse(data, options);
  if (!result.ok()) {
    std::printf("%-10s %-10s failed: %s\n", ModeName(mode), dataset,
                result.status().ToString().c_str());
    return;
  }
  const StepTimings& t = result->timings;
  std::printf(
      "%-10s %-6s %8.1fms %8.1fms %8.1fms %8.1fms %8.1fms %9.1fms\n",
      ModeName(mode), dataset, t.parse_ms, t.scan_ms, t.tag_ms,
      t.partition_ms, t.convert_ms, t.TotalMs());
}

}  // namespace

int main() {
  PrintHeader("Figure 11: tagging modes (left) and skewed input (right)");
  const size_t bytes = BenchBytes(8);
  const std::string yelp = GenerateYelpLike(21, bytes);
  const std::string taxi = GenerateTaxiLike(21, bytes);

  std::printf("\n--- tagging-mode breakdown ---\n");
  std::printf("%-10s %-6s %10s %10s %10s %10s %10s %10s\n", "mode", "data",
              "parse", "scan", "tag", "partition", "convert", "total");
  for (TaggingMode mode :
       {TaggingMode::kRecordTags, TaggingMode::kInlineTerminated,
        TaggingMode::kVectorDelimited}) {
    RunOne("yelp", yelp, YelpSchema(), mode);
    RunOne("NYC", taxi, TaxiSchema(), mode);
  }

  std::printf("\n--- skewed input (one record with a ~%zu KB field) ---\n",
              bytes / 4 / 1024);
  std::printf("%-10s %-10s %12s %12s\n", "dataset", "variant", "total",
              "rate");
  for (bool is_yelp : {true, false}) {
    const std::string& original = is_yelp ? yelp : taxi;
    const std::string skewed =
        GenerateSkewed(21, bytes, /*giant_field_bytes=*/bytes / 4, is_yelp);
    for (int variant = 0; variant < 2; ++variant) {
      const std::string& data = variant == 0 ? original : skewed;
      ParseOptions options;
      options.schema = is_yelp ? YelpSchema() : TaxiSchema();
      Stopwatch watch;
      auto result = Parser::Parse(data, options);
      const double s = watch.ElapsedSeconds();
      if (!result.ok()) {
        std::printf("%-10s %-10s failed: %s\n", is_yelp ? "yelp" : "NYC",
                    variant == 0 ? "original" : "skewed",
                    result.status().ToString().c_str());
        continue;
      }
      std::printf("%-10s %-10s %10.1fms %9.3fGB/s\n",
                  is_yelp ? "yelp" : "NYC",
                  variant == 0 ? "original" : "skewed", s * 1e3,
                  Gbps(data.size(), s));
    }
  }
  return 0;
}
