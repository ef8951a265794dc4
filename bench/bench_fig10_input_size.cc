// Reproduces Figure 10: on-GPU parsing rate (GB/s) as a function of the
// input size, for both datasets.
//
// Paper shape: rate grows with input size and saturates (9.75 GB/s at
// 10 MB for yelp, >2.1/2.7 GB/s already at 1 MB, ~50% of peak at 5 MB);
// small inputs suffer from the per-column kernel-launch overhead. On this
// CPU substrate the wall-clock column shows the same saturating shape; the
// modeled-GPU column reproduces the paper's scale.

#include <cstdio>

#include "bench_util.h"
#include "core/parser.h"
#include "sim/device_model.h"
#include "util/stopwatch.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

void RunDataset(const char* name, bool yelp) {
  const size_t max_bytes = BenchBytes(32);
  std::printf("\n--- Figure 10 (%s) ---\n", name);
  std::printf("%10s %12s %14s %14s\n", "input", "wall", "wall-rate",
              "modeled-GPU");
  const DeviceModel device;
  const std::string full = yelp ? GenerateYelpLike(7, max_bytes)
                                : GenerateTaxiLike(7, max_bytes);
  for (size_t bytes = 1 << 20; bytes <= max_bytes; bytes *= 2) {
    const std::string_view slice(full.data(), bytes);
    ParseOptions options;
    options.schema = yelp ? YelpSchema() : TaxiSchema();
    Stopwatch watch;
    auto result = Parser::Parse(slice, options);
    const double seconds = watch.ElapsedSeconds();
    if (!result.ok()) {
      std::printf("%8zuMB failed: %s\n", bytes >> 20,
                  result.status().ToString().c_str());
      continue;
    }
    const double modeled = device.ModelParsingRateGbps(
        result->work, result->table.num_columns());
    std::printf("%8zuMB %10.1fms %11.3fGB/s %11.2fGB/s\n", bytes >> 20,
                seconds * 1e3, Gbps(bytes, seconds), modeled);
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 10: parsing rate vs input size");
  RunDataset("yelp reviews (synthetic)", /*yelp=*/true);
  RunDataset("NYC taxi trips (synthetic)", /*yelp=*/false);
  return 0;
}
