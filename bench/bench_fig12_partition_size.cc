// Reproduces Figure 12: end-to-end processing duration as a function of
// the streaming partition size.
//
// Paper shape: a U-curve — small partitions pay per-partition overhead and
// lose overlap; very large partitions grow the non-overlapped head (first
// transfer) and tail (last return), so the duration rises again beyond
// 128 MB (yelp) / 256 MB (taxi). The modelled timeline reproduces the
// curve; partition sizes are scaled to the configured input size.

#include <cstdio>

#include "bench_util.h"
#include "exec/executor.h"
#include "stream/stream_model.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

void RunDataset(const char* name, const std::string& data,
                const Schema& schema) {
  std::printf("\n--- Figure 12 (%s, %.1f MB) ---\n", name,
              static_cast<double>(data.size()) / (1 << 20));
  std::printf("%12s %6s %14s %14s %12s\n", "partition", "#part",
              "modeled-e2e", "modeled-serial", "wall-parse");
  for (size_t partition = 256 * 1024; partition <= data.size() * 2;
       partition *= 2) {
    exec::ExecOptions options;
    options.base.schema = schema;
    options.partition_size = partition;
    exec::PipelineExecutor executor;
    auto result = executor.IngestBuffer(data, options);
    if (!result.ok()) {
      std::printf("%10zuKB failed: %s\n", partition >> 10,
                  result.status().ToString().c_str());
      continue;
    }
    const StreamModel model = ModelStream(*result);
    std::printf("%10zuKB %6d %11.2fms %11.2fms %9.1fms\n", partition >> 10,
                result->stats.num_partitions,
                model.modeled_end_to_end_seconds * 1e3,
                model.modeled_serial_seconds * 1e3,
                result->stats.wall_seconds * 1e3);
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 12: end-to-end duration vs partition size");
  const size_t bytes = BenchBytes(16);
  RunDataset("yelp reviews (synthetic)", GenerateYelpLike(5, bytes),
             YelpSchema());
  RunDataset("NYC taxi trips (synthetic)", GenerateTaxiLike(5, bytes),
             TaxiSchema());
  return 0;
}
