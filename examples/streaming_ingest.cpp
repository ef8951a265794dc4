// End-to-end streaming (§4.4, Fig. 7): parse a yelp-like dataset in
// fixed-size partitions with carry-over of incomplete trailing records
// (the pipelined executor), then replay the partitions through the PCIe
// and device models and print the overlapped transfer/parse/return
// timeline.
//
//   ./build/examples/streaming_ingest [MB] [partition_MB]

#include <cstdio>
#include <cstdlib>

#include "exec/executor.h"
#include "stream/stream_model.h"
#include "util/string_util.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace parparaw;  // NOLINT

  const size_t mb = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const size_t partition_mb =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 2;
  const std::string csv = GenerateYelpLike(/*seed=*/3, mb << 20);
  std::printf("input: %s of review CSV, %zu MB partitions\n",
              FormatBytes(csv.size()).c_str(), partition_mb);

  exec::ExecOptions options;
  options.base.schema = YelpSchema();
  options.partition_size = partition_mb << 20;

  exec::PipelineExecutor executor;
  auto result = executor.IngestBuffer(csv, options);
  if (!result.ok()) {
    std::fprintf(stderr, "streaming parse failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("parsed %lld reviews across %d partitions\n",
              static_cast<long long>(result->table.num_rows),
              result->stats.num_partitions);
  std::printf("CPU-substrate wall time: %.1f ms\n",
              result->stats.wall_seconds * 1e3);
  const StreamModel model = ModelStream(*result);
  std::printf("modeled GPU end-to-end:  %.2f ms (overlapped) vs %.2f ms "
              "(serial transfer+parse+return)\n",
              model.modeled_end_to_end_seconds * 1e3,
              model.modeled_serial_seconds * 1e3);
  std::printf("\nFig. 7 schedule (first partitions):\n%s",
              model.timeline.ToString().c_str());
  return 0;
}
