// Extension experiment (§1 outlook: "package-level integration of multiple
// GPU modules"): the streaming pipeline of Fig. 7 scheduled over K modeled
// devices with independent interconnect channels, partitions distributed
// round-robin. Shows where multi-GPU streaming helps (transfer-bound
// regime) and where the carry-over dependency caps it (parse-bound
// regime, because parse(p) waits for parse(p-1)'s carry-over copy).

#include <cstdio>

#include "bench_util.h"
#include "exec/executor.h"
#include "sim/device_model.h"
#include "sim/pcie_model.h"
#include "sim/timeline.h"

namespace {

using namespace parparaw;         // NOLINT
using namespace parparaw::bench;  // NOLINT

}  // namespace

int main() {
  PrintHeader("Multi-GPU streaming extension (Fig. 7 over K devices)");
  const size_t bytes = BenchBytes(16);
  const std::string data = GenerateYelpLike(77, bytes);

  // Derive per-partition stage durations once from a real streaming parse.
  exec::ExecOptions options;
  options.base.schema = YelpSchema();
  options.partition_size = 1 << 20;
  exec::PipelineExecutor executor;
  auto result = executor.IngestBuffer(data, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const PcieModel pcie;
  const DeviceModel device;
  const int parts = result->stats.num_partitions;
  std::printf("input %.1f MB, %d partitions of 1 MB\n",
              static_cast<double>(data.size()) / (1 << 20), parts);

  // Two regimes: the measured work (parse-heavier) and a transfer-bound
  // variant (as if the GPU parsed 8x faster than the link).
  for (int regime = 0; regime < 2; ++regime) {
    std::vector<PartitionStages> stages(parts);
    const double h2d = pcie.H2dSeconds(1 << 20);
    const double parse_each =
        regime == 0
            ? device.ModelPipeline(result->work, 9).TotalMs() / 1e3 / parts
            : h2d / 8;
    for (auto& s : stages) {
      s.h2d_seconds = h2d;
      s.parse_seconds = parse_each;
      s.d2h_seconds = pcie.D2hSeconds(
          result->table.TotalBufferBytes() / std::max(parts, 1));
      s.carry_copy_seconds = device.MemorySeconds(2 * 1024);
    }
    std::printf("\n--- %s regime (parse %.3f ms vs transfer %.3f ms per "
                "partition) ---\n",
                regime == 0 ? "measured-work" : "transfer-bound",
                parse_each * 1e3, h2d * 1e3);
    std::printf("%8s %14s %10s\n", "devices", "makespan", "speedup");
    const double base =
        StreamingTimeline::ScheduleMultiDevice(stages, 1).makespan;
    for (int devices : {1, 2, 4, 8}) {
      const double makespan =
          StreamingTimeline::ScheduleMultiDevice(stages, devices).makespan;
      std::printf("%8d %11.3fms %9.2fx\n", devices, makespan * 1e3,
                  base / makespan);
    }
  }
  std::printf(
      "\n(The carry-over dependency of Fig. 7 serialises parse stages "
      "across devices; multi-GPU pays off only while transfers are the "
      "bottleneck.)\n");
  return 0;
}
