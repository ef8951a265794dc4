#include "sim/device_model.h"

#include <algorithm>
#include <cstdio>

namespace parparaw {

std::string DeviceSpec::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%d cores @ %.3f GHz, %.0f GB/s HBM, %d SMs",
                cores, clock_ghz, memory_bandwidth_gbps, num_sms);
  return buf;
}

double DeviceModel::MemorySeconds(int64_t bytes) const {
  const double effective =
      spec_.memory_bandwidth_gbps * 1e9 * spec_.memory_efficiency;
  return static_cast<double>(bytes) / effective;
}

double DeviceModel::ComputeSeconds(int64_t operations, double cycles) const {
  const double throughput = spec_.cores * spec_.clock_ghz * 1e9;  // ops/s at 1 cpo
  return static_cast<double>(operations) * cycles / throughput;
}

double DeviceModel::LaunchSeconds(int num_kernels) const {
  return num_kernels * spec_.kernel_launch_overhead_us * 1e-6;
}

StepTimings DeviceModel::ModelPipeline(const WorkCounters& work,
                                       int num_columns) const {
  StepTimings t;
  // Parse: read the input once, run |S| DFA instances per byte.
  const double parse_mem = MemorySeconds(work.parse_bytes_read);
  const double parse_compute =
      ComputeSeconds(work.dfa_transitions, spec_.cycles_per_transition);
  t.parse_ms = (std::max(parse_mem, parse_compute) + LaunchSeconds(1)) * 1e3;

  // Scans: tiny relative to the rest; modelled as reading/writing the
  // per-chunk descriptors plus one launch per scan.
  const double scan_mem = MemorySeconds(work.scan_elements * 16);
  t.scan_ms = (scan_mem + LaunchSeconds(3)) * 1e3;

  // Tag: read input + flags, write the tagged symbol stream.
  const double tag_mem =
      MemorySeconds(2 * work.parse_bytes_read + work.tag_bytes_written);
  t.tag_ms = (tag_mem + LaunchSeconds(2)) * 1e3;

  // Partition: radix-sort passes move keys + payloads each pass.
  const double sort_mem = MemorySeconds(2 * work.sort_bytes_moved);
  t.partition_ms =
      (sort_mem + LaunchSeconds(static_cast<int>(work.sort_passes) * 3)) * 1e3;

  // Convert: CSS-index generation + value conversion; several kernel
  // launches per column (§5.1 names this the small-input bottleneck).
  const double convert_mem = MemorySeconds(2 * work.convert_bytes);
  const double convert_compute =
      ComputeSeconds(work.convert_bytes, spec_.cycles_per_convert_byte);
  t.convert_ms = (std::max(convert_mem, convert_compute) +
                  LaunchSeconds(std::max(1, num_columns) * 3)) *
                 1e3;
  return t;
}

double DeviceModel::ModelParsingRateGbps(const WorkCounters& work,
                                         int num_columns) const {
  const StepTimings t = ModelPipeline(work, num_columns);
  const double seconds = t.TotalMs() / 1e3;
  if (seconds <= 0) return 0;
  return static_cast<double>(work.input_bytes) / seconds / (1 << 30);
}

}  // namespace parparaw
