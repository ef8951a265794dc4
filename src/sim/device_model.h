#ifndef PARPARAW_SIM_DEVICE_MODEL_H_
#define PARPARAW_SIM_DEVICE_MODEL_H_

#include <string>

#include "core/options.h"

namespace parparaw {

/// \brief Parameters of the modelled GPU. Defaults match the paper's
/// NVIDIA Titan X (Pascal): 3584 cores at 1417 MHz, ~480 GB/s device
/// memory bandwidth, 28 SMs, and a 5-10 µs kernel-launch overhead (§5.1
/// attributes small-input inefficiency to exactly this overhead).
struct DeviceSpec {
  int cores = 3584;
  double clock_ghz = 1.417;
  double memory_bandwidth_gbps = 480.0;
  int num_sms = 28;
  double kernel_launch_overhead_us = 7.0;
  /// Effective fraction of peak memory bandwidth streaming kernels reach.
  double memory_efficiency = 0.75;
  /// Average cycles a core spends per DFA-instance transition (table
  /// lookup + MFIRA update).
  double cycles_per_transition = 2.0;
  /// Average cycles per converted field value byte (numeric parsing).
  double cycles_per_convert_byte = 4.0;

  std::string ToString() const;
};

/// \brief Analytical roofline model translating the pipeline's abstract
/// work counters into modelled GPU step times.
///
/// Every pipeline step is modelled as max(memory time, compute time) plus
/// per-kernel launch overhead; see DESIGN.md §2 for why this preserves the
/// paper's reported *shapes* (step breakdowns, crossovers) even though the
/// benchmarks execute on a CPU substrate.
class DeviceModel {
 public:
  DeviceModel() = default;
  explicit DeviceModel(DeviceSpec spec) : spec_(spec) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Seconds to stream `bytes` through device memory (read+write counted
  /// by the caller in `bytes`).
  double MemorySeconds(int64_t bytes) const;

  /// Seconds for `operations` uniform scalar operations of `cycles` each,
  /// spread over all cores.
  double ComputeSeconds(int64_t operations, double cycles) const;

  /// Kernel launch overhead for `num_kernels` launches.
  double LaunchSeconds(int num_kernels) const;

  /// Models the full pipeline's per-step times (milliseconds, in the same
  /// buckets as StepTimings) from the work counters of a parse.
  StepTimings ModelPipeline(const WorkCounters& work,
                            int num_columns) const;

  /// Modelled on-GPU parsing rate in GB/s for a parse described by `work`.
  double ModelParsingRateGbps(const WorkCounters& work,
                              int num_columns) const;

 private:
  DeviceSpec spec_;
};

}  // namespace parparaw

#endif  // PARPARAW_SIM_DEVICE_MODEL_H_
