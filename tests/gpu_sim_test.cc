#include <gtest/gtest.h>

#include "core/parser.h"
#include "sim/gpu_sim.h"
#include "workload/generators.h"

namespace parparaw {
namespace {

GpuKernelSpec BasicKernel() {
  GpuKernelSpec kernel;
  kernel.name = "k";
  kernel.num_threads = 1 << 20;
  kernel.threads_per_block = 128;
  kernel.bytes_read_per_thread = 32;
  kernel.bytes_written_per_thread = 8;
  kernel.cycles_per_thread = 64;
  return kernel;
}

TEST(GpuSimTest, BlockAndWaveAccounting) {
  GpuSimulator sim;
  const GpuKernelResult result = sim.SimulateKernel(BasicKernel());
  EXPECT_EQ(result.num_blocks, (1 << 20) / 128);
  EXPECT_EQ(result.blocks_per_sm, GpuSimulator::kMaxBlocksPerSm);
  const int64_t concurrent = int64_t{32} * sim.spec().num_sms;
  EXPECT_EQ(result.num_waves,
            (result.num_blocks + concurrent - 1) / concurrent);
  EXPECT_GT(result.total_seconds, 0);
}

TEST(GpuSimTest, SharedMemoryLimitsOccupancy) {
  GpuSimulator sim;
  GpuKernelSpec kernel = BasicKernel();
  kernel.shared_memory_per_block = GpuSimulator::kSharedMemoryPerSm / 2;
  const GpuKernelResult half = sim.SimulateKernel(kernel);
  EXPECT_EQ(half.blocks_per_sm, 2);
  kernel.shared_memory_per_block = GpuSimulator::kSharedMemoryPerSm;
  const GpuKernelResult one = sim.SimulateKernel(kernel);
  EXPECT_EQ(one.blocks_per_sm, 1);
  // Fewer resident blocks -> more waves -> no faster.
  EXPECT_GE(one.num_waves, half.num_waves);
}

TEST(GpuSimTest, ComputeVsMemoryBound) {
  GpuSimulator sim;
  GpuKernelSpec compute_heavy = BasicKernel();
  compute_heavy.cycles_per_thread = 10000;
  compute_heavy.bytes_read_per_thread = 1;
  compute_heavy.bytes_written_per_thread = 0;
  const GpuKernelResult c = sim.SimulateKernel(compute_heavy);
  EXPECT_GT(c.compute_seconds, c.memory_seconds);

  GpuKernelSpec memory_heavy = BasicKernel();
  memory_heavy.cycles_per_thread = 1;
  memory_heavy.bytes_read_per_thread = 4096;
  const GpuKernelResult m = sim.SimulateKernel(memory_heavy);
  EXPECT_GT(m.memory_seconds, m.compute_seconds);
}

TEST(GpuSimTest, EmptyKernelCostsOnlyLaunch) {
  GpuSimulator sim;
  GpuKernelSpec kernel = BasicKernel();
  kernel.num_threads = 0;
  const GpuKernelResult result = sim.SimulateKernel(kernel);
  EXPECT_NEAR(result.total_seconds,
              sim.spec().kernel_launch_overhead_us * 1e-6, 1e-12);
}

TEST(GpuSimTest, MoreCoresFasterUntilMemoryBound) {
  // Compute-heavy kernel: more cores help...
  GpuKernelSpec kernel = BasicKernel();
  kernel.cycles_per_thread = 4000;
  kernel.bytes_read_per_thread = 4;
  kernel.bytes_written_per_thread = 0;
  DeviceSpec small;
  small.cores = 512;
  DeviceSpec large;
  large.cores = 3584;
  const double t_small = GpuSimulator(small).SimulateKernel(kernel)
                             .total_seconds;
  const double t_large = GpuSimulator(large).SimulateKernel(kernel)
                             .total_seconds;
  EXPECT_LT(t_large, t_small);

  // ...while a memory-bound kernel sees no benefit (the flattening of
  // bench_scalability's core sweep).
  GpuKernelSpec bandwidth = BasicKernel();
  bandwidth.cycles_per_thread = 1;
  bandwidth.bytes_read_per_thread = 4096;
  const double m_small =
      GpuSimulator(small).SimulateKernel(bandwidth).total_seconds;
  const double m_large =
      GpuSimulator(large).SimulateKernel(bandwidth).total_seconds;
  EXPECT_NEAR(m_small, m_large, m_small * 0.01);
}

TEST(GpuSimTest, PipelineBucketsAllPopulated) {
  // Real work counters from a real parse feed the simulator.
  ParseOptions options;
  options.schema = YelpSchema();
  const std::string csv = GenerateYelpLike(3, 1 << 20);
  auto parsed = Parser::Parse(csv, options);
  ASSERT_TRUE(parsed.ok());

  GpuSimulator sim;
  std::vector<GpuKernelResult> kernels;
  const StepTimings t =
      sim.SimulatePipeline(parsed->work, /*chunk_size=*/31, 6,
                           parsed->table.num_columns(), &kernels);
  EXPECT_GT(t.parse_ms, 0);
  EXPECT_GT(t.scan_ms, 0);
  EXPECT_GT(t.tag_ms, 0);
  EXPECT_GT(t.partition_ms, 0);
  EXPECT_GT(t.convert_ms, 0);
  EXPECT_FALSE(kernels.empty());
  EXPECT_FALSE(kernels[0].ToString().empty());

  // Agreement with the roofline DeviceModel within an order of magnitude
  // (they are different abstractions of the same machine).
  const DeviceModel roofline;
  const double roofline_ms =
      roofline.ModelPipeline(parsed->work, parsed->table.num_columns())
          .TotalMs();
  EXPECT_LT(t.TotalMs(), roofline_ms * 10);
  EXPECT_GT(t.TotalMs(), roofline_ms / 10);
}

TEST(GpuSimTest, ChunkSizeSpikeFromSharedMemoryPressure) {
  // §5.1 reports spikes at 32/48/64 B chunks from shared-memory pressure
  // and occupancy; the simulator reproduces the mechanism: bigger chunks
  // -> more shared memory per block -> fewer resident blocks.
  ParseOptions options;
  options.schema = TaxiSchema();
  const std::string csv = GenerateTaxiLike(4, 1 << 20);
  auto parsed = Parser::Parse(csv, options);
  ASSERT_TRUE(parsed.ok());
  GpuSimulator sim;
  std::vector<GpuKernelResult> small_kernels, large_kernels;
  sim.SimulatePipeline(parsed->work, 31, 6, 17, &small_kernels);
  sim.SimulatePipeline(parsed->work, 512, 6, 17, &large_kernels);
  // Kernel 0 is the multi-DFA pass.
  EXPECT_GT(small_kernels[0].blocks_per_sm, large_kernels[0].blocks_per_sm);
}

}  // namespace
}  // namespace parparaw
