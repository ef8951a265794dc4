#include <gtest/gtest.h>

#include "sim/device_model.h"
#include "sim/pcie_model.h"

namespace parparaw {
namespace {

WorkCounters YelpLikeWork(int64_t input_bytes) {
  WorkCounters work;
  work.input_bytes = input_bytes;
  work.parse_bytes_read = input_bytes;
  work.dfa_transitions = input_bytes * 6;
  work.scan_elements = input_bytes / 31 * 3;
  work.tag_bytes_written = input_bytes * 9;  // record-tag mode
  work.sort_passes = 1;
  work.sort_bytes_moved = input_bytes * 9;
  work.convert_bytes = input_bytes;
  work.output_bytes = input_bytes;
  return work;
}

TEST(DeviceModelTest, SpecDefaultsMatchTitanX) {
  DeviceSpec spec;
  EXPECT_EQ(spec.cores, 3584);
  EXPECT_NEAR(spec.clock_ghz, 1.417, 1e-9);
  EXPECT_NE(spec.ToString().find("3584 cores"), std::string::npos);
}

TEST(DeviceModelTest, MemoryAndComputeScaleLinearly) {
  DeviceModel model;
  EXPECT_NEAR(model.MemorySeconds(2'000'000) / model.MemorySeconds(1'000'000),
              2.0, 1e-9);
  EXPECT_NEAR(
      model.ComputeSeconds(2'000'000, 2.0) / model.ComputeSeconds(1'000'000, 2.0),
      2.0, 1e-9);
  EXPECT_GT(model.LaunchSeconds(10), model.LaunchSeconds(1));
}

TEST(DeviceModelTest, ModeledRateInPaperBallpark) {
  // Fig. 10: ParPaRaw peaks around 9.7-14.2 GB/s on-GPU. The model should
  // land in the right order of magnitude for a 512 MB yelp-like parse.
  DeviceModel model;
  const WorkCounters work = YelpLikeWork(512ll << 20);
  const double rate = model.ModelParsingRateGbps(work, 9);
  EXPECT_GT(rate, 3.0);
  EXPECT_LT(rate, 30.0);
}

TEST(DeviceModelTest, SmallInputsPayKernelLaunchOverhead) {
  // §5.1: for tiny inputs the per-column kernel launches dominate, so the
  // rate collapses — the model must reproduce that shape.
  DeviceModel model;
  const double rate_1mb =
      model.ModelParsingRateGbps(YelpLikeWork(1 << 20), 9);
  const double rate_512mb =
      model.ModelParsingRateGbps(YelpLikeWork(512ll << 20), 9);
  EXPECT_LT(rate_1mb, rate_512mb);
  EXPECT_LT(rate_1mb, 0.7 * rate_512mb);
}

TEST(DeviceModelTest, MoreStatesMoreParseTime) {
  DeviceModel model;
  WorkCounters w6 = YelpLikeWork(256 << 20);
  WorkCounters w12 = w6;
  w12.dfa_transitions *= 2;
  EXPECT_GT(model.ModelPipeline(w12, 9).parse_ms,
            model.ModelPipeline(w6, 9).parse_ms * 1.2);
}

TEST(PcieModelTest, FullDuplexDirectionsIndependent) {
  PcieModel pcie;
  const int64_t gb = 1ll << 30;
  // ~89 ms for 1 GB at 12 GB/s (decimal).
  EXPECT_NEAR(pcie.H2dSeconds(gb), 1.073741824 / 12.0, 1e-3);
  EXPECT_NEAR(pcie.D2hSeconds(gb), 1.073741824 / 12.0, 1e-3);
  // Latency floor for tiny transfers.
  EXPECT_GE(pcie.H2dSeconds(1), 10e-6);
}

}  // namespace
}  // namespace parparaw
