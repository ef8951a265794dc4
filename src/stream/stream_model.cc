#include "stream/stream_model.h"

#include <vector>

namespace parparaw {

StreamModel ModelStream(const exec::IngestResult& run, const PcieModel& pcie,
                        const DeviceSpec& device_spec) {
  const DeviceModel device(device_spec);
  const int num_columns = run.table.num_columns();
  StreamModel model;
  std::vector<PartitionStages> stages;
  stages.reserve(run.partitions.size());
  for (const exec::PartitionRecord& part : run.partitions) {
    PartitionStages stage;
    stage.h2d_seconds = pcie.H2dSeconds(part.bytes);
    stage.d2h_seconds = pcie.D2hSeconds(part.output_bytes);
    stage.carry_copy_seconds = device.MemorySeconds(2 * part.carry_bytes);
    stage.parse_seconds =
        device.ModelPipeline(part.work, num_columns).TotalMs() / 1e3;
    model.modeled_serial_seconds += stage.h2d_seconds + stage.parse_seconds +
                                    stage.d2h_seconds +
                                    stage.carry_copy_seconds;
    stages.push_back(stage);
  }
  model.timeline = StreamingTimeline::Schedule(stages);
  model.modeled_end_to_end_seconds = model.timeline.makespan;
  return model;
}

}  // namespace parparaw
