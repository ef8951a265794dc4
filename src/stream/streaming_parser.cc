#include "stream/streaming_parser.h"

#include <utility>
#include <vector>

#include "exec/executor.h"

namespace parparaw {

namespace {

exec::ExecOptions ToExecOptions(const StreamingOptions& options) {
  exec::ExecOptions exec_options;
  exec_options.base = options.base;
  exec_options.partition_size = options.partition_size;
  return exec_options;
}

// Replays the executor's per-partition records through the PCIe and device
// models: the modelled Fig. 7 schedule of the ingest that just ran.
Result<StreamingResult> ModelStream(Result<exec::IngestResult> ingested,
                                    const StreamingOptions& options) {
  PARPARAW_RETURN_NOT_OK(ingested.status());
  exec::IngestResult& run = *ingested;
  StreamingResult result;
  result.table = std::move(run.table);
  result.quarantine = std::move(run.quarantine);
  result.kernel_level = run.kernel_level;
  result.wall_seconds = run.stats.wall_seconds;
  result.num_partitions = run.stats.num_partitions;
  result.timings = run.timings;
  result.work = run.work;

  const DeviceModel device(options.device);
  const int num_columns = result.table.num_columns();
  const int num_states = options.base.format.dfa.num_states();
  std::vector<PartitionStages> stages;
  stages.reserve(run.partitions.size());
  for (const exec::PartitionRecord& part : run.partitions) {
    PartitionStages stage;
    stage.h2d_seconds = options.pcie.H2dSeconds(part.bytes);
    stage.d2h_seconds = options.pcie.D2hSeconds(part.output_bytes);
    stage.carry_copy_seconds = device.MemorySeconds(2 * part.carry_bytes);
    stage.parse_seconds =
        device.ModelPipeline(part.work, num_columns, num_states).TotalMs() /
        1e3;
    result.modeled_serial_seconds += stage.h2d_seconds +
                                     stage.parse_seconds +
                                     stage.d2h_seconds +
                                     stage.carry_copy_seconds;
    stages.push_back(stage);
  }
  result.timeline = StreamingTimeline::Schedule(stages);
  result.modeled_end_to_end_seconds = result.timeline.makespan;
  return result;
}

}  // namespace

Result<StreamingResult> StreamingParser::Parse(
    std::string_view input, const StreamingOptions& options) {
  exec::PipelineExecutor executor;
  return ModelStream(executor.IngestBuffer(input, ToExecOptions(options)),
                     options);
}

Result<StreamingResult> StreamingParser::ParseFile(
    const std::string& path, const StreamingOptions& options) {
  exec::PipelineExecutor executor;
  return ModelStream(executor.IngestFile(path, ToExecOptions(options)),
                     options);
}

}  // namespace parparaw
