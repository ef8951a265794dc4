#ifndef PARPARAW_STREAM_STREAM_MODEL_H_
#define PARPARAW_STREAM_STREAM_MODEL_H_

#include "exec/executor.h"
#include "sim/device_model.h"
#include "sim/pcie_model.h"
#include "sim/timeline.h"

namespace parparaw {

/// The modelled Fig. 7 schedule of one ingest (§4.4).
struct StreamModel {
  /// Overlapped transfer/parse/return of every partition.
  StreamingTimeline timeline;
  /// Sum of the modelled stage times without any overlap (what a
  /// transfer-then-parse-then-return execution would cost).
  double modeled_serial_seconds = 0;
  /// Modelled end-to-end seconds (the timeline's makespan).
  double modeled_end_to_end_seconds = 0;
};

/// Replays an ingest's per-partition records (exec::IngestResult::
/// partitions) the way the double-buffered GPU pipeline would run them:
/// each partition's input crosses the PCIe link, its carry-over is copied
/// to the opposing buffer, its work counters are priced by
/// DeviceModel::ModelPipeline and its table crosses back. The ingest
/// itself is the executor's:
///
///   exec::PipelineExecutor executor;
///   PARPARAW_ASSIGN_OR_RETURN(exec::IngestResult run,
///                             executor.IngestBuffer(input, options));
///   const StreamModel model = ModelStream(run);
StreamModel ModelStream(const exec::IngestResult& run,
                        const PcieModel& pcie = PcieModel(),
                        const DeviceSpec& device = DeviceSpec());

}  // namespace parparaw

#endif  // PARPARAW_STREAM_STREAM_MODEL_H_
