#ifndef PARPARAW_STREAM_STREAMING_PARSER_H_
#define PARPARAW_STREAM_STREAMING_PARSER_H_

#include <string_view>

#include "core/options.h"
#include "sim/device_model.h"
#include "sim/pcie_model.h"
#include "sim/timeline.h"
#include "util/result.h"

namespace parparaw {

/// Configuration of the end-to-end streaming parse (§4.4).
struct StreamingOptions {
  /// Per-partition parse configuration. A schema is recommended (without
  /// one, every partition must observe the same column count).
  ParseOptions base;
  /// Bytes per partition; Fig. 12 sweeps 4 MB - 512 MB.
  size_t partition_size = 64 * 1024 * 1024;
  /// Interconnect model used for the transfer/return stages.
  PcieModel pcie;
  /// Device model used for the modelled parse-stage durations.
  DeviceSpec device;
};

/// Result of a streaming parse.
struct StreamingResult {
  Table table;
  /// Under ErrorPolicy::kQuarantine: malformed records across all
  /// partitions. Entry rows and byte spans are stream-relative (rows index
  /// `table`, spans index the logical concatenation of all input bytes);
  /// record_index stays partition-local. table.rejected is a view over
  /// this, exactly as for a monolithic parse.
  robust::QuarantineTable quarantine;
  /// Inner-loop kernel level (src/simd) every partition's context/bitmap
  /// passes ran with, resolved once from base.kernel at stream start.
  simd::KernelLevel kernel_level = simd::KernelLevel::kScalar;
  /// The modelled Fig. 7 schedule: overlapped transfer/parse/return.
  StreamingTimeline timeline;
  /// Modelled end-to-end seconds (the timeline's makespan).
  double modeled_end_to_end_seconds = 0;
  /// Sum of the modelled stage times without any overlap (what a
  /// transfer-then-parse-then-return execution would cost).
  double modeled_serial_seconds = 0;
  /// Actual CPU wall time of the executor's ingest.
  double wall_seconds = 0;
  int num_partitions = 0;
  StepTimings timings;
  WorkCounters work;
};

/// \brief End-to-end streaming parser (§4.4, Fig. 7).
///
/// A thin adapter over exec::PipelineExecutor, which cuts the input into
/// partitions and carries each partition's unterminated trailing record
/// into the next, exactly like the double-buffered GPU pipeline. The
/// adapter replays the executor's per-partition records through the PCIe
/// and device models, and StreamingTimeline computes the overlapped
/// schedule.
class StreamingParser {
 public:
  static Result<StreamingResult> Parse(std::string_view input,
                                       const StreamingOptions& options);

  /// Streams a file from disk partition by partition. Resident input is
  /// bounded by the executor's admission limit (partitions in flight);
  /// the parsed columnar output still accumulates in memory.
  static Result<StreamingResult> ParseFile(const std::string& path,
                                           const StreamingOptions& options);
};

}  // namespace parparaw

#endif  // PARPARAW_STREAM_STREAMING_PARSER_H_
