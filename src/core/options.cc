#include "core/options.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "plan/planner.h"
#include "robust/resource_guard.h"

namespace parparaw {

namespace {

std::string ByteName(uint8_t byte) {
  char buf[16];
  if (byte >= 0x21 && byte <= 0x7E) {
    std::snprintf(buf, sizeof(buf), "'%c'", static_cast<char>(byte));
  } else {
    std::snprintf(buf, sizeof(buf), "0x%02X", byte);
  }
  return buf;
}

}  // namespace

Status ParseOptions::Validate() const {
  if (dialect.has_value()) {
    if (format.dfa.num_states() != 0) {
      return Status::Invalid(
          "ParseOptions sets both a format and a dialect; pick one (the "
          "dialect compiles into the format)");
    }
    PARPARAW_RETURN_NOT_OK(dialect->Validate());
  }
  // Chunk bounds live with the consolidated tuning surface.
  PARPARAW_RETURN_NOT_OK(ValidateTuning());
  if (skip_rows < 0) {
    return Status::Invalid("skip_rows must be non-negative, got " +
                           std::to_string(skip_rows));
  }
  for (int64_t record : skip_records) {
    if (record < 0) {
      return Status::Invalid("skip_records contains negative index " +
                             std::to_string(record));
    }
  }
  for (int column : skip_columns) {
    if (column < 0) {
      return Status::Invalid("skip_columns contains negative index " +
                             std::to_string(column));
    }
  }
  if (memory_budget < 0) {
    return Status::Invalid("memory_budget must be non-negative, got " +
                           std::to_string(memory_budget));
  }
  if (block_collaboration_threshold == 0) {
    return Status::Invalid(
        "block_collaboration_threshold must be positive; it is the segment "
        "size of the block-level value copy (§3.3)");
  }
  if (block_collaboration_threshold > device_collaboration_threshold) {
    return Status::Invalid(
        "block_collaboration_threshold (" +
        std::to_string(block_collaboration_threshold) +
        ") exceeds device_collaboration_threshold (" +
        std::to_string(device_collaboration_threshold) +
        "); the block-level path must engage before the device-level one");
  }
  if (tagging_mode == TaggingMode::kInlineTerminated) {
    if (terminator == 0) {
      return Status::Invalid(
          "TaggingMode::kInlineTerminated needs a non-zero terminator byte "
          "(the default is the ASCII unit separator 0x1F)");
    }
    // With no explicit format the RFC 4180 defaults apply; a dialect
    // contributes its own delimiters before it is even compiled.
    const uint8_t field = format.dfa.num_states() > 0 ? format.field_delimiter
                          : dialect.has_value()
                              ? dialect->field_delimiter
                              : static_cast<uint8_t>(',');
    const uint8_t record = format.dfa.num_states() > 0
                               ? format.record_delimiter
                           : dialect.has_value()
                               ? dialect->record_delimiter_final()
                               : static_cast<uint8_t>('\n');
    if (terminator == field || terminator == record) {
      return Status::Invalid(
          "inline terminator " + ByteName(terminator) +
          " collides with the format's " +
          (terminator == field ? "field" : "record") +
          " delimiter; pick a byte that cannot occur as a delimiter");
    }
  }
  if (max_record_columns == 0) {
    return Status::Invalid(
        "max_record_columns must be positive; it bounds the per-record "
        "column tables against adversarial delimiter-dense inputs");
  }
  if (column_count_policy == ColumnCountPolicy::kValidate &&
      error_policy == robust::ErrorPolicy::kQuarantine) {
    return Status::Invalid(
        "ColumnCountPolicy::kValidate aborts on the first inconsistent "
        "record, so ErrorPolicy::kQuarantine can never capture it; use "
        "kReject (quarantines mismatched records) or a non-quarantine "
        "error policy");
  }
  return Status::OK();
}

StepTimings& StepTimings::operator+=(const StepTimings& other) {
  parse_ms += other.parse_ms;
  scan_ms += other.scan_ms;
  tag_ms += other.tag_ms;
  partition_ms += other.partition_ms;
  convert_ms += other.convert_ms;
  return *this;
}

std::string StepTimings::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "parse=%.2fms scan=%.2fms tag=%.2fms partition=%.2fms "
                "convert=%.2fms total=%.2fms",
                parse_ms, scan_ms, tag_ms, partition_ms, convert_ms,
                TotalMs());
  return buf;
}

WorkCounters& WorkCounters::operator+=(const WorkCounters& other) {
  input_bytes += other.input_bytes;
  parse_bytes_read += other.parse_bytes_read;
  dfa_transitions += other.dfa_transitions;
  tag_bytes_written += other.tag_bytes_written;
  sort_passes += other.sort_passes;
  sort_bytes_moved += other.sort_bytes_moved;
  scan_elements += other.scan_elements;
  convert_bytes += other.convert_bytes;
  output_bytes += other.output_bytes;
  // Peak footprints do not sum across partitions: the next partition's
  // transpose reuses the buffers the previous one released.
  transpose_peak_bytes = std::max(transpose_peak_bytes,
                                  other.transpose_peak_bytes);
  return *this;
}

int64_t ParseWorkingSetFactor(const ParseOptions& options) {
  return plan::PlanParse(0, options).transpose_mode ==
                 TransposeMode::kSymbolSort
             ? robust::kParseMemoryFactor
             : robust::kParseMemoryFactorFieldGather;
}

}  // namespace parparaw
