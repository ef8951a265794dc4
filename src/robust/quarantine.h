#ifndef PARPARAW_ROBUST_QUARANTINE_H_
#define PARPARAW_ROBUST_QUARANTINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace parparaw {
namespace robust {

/// \brief What the pipeline does with a malformed record (a value that does
/// not convert to its column type, a NULL in a non-nullable column, or a
/// wrong column count under ColumnCountPolicy::kReject).
enum class ErrorPolicy : uint8_t {
  /// Keep the record; the bad value becomes NULL and the record's bit is
  /// set in Table::rejected. This is the pre-existing behaviour and the
  /// default.
  kNull,
  /// Fail the whole parse with the first record's error.
  kFail,
  /// Remove malformed records from the output table entirely (row indices
  /// compact; Table::rejected is all-zero on return).
  kSkip,
  /// Like kNull, but additionally capture each malformed record — raw
  /// bytes, byte-accurate source span, offending column, StatusCode and
  /// pipeline stage — in ParseOutput::quarantine for later repair via
  /// ReparseQuarantined(). Table::rejected becomes a view over the
  /// quarantine: bit r is set iff an entry with row == r exists.
  kQuarantine,
};

const char* ErrorPolicyToString(ErrorPolicy policy);

/// \brief One malformed record held for repair.
struct QuarantineEntry {
  /// Row index in the emitted table (valid row of NULLs under kQuarantine).
  int64_t row = -1;
  /// Record ordinal in the parsed buffer, after skip_rows pruning but
  /// before any skip_records / reject drops.
  int64_t record_index = -1;
  /// Byte span [begin, end) of the record in the caller-provided input
  /// (exclusive of the record delimiter; relative to the original buffer
  /// even when skip_rows trimmed a prefix, and to the logical stream for
  /// the pipelined executor).
  int64_t begin = 0;
  int64_t end = 0;
  /// Copy of the record bytes — the quarantine outlives the input buffer.
  std::string raw;
  /// Offending column index, or -1 for record-level problems (wrong column
  /// count).
  int32_t column = -1;
  /// Why it was quarantined.
  StatusCode code = StatusCode::kParseError;
  /// Pipeline stage that rejected it ("tag" for column-count mismatches,
  /// "convert" for value conversion failures).
  std::string stage;
  std::string message;
};

/// \brief The set of quarantined records from one parse (or one streaming
/// session; entries from later partitions carry stream-relative rows and
/// spans).
class QuarantineTable {
 public:
  void Add(QuarantineEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<QuarantineEntry>& entries() const { return entries_; }
  std::vector<QuarantineEntry>& entries() { return entries_; }

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

  /// Entry for table row `row`, or nullptr. Linear scan — quarantines are
  /// expected to be small relative to the table.
  const QuarantineEntry* FindRow(int64_t row) const;

  /// Materialises the Table::rejected view: bit r set iff an entry with
  /// row == r exists. Rows outside [0, num_rows) are ignored.
  std::vector<uint8_t> RejectedBitmap(int64_t num_rows) const;

  /// One line per entry (debugging / error reports).
  std::string SummaryText() const;

 private:
  std::vector<QuarantineEntry> entries_;
};

}  // namespace robust
}  // namespace parparaw

#endif  // PARPARAW_ROBUST_QUARANTINE_H_
