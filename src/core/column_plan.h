#ifndef PARPARAW_CORE_COLUMN_PLAN_H_
#define PARPARAW_CORE_COLUMN_PLAN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "columnar/schema.h"
#include "convert/numeric.h"
#include "convert/temporal.h"
#include "parallel/thread_pool.h"
#include "util/status.h"

namespace parparaw {

struct PipelineState;

/// Why an output row was rejected (PipelineState::reject_kind). The first
/// error of a row, in column order, wins.
enum RejectKind : uint8_t {
  kNotRejected = 0,
  /// A value that does not convert to its column type (Fig. 5).
  kRejectMalformed = 1,
  /// NULL in a non-nullable column.
  kRejectNull = 2,
  /// A record with the wrong column count (kQuarantine + kReject).
  kRejectColumnCount = 3,
};

/// \brief One output column (§4.3 "Selecting columns"): the input column
/// it reads and its resolved field — the schema's, or "f<j>" as a string,
/// which type inference may retype. The tag step selects the plans; both
/// transpose modes write their columns from them.
struct ColumnPlan {
  uint32_t source = 0;
  Field field;
  /// The default parsed into the column type's slot (fixed-width types
  /// with a default; CheckColumnPlans fills it).
  std::array<uint8_t, 8> default_slot{};

  bool is_string() const { return field.type.id == TypeId::kString; }
  bool has_default() const { return field.default_value.has_value(); }
  std::string_view default_string() const {
    return has_default() ? std::string_view(*field.default_value)
                         : std::string_view();
  }
};

/// How a row's field reads in one column before conversion (§4.3): a
/// non-empty value, an empty field, or no field at all (the record has
/// too few columns).
enum class FieldPresence : uint8_t { kValue, kEmpty, kMissing };

/// The value rule's verdict on one (row, column): whether the slot is
/// valid, and the reject kind it raises.
struct ValueOutcome {
  bool valid = true;
  uint8_t reject = kNotRejected;
};

// --- The value rule. Both transpose modes apply these functions, so parse,
// default, NULL and reject agree by construction; the sequential baseline
// parses through ParseSlot too. ---

/// Parses `value` as `type` into `slot` (the type's fixed width); false on
/// malformed input, which leaves the slot as it was. String columns are not
/// parsed. Inline with its converters (convert/numeric.h,
/// convert/temporal.h), so each caller's loop compiles the parse in.
inline bool ParseSlot(const DataType& type, std::string_view value,
                      uint8_t* slot) {
  const auto store = [slot](auto v) {
    std::memcpy(slot, &v, sizeof(v));
    return true;
  };
  switch (type.id) {
    case TypeId::kBool: {
      bool v = false;
      return ParseBool(value, &v) && store(static_cast<uint8_t>(v ? 1 : 0));
    }
    case TypeId::kInt32: {
      int32_t v = 0;
      return ParseInt32(value, &v) && store(v);
    }
    case TypeId::kInt64: {
      int64_t v = 0;
      return ParseInt64(value, &v) && store(v);
    }
    case TypeId::kFloat64: {
      double v = 0;
      return ParseFloat64(value, &v) && store(v);
    }
    case TypeId::kDecimal64: {
      int64_t v = 0;
      return ParseDecimal64(value, type.scale, &v) && store(v);
    }
    case TypeId::kDate32: {
      int32_t v = 0;
      return ParseDate32(value, &v) && store(v);
    }
    case TypeId::kTimestampMicros: {
      int64_t v = 0;
      return ParseTimestampMicros(value, &v) && store(v);
    }
    case TypeId::kString:
      return false;
  }
  return false;
}

/// Fixed-width columns. A non-empty `value` is parsed into `slot`; a
/// malformed one leaves the slot as it was and is NULL with
/// kRejectMalformed. An empty or missing field (an empty `value`) takes the
/// default, else it is NULL, with kRejectNull when the column is not
/// nullable.
inline ValueOutcome ConvertFixed(const ColumnPlan& plan,
                                 std::string_view value, uint8_t* slot) {
  ValueOutcome outcome;
  if (!value.empty()) {
    if (!ParseSlot(plan.field.type, value, slot)) {
      outcome.valid = false;
      outcome.reject = kRejectMalformed;
    }
    return outcome;
  }
  if (plan.has_default()) {
    std::memcpy(slot, plan.default_slot.data(),
                static_cast<size_t>(FixedWidth(plan.field.type.id)));
    return outcome;
  }
  outcome.valid = false;
  if (!plan.field.nullable) outcome.reject = kRejectNull;
  return outcome;
}

/// String columns. A value is its own bytes; an empty field takes the
/// default, else "" (valid); a missing field takes the default, else it is
/// NULL, with kRejectNull when the column is not nullable.
inline ValueOutcome StringOutcome(const ColumnPlan& plan,
                                  FieldPresence presence) {
  ValueOutcome outcome;
  if (presence == FieldPresence::kMissing && !plan.has_default()) {
    outcome.valid = false;
    if (!plan.field.nullable) outcome.reject = kRejectNull;
  }
  return outcome;
}

/// The bytes a string row takes: the value's `length`, or the default's
/// when the field is empty or missing (0 without a default).
inline int64_t StringLength(const ColumnPlan& plan, FieldPresence presence,
                            int64_t length) {
  if (presence == FieldPresence::kValue) return length;
  return static_cast<int64_t>(plan.default_string().size());
}


/// Selects the output columns: the schema's fields (or one string column
/// per observed column, up to the kept records' maximum) minus
/// skip_columns, in source order. Valid once the tag step has resolved the
/// drops.
std::vector<ColumnPlan> SelectColumns(const PipelineState& state);

/// Checks the plans in column order, each one before the next: in the
/// inline and vector tagging modes every kept record must hold the column
/// (a ParseError naming the column's field count otherwise), and a
/// fixed-width default must parse as its type (into default_slot). Valid
/// once num_partitions is known.
Status CheckColumnPlans(const PipelineState& state,
                        std::vector<ColumnPlan>* plans);

/// \brief Dense lookups from input columns to plans, for the field
/// gather's walks: which plan reads a column, and which plans a record that
/// ends at a column lacks.
class PlanIndex {
 public:
  explicit PlanIndex(const std::vector<ColumnPlan>& plans);

  /// The plan reading input column `column`, or -1 (a skipped column, or
  /// one past the output's columns).
  int32_t Of(uint32_t column) const {
    return column < plan_of_.size() ? plan_of_[column] : -1;
  }
  /// Plans [After(column), plans.size()) read columns after `column`: the
  /// ones a record whose last field is `column` lacks.
  size_t After(uint32_t column) const {
    return column < after_.size() ? after_[column] : num_plans_;
  }

 private:
  std::vector<int32_t> plan_of_;
  std::vector<uint32_t> after_;
  size_t num_plans_ = 0;
};

// --- Value copies at the paper's three collaboration levels (§3.3). ---

/// Thread-exclusive (up to `block_threshold` bytes) or block-level copy of
/// a value: the block's threads copy it in `block_threshold`-byte segments,
/// modelled as a segmented loop on the CPU. Values above the device
/// threshold are deferred to CopyDeviceLevel.
inline void CopyBlockLevel(uint8_t* dst, const uint8_t* src, int64_t length,
                           size_t block_threshold) {
  if (static_cast<size_t>(length) <= block_threshold) {
    std::memcpy(dst, src, static_cast<size_t>(length));
    return;
  }
  const int64_t segment = static_cast<int64_t>(block_threshold);
  for (int64_t seg = 0; seg < length; seg += segment) {
    std::memcpy(dst + seg, src + seg,
                static_cast<size_t>(std::min(segment, length - seg)));
  }
}

/// Device-level copy: one device-wide parallel loop per value.
inline Status CopyDeviceLevel(ThreadPool* pool, uint8_t* dst,
                              const uint8_t* src, int64_t length) {
  return ParallelFor(pool, 0, length, [&](int64_t b, int64_t e) {
    std::memcpy(dst + b, src + b, static_cast<size_t>(e - b));
  });
}

}  // namespace parparaw

#endif  // PARPARAW_CORE_COLUMN_PLAN_H_
