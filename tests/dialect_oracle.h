#ifndef PARPARAW_TESTS_DIALECT_ORACLE_H_
#define PARPARAW_TESTS_DIALECT_ORACLE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/row_buffer.h"
#include "columnar/table.h"
#include "core/options.h"
#include "dialect/automaton.h"
#include "robust/quarantine.h"
#include "text/unicode.h"
#include "util/result.h"

namespace parparaw {

/// What the oracle walk produced: the table under ErrorPolicy::kNull
/// (rejected flags included) and where every record sits in the caller's
/// buffer, so a test can derive the other error policies by hand.
struct OracleParse {
  ParseOutput output;
  /// Offset of the first record: the end of the skipped leading rows.
  int64_t first_record_begin = 0;
  /// Per record: the offset of the byte that ends it (its record
  /// delimiter's final byte), or the input's end for an unterminated
  /// trailing record.
  std::vector<int64_t> record_ends;
};

/// The reference a dialect's pipeline parse is checked against, for a
/// dialect of any size: one sequential walk of the minimised wide
/// automaton (Automaton::Next / FlagsFor) into a RecordBuffer, materialised
/// by BuildTableFromRecords. The input is cut the way StagedParse cuts it:
/// skip_rows lines pruned, a leading UTF-8 continuation run left outside
/// every chunk, exclude_trailing_record and validate honoured. UTF-8 input
/// only.
inline Result<OracleParse> AutomatonWalkParse(std::string_view input,
                                              const dialect::Automaton& a,
                                              uint8_t row_delimiter,
                                              const ParseOptions& options) {
  OracleParse oracle;
  ParseOutput& output = oracle.output;
  size_t skipped_prefix = 0;
  for (int64_t skip = options.skip_rows; skip > 0 && !input.empty();
       --skip) {
    const size_t pos = input.find(static_cast<char>(row_delimiter));
    const size_t cut = pos == std::string_view::npos ? input.size() : pos + 1;
    input.remove_prefix(cut);
    skipped_prefix += cut;
  }
  oracle.first_record_begin = static_cast<int64_t>(skipped_prefix);
  const uint8_t* data = reinterpret_cast<const uint8_t*>(input.data());
  const size_t size = input.size();
  const size_t begin =
      options.encoding == TextEncoding::kUtf8 && size > 0
          ? AdjustChunkBeginUtf8(data, size, 0)
          : 0;

  RecordBuffer records;
  int state = a.start;
  int64_t first_invalid = -1;
  // Where the current (possibly unterminated) record starts; only
  // meaningful while the automaton is mid-record.
  size_t record_start = begin;
  for (size_t i = begin; i < size; ++i) {
    const uint8_t byte = data[i];
    const uint8_t flags = a.FlagsFor(state, byte);
    const int next = a.Next(state, byte);
    if (flags & kSymbolRecordDelimiter) {
      records.EndField();
      records.EndRecord();
      oracle.record_ends.push_back(static_cast<int64_t>(skipped_prefix + i));
    } else if (flags & kSymbolFieldDelimiter) {
      // An inclusive boundary (no control bit) is the field's last value
      // byte as well as its terminator — the fixed-width shape.
      if ((flags & kSymbolControl) == 0) records.AppendFieldByte(byte);
      records.EndField();
    } else if ((flags & kSymbolControl) == 0) {
      records.AppendFieldByte(byte);
    }
    if (first_invalid < 0 && a.invalid >= 0 && next == a.invalid &&
        state != a.invalid) {
      first_invalid = static_cast<int64_t>(i);
    }
    state = next;
    if (!a.mid_record[state]) record_start = i + 1;
  }
  if (a.mid_record[state] != 0) {
    if (options.exclude_trailing_record) {
      output.remainder_offset =
          static_cast<int64_t>(skipped_prefix + record_start);
    } else {
      records.EndField();
      records.EndRecord();
      oracle.record_ends.push_back(static_cast<int64_t>(skipped_prefix + size));
    }
  } else if (options.exclude_trailing_record) {
    output.remainder_offset = static_cast<int64_t>(skipped_prefix + size);
  }
  if (options.validate) {
    if (first_invalid >= 0) {
      return Status::ParseError("invalid symbol at byte offset " +
                                std::to_string(first_invalid));
    }
    if (!a.accepting[state]) {
      return Status::ParseError("input ends in non-accepting state '" +
                                a.names[state] + "'");
    }
  }
  PARPARAW_ASSIGN_OR_RETURN(output.table,
                            BuildTableFromRecords(records, options, &output));
  return oracle;
}

/// Checks a pipeline's status, table and quarantine against the oracle
/// under `policy`, deriving the policy's effect the way the pipeline's
/// error policy does: kNull keeps rejected rows as flagged rows, kFail
/// fails on the first one, kSkip drops them, and kQuarantine keeps them
/// and lists each with its record's byte span in `input`. Assumes every
/// record became a row (ColumnCountPolicy::kRobust, no skip_records).
inline void ExpectMatchesOracle(const Status& status, const Table& table,
                                const robust::QuarantineTable& quarantine,
                                const OracleParse& want,
                                robust::ErrorPolicy policy,
                                std::string_view input,
                                const std::string& context) {
  using robust::ErrorPolicy;
  const Table& expected = want.output.table;
  std::vector<int64_t> kept;
  std::vector<int64_t> rejected;
  for (int64_t row = 0; row < expected.num_rows; ++row) {
    (expected.rejected[row] ? rejected : kept).push_back(row);
  }
  if (policy == ErrorPolicy::kFail && !rejected.empty()) {
    ASSERT_FALSE(status.ok()) << context;
    return;
  }
  ASSERT_TRUE(status.ok()) << context << ": " << status.ToString();
  if (policy == ErrorPolicy::kSkip) {
    ASSERT_TRUE(table.Equals(TakeRows(expected, kept))) << context;
    return;
  }
  ASSERT_TRUE(table.Equals(expected)) << context;
  ASSERT_EQ(table.rejected, expected.rejected) << context;
  const auto& entries = quarantine.entries();
  if (policy != ErrorPolicy::kQuarantine) {
    ASSERT_TRUE(entries.empty()) << context;
    return;
  }
  ASSERT_EQ(entries.size(), rejected.size()) << context;
  for (size_t k = 0; k < entries.size(); ++k) {
    const int64_t row = rejected[k];
    const int64_t begin =
        row == 0 ? want.first_record_begin : want.record_ends[row - 1] + 1;
    const int64_t end = want.record_ends[row];
    ASSERT_EQ(entries[k].row, row) << context;
    ASSERT_EQ(entries[k].begin, begin) << context << " row " << row;
    ASSERT_EQ(entries[k].end, end) << context << " row " << row;
    ASSERT_EQ(entries[k].raw, std::string(input.substr(begin, end - begin)))
        << context << " row " << row;
  }
}

/// The same for a monolithic parse, which also reports its column range,
/// remainder offset and dropped-record count.
inline void ExpectMatchesOracle(const Result<ParseOutput>& got,
                                const OracleParse& want,
                                robust::ErrorPolicy policy,
                                std::string_view input,
                                const std::string& context) {
  if (!got.ok()) {
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(
        got.status(), Table(), robust::QuarantineTable(), want, policy,
        input, context));
    return;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesOracle(Status::OK(), got->table,
                                              got->quarantine, want, policy,
                                              input, context));
  if (policy == robust::ErrorPolicy::kSkip) return;
  ASSERT_EQ(got->min_columns, want.output.min_columns) << context;
  ASSERT_EQ(got->max_columns, want.output.max_columns) << context;
  ASSERT_EQ(got->remainder_offset, want.output.remainder_offset) << context;
  ASSERT_EQ(got->records_dropped, want.output.records_dropped) << context;
}

}  // namespace parparaw

#endif  // PARPARAW_TESTS_DIALECT_ORACLE_H_
