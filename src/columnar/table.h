#ifndef PARPARAW_COLUMNAR_TABLE_H_
#define PARPARAW_COLUMNAR_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/column.h"
#include "columnar/schema.h"

namespace parparaw {

/// \brief Parsed output: a schema, one column per field, and per-record
/// diagnostics (reject flags, Fig. 5).
struct Table {
  Schema schema;
  std::vector<Column> columns;
  int64_t num_rows = 0;
  /// Per-record reject flag: set when a record failed validation (bad
  /// numeric value in a non-nullable column, wrong column count in
  /// rejecting mode, ...). Rejected records keep NULL slots.
  std::vector<uint8_t> rejected;

  int num_columns() const { return static_cast<int>(columns.size()); }

  int64_t NumRejected() const {
    int64_t n = 0;
    for (uint8_t r : rejected) n += r;
    return n;
  }

  /// Deep equality of schema names/types and all column values.
  bool Equals(const Table& other) const;

  /// Total bytes across all column buffers (device→host return size).
  int64_t TotalBufferBytes() const;

  /// Renders row `i` as comma-joined values (debugging/tests).
  std::string RowToString(int64_t i) const;
};

/// Row-wise concatenation of tables with identical schemas (used to merge
/// streaming partitions). The first table is moved into the result, so
/// passing the vector by move copies nothing for a one-table vector and
/// only the later tables' buffers otherwise.
Table ConcatTables(std::vector<Table> tables);

/// Gathers `rows` (indices into `table`, in the given order, repeats
/// allowed) into a new table with the same schema. Rejected flags travel
/// with their rows. Used by ErrorPolicy::kSkip to compact malformed rows
/// out of a parse result.
Table TakeRows(const Table& table, const std::vector<int64_t>& rows);

}  // namespace parparaw

#endif  // PARPARAW_COLUMNAR_TABLE_H_
