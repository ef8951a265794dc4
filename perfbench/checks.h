#ifndef PARPARAW_PERFBENCH_CHECKS_H_
#define PARPARAW_PERFBENCH_CHECKS_H_

// Output checks of the end-to-end benchmark. A table is reduced to a
// per-column digest with the value semantics of Table::Equals (names,
// types, row count, null pattern, every non-null value), plus its reject
// count, so the ground truth can be dropped before peak memory is
// measured and streamed partitions can be checked without concatenating
// them.

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/table.h"

namespace parparaw::perfbench {

struct ColumnDigest {
  std::string name;
  std::string type;
  int64_t rows = 0;
  int64_t nulls = 0;
  uint64_t hash = 0;

  bool operator==(const ColumnDigest& other) const = default;
};

struct TableDigest {
  int64_t rows = 0;
  int64_t rejected = 0;
  std::vector<ColumnDigest> columns;
};

/// Folds tables (whole, or one stream's partitions in stream order) into
/// one digest; Add(a) then Add(b) equals Add(ConcatTables({a, b})).
class TableDigester {
 public:
  void Add(const Table& table);
  TableDigest Finish() const { return digest_; }

 private:
  TableDigest digest_;
  bool started_ = false;
};

TableDigest DigestTable(const Table& table);

/// "" when `got` matches `want`, else a description of the first
/// difference (row count, column count, or the first differing column).
std::string CompareDigests(const TableDigest& got, const TableDigest& want);

/// "" when `table` has `rows` rows and `columns` columns, else a
/// description of the mismatch.
std::string CheckShape(const Table& table, int64_t rows, int columns);

}  // namespace parparaw::perfbench

#endif  // PARPARAW_PERFBENCH_CHECKS_H_
