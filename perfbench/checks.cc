#include "checks.h"

#include <cstring>

namespace parparaw::perfbench {

namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

uint64_t MixBytes(uint64_t h, const uint8_t* data, size_t size) {
  h = Mix(h, size);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = Mix(h, word);
  }
  if (i < size) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    h = Mix(h, word);
  }
  return h;
}

void AddColumn(const Column& column, ColumnDigest* digest) {
  const bool is_string = column.type().id == TypeId::kString;
  const int width = is_string ? 0 : FixedWidth(column.type().id);
  uint64_t h = digest->hash;
  for (int64_t i = 0; i < column.length(); ++i) {
    if (column.IsNull(i)) {
      ++digest->nulls;
      h = Mix(h, 0x6E756C6CULL);
    } else if (is_string) {
      const std::string_view v = column.StringValue(i);
      h = MixBytes(h, reinterpret_cast<const uint8_t*>(v.data()), v.size());
    } else {
      h = MixBytes(h, column.data().data() + i * width,
                   static_cast<size_t>(width));
    }
  }
  digest->hash = h;
  digest->rows += column.length();
}

}  // namespace

void TableDigester::Add(const Table& table) {
  if (!started_) {
    started_ = true;
    digest_.columns.resize(table.columns.size());
    for (size_t c = 0; c < table.columns.size(); ++c) {
      const int field = static_cast<int>(c);
      if (field < table.schema.num_fields()) {
        digest_.columns[c].name = table.schema.field(field).name;
        digest_.columns[c].type = table.schema.field(field).type.ToString();
      }
    }
  } else if (table.columns.size() != digest_.columns.size()) {
    // A partition with another column count can never match; poison the
    // digest so the comparison reports it.
    digest_.columns.clear();
    digest_.rows = -1;
    return;
  }
  for (size_t c = 0; c < table.columns.size(); ++c) {
    AddColumn(table.columns[c], &digest_.columns[c]);
  }
  digest_.rows += table.num_rows;
  digest_.rejected += table.NumRejected();
}

TableDigest DigestTable(const Table& table) {
  TableDigester digester;
  digester.Add(table);
  return digester.Finish();
}

std::string CompareDigests(const TableDigest& got, const TableDigest& want) {
  if (got.rows != want.rows) {
    return "row count " + std::to_string(got.rows) + " != expected " +
           std::to_string(want.rows);
  }
  if (got.columns.size() != want.columns.size()) {
    return "column count " + std::to_string(got.columns.size()) +
           " != expected " + std::to_string(want.columns.size());
  }
  if (got.rejected != want.rejected) {
    return "rejected rows " + std::to_string(got.rejected) +
           " != expected " + std::to_string(want.rejected);
  }
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ColumnDigest& g = got.columns[c];
    const ColumnDigest& w = want.columns[c];
    if (g == w) continue;
    std::string what = "column " + std::to_string(c) + " ('" + w.name + "')";
    if (g.name != w.name) return what + " name '" + g.name + "' differs";
    if (g.type != w.type) return what + " type " + g.type + " != " + w.type;
    if (g.rows != w.rows) return what + " length differs";
    if (g.nulls != w.nulls) {
      return what + " has " + std::to_string(g.nulls) + " nulls, expected " +
             std::to_string(w.nulls);
    }
    return what + " values differ";
  }
  return "";
}

std::string CheckShape(const Table& table, int64_t rows, int columns) {
  if (table.num_rows != rows) {
    return "row count " + std::to_string(table.num_rows) + " != expected " +
           std::to_string(rows);
  }
  if (table.num_columns() != columns) {
    return "column count " + std::to_string(table.num_columns()) +
           " != expected " + std::to_string(columns);
  }
  return "";
}

}  // namespace parparaw::perfbench
