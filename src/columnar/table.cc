#include "columnar/table.h"

#include <utility>

namespace parparaw {

bool Table::Equals(const Table& other) const {
  if (num_rows != other.num_rows) return false;
  if (columns.size() != other.columns.size()) return false;
  if (schema.num_fields() != other.schema.num_fields()) return false;
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (schema.field(i).name != other.schema.field(i).name) return false;
    if (!(schema.field(i).type == other.schema.field(i).type)) return false;
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!columns[i].Equals(other.columns[i])) return false;
  }
  return true;
}

int64_t Table::TotalBufferBytes() const {
  int64_t total = 0;
  for (const Column& c : columns) total += c.TotalBufferBytes();
  total += static_cast<int64_t>(rejected.size());
  return total;
}

Table ConcatTables(std::vector<Table> tables) {
  if (tables.empty()) return Table();
  Table out = std::move(tables.front());
  for (size_t i = 1; i < tables.size(); ++i) {
    const Table& t = tables[i];
    out.num_rows += t.num_rows;
    out.rejected.insert(out.rejected.end(), t.rejected.begin(),
                        t.rejected.end());
    for (size_t c = 0; c < out.columns.size(); ++c) {
      out.columns[c].Concat(t.columns[c]);
    }
  }
  return out;
}

Table TakeRows(const Table& table, const std::vector<int64_t>& rows) {
  Table out;
  out.schema = table.schema;
  out.num_rows = static_cast<int64_t>(rows.size());
  if (!table.rejected.empty()) {
    out.rejected.reserve(rows.size());
    for (int64_t r : rows) {
      out.rejected.push_back(table.rejected[static_cast<size_t>(r)]);
    }
  }
  for (const Column& src : table.columns) {
    Column dst(src.type());
    if (src.type().id == TypeId::kString) {
      for (int64_t r : rows) {
        if (src.IsNull(r)) {
          dst.AppendNull();
        } else {
          dst.AppendString(src.StringValue(r));
        }
      }
    } else {
      const int width = FixedWidth(src.type().id);
      dst.Allocate(static_cast<int64_t>(rows.size()));
      for (size_t i = 0; i < rows.size(); ++i) {
        const int64_t r = rows[i];
        if (src.IsNull(r)) {
          dst.SetNull(static_cast<int64_t>(i));
        } else {
          std::memcpy(dst.mutable_data()->data() +
                          static_cast<int64_t>(i) * width,
                      src.data().data() + r * width, width);
          dst.SetValid(static_cast<int64_t>(i));
        }
      }
    }
    out.columns.push_back(std::move(dst));
  }
  return out;
}

std::string Table::RowToString(int64_t i) const {
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ",";
    out += columns[c].ValueToString(i);
  }
  return out;
}

}  // namespace parparaw
