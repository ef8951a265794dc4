#include "query/query.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "obs/obs.h"

namespace parparaw {

namespace {

// Numeric view of a column slot as double (for sum/mean/min/max).
Result<double> NumericValue(const Column& column, int64_t row) {
  switch (column.type().id) {
    case TypeId::kBool:
      return static_cast<double>(column.Value<uint8_t>(row));
    case TypeId::kInt32:
    case TypeId::kDate32:
      return static_cast<double>(column.Value<int32_t>(row));
    case TypeId::kInt64:
    case TypeId::kDecimal64:
    case TypeId::kTimestampMicros:
      return static_cast<double>(column.Value<int64_t>(row));
    case TypeId::kFloat64:
      return column.Value<double>(row);
    case TypeId::kString:
      return Status::TypeError("aggregate over a string column");
  }
  return Status::TypeError("unsupported aggregate input");
}

struct AggState {
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  bool any = false;

  void Accumulate(double v) {
    ++count;
    sum += v;
    min = any ? std::min(min, v) : v;
    max = any ? std::max(max, v) : v;
    any = true;
  }
};

std::string AggName(const Aggregate& agg, const Schema& schema) {
  const char* fn = "";
  switch (agg.kind) {
    case AggKind::kCountAll:
      return "count(*)";
    case AggKind::kCount:
      fn = "count";
      break;
    case AggKind::kSum:
      fn = "sum";
      break;
    case AggKind::kMin:
      fn = "min";
      break;
    case AggKind::kMax:
      fn = "max";
      break;
    case AggKind::kMean:
      fn = "mean";
      break;
  }
  return std::string(fn) + "(" + schema.field(agg.column).name + ")";
}

}  // namespace

Result<Table> GatherRows(const Table& table,
                         const std::vector<uint8_t>& selection,
                         ThreadPool* pool) {
  if (static_cast<int64_t>(selection.size()) != table.num_rows) {
    return Status::Invalid("selection vector size mismatch");
  }
  // The query layer records into the process-wide sinks: its entry points
  // carry no options struct (see docs/observability.md).
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::Global();
  obs::TraceSpan probe(&obs::Tracer::Global(), "gather", "query", metrics,
                       "query.gather_us", obs::Timing::kUntimed);
  // Row index mapping.
  std::vector<int64_t> rows;
  rows.reserve(selection.size());
  for (int64_t r = 0; r < table.num_rows; ++r) {
    if (selection[r]) rows.push_back(r);
  }
  Table out;
  out.schema = table.schema;
  out.num_rows = static_cast<int64_t>(rows.size());
  out.rejected.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out.rejected[i] = table.rejected.empty() ? 0 : table.rejected[rows[i]];
  }
  out.columns.reserve(table.columns.size());
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
      if (rows.empty()) dst.Allocate(0);
    } else {
      const int width = FixedWidth(src.type().id);
      dst.Allocate(static_cast<int64_t>(rows.size()));
      uint8_t* data = dst.mutable_data()->data();
      const int64_t n = static_cast<int64_t>(rows.size());
      ParallelFor(pool, 0, n, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          std::memcpy(data + i * width, src.data().data() + rows[i] * width,
                      width);
        }
      });
      // Validity sequentially (word-sharing across gather is irregular).
      for (int64_t i = 0; i < n; ++i) {
        if (src.IsNull(rows[i])) {
          dst.SetNull(i);
        } else {
          dst.SetValid(i);
        }
      }
    }
    out.columns.push_back(std::move(dst));
  }
  obs::AddCount(metrics, "query.rows_gathered", out.num_rows);
  return out;
}

Result<Table> RunQuery(const Table& table, const QuerySpec& spec,
                       ThreadPool* pool) {
  obs::TraceSpan run_span(&obs::Tracer::Global(), "run", "query");
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::Global();
  obs::AddCount(metrics, "query.runs", 1);
  obs::AddCount(metrics, "query.rows_in", table.num_rows);
  Result<std::vector<uint8_t>> filtered = [&] {
    obs::TraceSpan probe(&obs::Tracer::Global(), "filter", "query", metrics,
                         "query.filter_us", obs::Timing::kUntimed);
    return EvaluateFilter(table, spec.filter, pool);
  }();
  PARPARAW_ASSIGN_OR_RETURN(std::vector<uint8_t> selection,
                            std::move(filtered));

  if (spec.aggregates.empty()) {
    PARPARAW_ASSIGN_OR_RETURN(Table filtered,
                              GatherRows(table, selection, pool));
    if (spec.projection.empty()) return filtered;
    Table projected;
    projected.num_rows = filtered.num_rows;
    projected.rejected = filtered.rejected;
    for (int column : spec.projection) {
      if (column < 0 || column >= filtered.num_columns()) {
        return Status::Invalid("projection column out of range");
      }
      projected.schema.AddField(filtered.schema.field(column));
      projected.columns.push_back(filtered.columns[column]);
    }
    return projected;
  }

  // Validate aggregate columns up front.
  for (const Aggregate& agg : spec.aggregates) {
    if (agg.kind == AggKind::kCountAll) continue;
    if (agg.column < 0 || agg.column >= table.num_columns()) {
      return Status::Invalid("aggregate column out of range");
    }
  }

  obs::TraceSpan agg_probe(&obs::Tracer::Global(), "aggregate", "query",
                           metrics, "query.aggregate_us",
                           obs::Timing::kUntimed);
  // Group keys: one implicit global group, or the group_by column values.
  std::map<std::string, std::vector<AggState>> groups;
  std::map<std::string, int64_t> group_count_all;
  const int num_aggs = static_cast<int>(spec.aggregates.size());
  const Column* key_column = nullptr;
  if (spec.group_by.has_value()) {
    if (*spec.group_by < 0 || *spec.group_by >= table.num_columns()) {
      return Status::Invalid("group-by column out of range");
    }
    key_column = &table.columns[*spec.group_by];
  }

  for (int64_t r = 0; r < table.num_rows; ++r) {
    if (!selection[r]) continue;
    std::string key;
    if (key_column != nullptr) {
      key = key_column->IsNull(r) ? std::string("\x01NULL")
                                  : key_column->ValueToString(r);
    }
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) it->second.resize(num_aggs);
    ++group_count_all[key];
    for (int a = 0; a < num_aggs; ++a) {
      const Aggregate& agg = spec.aggregates[a];
      if (agg.kind == AggKind::kCountAll) continue;
      const Column& column = table.columns[agg.column];
      if (column.IsNull(r)) continue;
      if (agg.kind == AggKind::kCount) {
        ++it->second[a].count;
        it->second[a].any = true;
        continue;
      }
      PARPARAW_ASSIGN_OR_RETURN(double v, NumericValue(column, r));
      it->second[a].Accumulate(v);
    }
  }

  // Materialise the result table: optional key column + one float64 (or
  // int64 for counts) column per aggregate.
  Table out;
  if (key_column != nullptr) {
    out.schema.AddField(Field(table.schema.field(*spec.group_by).name,
                              DataType::String()));
    out.columns.emplace_back(DataType::String());
  }
  for (const Aggregate& agg : spec.aggregates) {
    const bool integral =
        agg.kind == AggKind::kCountAll || agg.kind == AggKind::kCount;
    out.schema.AddField(Field(AggName(agg, table.schema),
                              integral ? DataType::Int64()
                                       : DataType::Float64()));
    out.columns.emplace_back(integral ? DataType::Int64()
                                      : DataType::Float64());
  }
  for (const auto& [key, states] : groups) {
    int c = 0;
    if (key_column != nullptr) {
      if (key == "\x01NULL") {
        out.columns[c++].AppendNull();
      } else {
        out.columns[c++].AppendString(key);
      }
    }
    for (int a = 0; a < num_aggs; ++a) {
      const Aggregate& agg = spec.aggregates[a];
      const AggState& st = states[a];
      Column& column = out.columns[c++];
      switch (agg.kind) {
        case AggKind::kCountAll:
          column.AppendValue<int64_t>(group_count_all.at(key));
          break;
        case AggKind::kCount:
          column.AppendValue<int64_t>(st.count);
          break;
        case AggKind::kSum:
          column.AppendValue<double>(st.sum);
          break;
        case AggKind::kMin:
          if (st.any) {
            column.AppendValue<double>(st.min);
          } else {
            column.AppendNull();
          }
          break;
        case AggKind::kMax:
          if (st.any) {
            column.AppendValue<double>(st.max);
          } else {
            column.AppendNull();
          }
          break;
        case AggKind::kMean:
          if (st.count > 0) {
            column.AppendValue<double>(st.sum / st.count);
          } else {
            column.AppendNull();
          }
          break;
      }
    }
  }
  out.num_rows = static_cast<int64_t>(groups.size());
  out.rejected.assign(out.num_rows, 0);
  return out;
}

}  // namespace parparaw
