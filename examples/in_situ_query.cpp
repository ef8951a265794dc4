// In-situ querying of raw data — the paper's §1 motivation: answer an
// analytical query directly over a raw CSV, with no load phase. The WHERE
// clause is pushed into the parser (ParseWithPushdown): only the predicate
// column is converted for every record, and full rows only for the
// matches. A plain loop over the returned table then aggregates them.
//
//   ./build/examples/in_situ_query [MB]

#include <cstdio>
#include <cstdlib>
#include <map>

#include "query/pushdown.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace parparaw;  // NOLINT

  const size_t mb = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const std::string csv = GenerateTaxiLike(/*seed=*/8, mb << 20);
  std::printf("raw input: %s of taxi CSV\n",
              FormatBytes(csv.size()).c_str());

  // Query: for store-and-forward trips (rare), revenue per vendor.
  //   SELECT VendorID, count(*), sum(total_amount) WHERE store_and_fwd_flag
  //   = 'Y' GROUP BY VendorID
  ParseOptions options;
  options.schema = TaxiSchema();
  // The pushdown requires the robust column-count policy (the default).
  options.column_count_policy = ColumnCountPolicy::kRobust;
  const Predicate predicate{6 /*store_and_fwd_flag*/, CompareOp::kEq, "Y"};

  Stopwatch watch;
  PushdownStats stats;
  auto selected = ParseWithPushdown(csv, options, predicate, &stats);
  if (!selected.ok()) {
    std::fprintf(stderr, "%s\n", selected.status().ToString().c_str());
    return 1;
  }
  std::printf("pushdown parse in %.1f ms: scanned %lld records, selected "
              "%lld (selectivity %.2f%%)\n",
              watch.ElapsedMillis(),
              static_cast<long long>(stats.records_scanned),
              static_cast<long long>(stats.records_selected),
              stats.Selectivity() * 100);

  // GROUP BY VendorID: trips and revenue per vendor.
  struct Revenue {
    int64_t trips = 0;
    double total = 0;
  };
  std::map<int64_t, Revenue> per_vendor;
  const Table& table = selected->table;
  const Column& vendor = table.columns[0];
  const Column& total_amount = table.columns[16];
  for (int64_t r = 0; r < table.num_rows; ++r) {
    if (vendor.IsNull(r)) continue;
    Revenue& revenue = per_vendor[vendor.Value<int64_t>(r)];
    ++revenue.trips;
    if (!total_amount.IsNull(r)) revenue.total += total_amount.Value<double>(r);
  }
  std::printf("  %-8s %10s %18s\n", "vendor", "trips", "sum(total)");
  for (const auto& [id, revenue] : per_vendor) {
    std::printf("  %-8lld %10lld %18.2f\n", static_cast<long long>(id),
                static_cast<long long>(revenue.trips), revenue.total);
  }
  return 0;
}
