// Pipelined ingestion (§5, Fig. 7 — for real): load a file through the
// staged executor, where partition k's type conversion overlaps k+1's
// parse and k+2's disk read, then stream it again in bounded memory.
//
//   ./build/examples/pipelined_ingest [MB] [partition_MB]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/reader.h"
#include "io/file.h"
#include "util/string_util.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  using namespace parparaw;  // NOLINT

  const size_t mb = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 32;
  const size_t partition_mb =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  const std::string path = "/tmp/parparaw_pipelined_demo.csv";
  {
    Status st = WriteStringToFile(path, GenerateTaxiLike(7, mb << 20));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  // One call: sniff the dialect, infer types, and ingest through the
  // pipelined executor (every Reader runs it).
  auto loaded = Reader::FromFile(path)
                    .WithPartitionSize(partition_mb << 20)
                    .ReadDetailed();
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %lld rows x %d columns in %.1f ms (%.3f GB/s)\n",
              static_cast<long long>(loaded->table.num_rows),
              loaded->table.num_columns(), loaded->seconds * 1e3,
              loaded->seconds > 0
                  ? static_cast<double>(loaded->input_bytes) /
                        loaded->seconds / (1 << 30)
                  : 0.0);

  // Bounded-memory streaming: per-partition tables arrive in stream order;
  // only the admission-controlled working set is ever resident.
  int64_t rows = 0;
  int batches = 0;
  auto stats = Reader::FromFile(path)
                   .WithPartitionSize(partition_mb << 20)
                   .WithMemoryBudget(256ll << 20)
                   .ReadStream([&](Table&& batch) {
                     rows += batch.num_rows;
                     ++batches;
                     return Status::OK();
                   });
  if (!stats.ok()) {
    std::fprintf(stderr, "stream failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("streamed %lld rows in %d batches, %d partitions "
              "(admission limit %d, max %d in flight)\n",
              static_cast<long long>(rows), batches, stats->num_partitions,
              stats->admission_limit, stats->max_inflight);
  // Per-stage busy time exceeding the wall time is exactly the overlap the
  // pipeline won over the serial read->parse->sort->convert schedule.
  std::printf("stage busy: read %.0f ms, scan %.0f ms, sort %.0f ms, "
              "convert %.0f ms vs wall %.0f ms\n",
              stats->read_seconds * 1e3, stats->scan_seconds * 1e3,
              stats->sort_seconds * 1e3, stats->convert_seconds * 1e3,
              stats->wall_seconds * 1e3);
  return 0;
}
