// Type-conversion throughput per column type — the step that dominates the
// NYC-taxi workload (Fig. 9b attributes ~1/3 of total time to convert).
// The first rows take the converters' fast paths (short numbers, the fixed
// date and timestamp layouts); the *_General rows force the general paths
// (19-digit integers, exponent floats, fractional timestamps) and the
// *_Padded rows the whitespace trim, so a faster fast path cannot hide a
// slower general one. The ParseTaxi pair parses 32 MiB of taxi-like data
// on 4 workers with its typed schema and as strings: what conversion costs
// a whole parse.

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "convert/inference.h"
#include "convert/numeric.h"
#include "convert/temporal.h"
#include "core/parser.h"
#include "parallel/thread_pool.h"
#include "workload/generators.h"

namespace {

using namespace parparaw;  // NOLINT

std::vector<std::string> MakeFields(const char* kind, int n) {
  std::mt19937_64 rng(13);
  std::vector<std::string> fields(n);
  char buf[64];
  for (auto& f : fields) {
    if (!std::strcmp(kind, "int")) {
      f = std::to_string(static_cast<int64_t>(rng() % 1000000) - 500000);
    } else if (!std::strcmp(kind, "float")) {
      std::snprintf(buf, sizeof(buf), "%.2f",
                    static_cast<double>(rng() % 100000) / 100.0);
      f = buf;
    } else if (!std::strcmp(kind, "decimal")) {
      std::snprintf(buf, sizeof(buf), "%llu.%02llu",
                    static_cast<unsigned long long>(rng() % 1000),
                    static_cast<unsigned long long>(rng() % 100));
      f = buf;
    } else if (!std::strcmp(kind, "int19")) {
      // 19 digits: past the 18-digit fast path, within int64.
      std::snprintf(buf, sizeof(buf), "%llu",
                    1000000000000000000ull +
                        static_cast<unsigned long long>(
                            rng() % 8000000000000000000ull));
      f = buf;
    } else if (!std::strcmp(kind, "float_exp")) {
      std::snprintf(buf, sizeof(buf), "%.3e",
                    static_cast<double>(rng() % 100000) / 100.0);
      f = buf;
    } else if (!std::strcmp(kind, "int_padded")) {
      std::snprintf(buf, sizeof(buf), "  %lld ",
                    static_cast<long long>(rng() % 1000000) - 500000);
      f = buf;
    } else if (!std::strcmp(kind, "float_padded")) {
      std::snprintf(buf, sizeof(buf), "\t%.2f  ",
                    static_cast<double>(rng() % 100000) / 100.0);
      f = buf;
    } else if (!std::strcmp(kind, "timestamp_frac")) {
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%06d",
                    2000 + static_cast<int>(rng() % 25),
                    1 + static_cast<int>(rng() % 12),
                    1 + static_cast<int>(rng() % 28),
                    static_cast<int>(rng() % 24),
                    static_cast<int>(rng() % 60),
                    static_cast<int>(rng() % 60),
                    static_cast<int>(rng() % 1000000));
      f = buf;
    } else if (!std::strcmp(kind, "date")) {
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d",
                    2000 + static_cast<int>(rng() % 25),
                    1 + static_cast<int>(rng() % 12),
                    1 + static_cast<int>(rng() % 28));
      f = buf;
    } else {
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                    2000 + static_cast<int>(rng() % 25),
                    1 + static_cast<int>(rng() % 12),
                    1 + static_cast<int>(rng() % 28),
                    static_cast<int>(rng() % 24),
                    static_cast<int>(rng() % 60),
                    static_cast<int>(rng() % 60));
      f = buf;
    }
  }
  return fields;
}

int64_t TotalBytes(const std::vector<std::string>& fields) {
  int64_t total = 0;
  for (const auto& f : fields) total += static_cast<int64_t>(f.size());
  return total;
}

// Sums what `parse` reads from every field of `kind`; items are values.
// `parse` is a lambda, so the converter is called directly (and inlined
// where it is inline).
template <typename T, typename Parse>
void ParseEach(benchmark::State& state, const char* kind, Parse parse) {
  const auto fields = MakeFields(kind, 10000);
  for (auto _ : state) {
    T v{};
    T sum{};
    for (const auto& f : fields) {
      if (parse(f, &v)) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * TotalBytes(fields));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fields.size()));
}

void BM_ParseInt64(benchmark::State& state) {
  ParseEach<int64_t>(state, "int", [](std::string_view f, int64_t* v) {
    return ParseInt64(f, v);
  });
}
BENCHMARK(BM_ParseInt64);

void BM_ParseInt64_Padded(benchmark::State& state) {
  ParseEach<int64_t>(state, "int_padded", [](std::string_view f, int64_t* v) {
    return ParseInt64(f, v);
  });
}
BENCHMARK(BM_ParseInt64_Padded);

void BM_ParseInt64_General(benchmark::State& state) {
  ParseEach<int64_t>(state, "int19", [](std::string_view f, int64_t* v) {
    return ParseInt64(f, v);
  });
}
BENCHMARK(BM_ParseInt64_General);

void BM_ParseFloat64(benchmark::State& state) {
  ParseEach<double>(state, "float", [](std::string_view f, double* v) {
    return ParseFloat64(f, v);
  });
}
BENCHMARK(BM_ParseFloat64);

void BM_ParseFloat64_Padded(benchmark::State& state) {
  ParseEach<double>(state, "float_padded", [](std::string_view f, double* v) {
    return ParseFloat64(f, v);
  });
}
BENCHMARK(BM_ParseFloat64_Padded);

void BM_ParseFloat64_General(benchmark::State& state) {
  ParseEach<double>(state, "float_exp", [](std::string_view f, double* v) {
    return ParseFloat64(f, v);
  });
}
BENCHMARK(BM_ParseFloat64_General);

void BM_ParseDecimal64(benchmark::State& state) {
  ParseEach<int64_t>(state, "decimal", [](std::string_view f, int64_t* v) {
    return ParseDecimal64(f, 2, v);
  });
}
BENCHMARK(BM_ParseDecimal64);

void BM_ParseDate32(benchmark::State& state) {
  ParseEach<int32_t>(state, "date", [](std::string_view f, int32_t* v) {
    return ParseDate32(f, v);
  });
}
BENCHMARK(BM_ParseDate32);

void BM_ParseTimestamp(benchmark::State& state) {
  ParseEach<int64_t>(state, "timestamp", [](std::string_view f, int64_t* v) {
    return ParseTimestampMicros(f, v);
  });
}
BENCHMARK(BM_ParseTimestamp);

void BM_ParseTimestamp_General(benchmark::State& state) {
  ParseEach<int64_t>(state, "timestamp_frac",
                     [](std::string_view f, int64_t* v) {
                       return ParseTimestampMicros(f, v);
                     });
}
BENCHMARK(BM_ParseTimestamp_General);

void BM_ClassifyField(benchmark::State& state) {
  // The per-field classification of §4.3 type inference.
  auto fields = MakeFields("int", 3000);
  auto floats = MakeFields("float", 3000);
  auto dates = MakeFields("date", 3000);
  fields.insert(fields.end(), floats.begin(), floats.end());
  fields.insert(fields.end(), dates.begin(), dates.end());
  for (auto _ : state) {
    int64_t sum = 0;
    for (const auto& f : fields) {
      sum += static_cast<int>(ClassifyField(f));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * TotalBytes(fields));
}
BENCHMARK(BM_ClassifyField);

// A whole Parser::Parse of 32 MiB of taxi-like data on 4 workers, typed
// (state.range(0) == 1: TaxiSchema, 5 Int64, 8 Float64 and 2 timestamp
// columns per record) or as strings.
void BM_ParseTaxi(benchmark::State& state) {
  static const std::string input = GenerateTaxiLike(99, size_t{32} << 20);
  static ThreadPool& pool = *new ThreadPool(4);
  ParseOptions options;
  options.pool = &pool;
  if (state.range(0) == 1) options.schema = TaxiSchema();
  for (auto _ : state) {
    auto result = Parser::Parse(input, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
  state.SetLabel(state.range(0) == 1 ? "typed" : "strings");
}
BENCHMARK(BM_ParseTaxi)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(2.0);

}  // namespace

BENCHMARK_MAIN();
