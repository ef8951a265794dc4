#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>

#include "core/parser.h"
#include "exec/executor.h"
#include "io/file.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "robust/failpoint.h"
#include "robust/resource_guard.h"

namespace parparaw {
namespace {

// ---------------------------------------------------------------------------
// Registry semantics under concurrent writers.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterConcurrentWriters) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.counter");
  ASSERT_NE(counter, nullptr);

  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) counter->Add(3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kIncrements * 3);
}

TEST(MetricsTest, HistogramConcurrentWriters) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("test.hist");
  ASSERT_NE(hist, nullptr);

  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRecords; ++i) {
        hist->Record(t * kRecords + i + 1);  // values 1 .. kThreads*kRecords
      }
    });
  }
  for (auto& t : threads) t.join();

  const obs::HistogramSnapshot snap = hist->Snapshot();
  const int64_t n = int64_t{kThreads} * kRecords;
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.sum, n * (n + 1) / 2);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, n);
  int64_t bucket_total = 0;
  for (int64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
  // Quantiles are log2-resolution estimates but must be ordered and fall
  // inside the observed range.
  const int64_t p50 = snap.Quantile(0.5);
  const int64_t p99 = snap.Quantile(0.99);
  EXPECT_GE(p50, snap.min);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, snap.max);
}

TEST(MetricsTest, QuantileIsNearestRank) {
  // The q-quantile is the ceil(q * n)-th smallest sample (its bucket's
  // upper bound, clamped to the observed range).
  obs::MetricsRegistry registry;
  obs::Histogram* two = registry.GetHistogram("two");
  two->Record(10);
  two->Record(1000);
  EXPECT_EQ(two->Snapshot().Quantile(0.99), 1000);
  obs::Histogram* three = registry.GetHistogram("three");
  three->Record(1);
  three->Record(1000);
  three->Record(1000);
  EXPECT_EQ(three->Snapshot().Quantile(0.5), 1000);
}

TEST(MetricsTest, GaugeTracksLevelAndMax) {
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(7);
  gauge->Set(42);
  gauge->Set(3);
  EXPECT_EQ(gauge->Value(), 3);
  EXPECT_EQ(gauge->Max(), 42);
}

TEST(MetricsTest, KindMismatchReturnsNull) {
  obs::MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("x"), nullptr);
  EXPECT_EQ(registry.GetGauge("x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("x"), nullptr);
}

TEST(MetricsTest, SameNameReturnsSameInstrument) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("c"), registry.GetCounter("c"));
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
}

TEST(MetricsTest, DisabledRegistryHelpersAreNoOps) {
  obs::MetricsRegistry registry(/*enabled=*/false);
  registry.AddCounter("c", 5);
  registry.RecordHistogram("h", 5);
  // The gated helpers must not even create the instruments.
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(MetricsTest, ResetZeroesInPlaceKeepingPointersValid) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Histogram* hist = registry.GetHistogram("h");
  counter->Add(9);
  hist->Record(100);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(hist->Snapshot().count, 0);
  counter->Add(2);  // the same pointer keeps working after Reset
  EXPECT_EQ(counter->Value(), 2);
}

TEST(MetricsTest, SchedCountersRecordEveryMorsel) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  const bool was_enabled = global.enabled();
  global.SetEnabled(true);
  obs::Counter* submitted = global.GetCounter("sched.submits");
  obs::Counter* executed = global.GetCounter("sched.runs");
  const int64_t submitted_before = submitted->Value();
  const int64_t executed_before = executed->Value();
  {
    // An explicit 4-worker pool: ParallelForEach must fan out regardless
    // of the machine's core count, and it returns only after every
    // morsel ran.
    ThreadPool pool(4);
    std::atomic<int64_t> sum{0};
    ParallelForEach(&pool, 0, 1000,
                    [&](int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 999 * 1000 / 2);
  }
  EXPECT_GE(submitted->Value() - submitted_before, 4);
  EXPECT_EQ(submitted->Value() - submitted_before,
            executed->Value() - executed_before);
  global.SetEnabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Tracer: span recording, nesting, concurrent writers.
// ---------------------------------------------------------------------------

TEST(TracerTest, SpansRecordNameCategoryBytesAndThread) {
  obs::Tracer tracer;
  {
    obs::TraceSpan span(&tracer, "outer", "test", 123);
  }
  const std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_EQ(events[0].bytes, 123);
  EXPECT_GE(events[0].dur_ns, 0);
  EXPECT_EQ(events[0].tid, obs::ThisThreadTraceId());
}

TEST(TracerTest, NestedSpansAreContainedAndDepthIncreases) {
  obs::Tracer tracer;
  {
    obs::TraceSpan outer(&tracer, "outer", "test");
    {
      obs::TraceSpan mid(&tracer, "mid", "test");
      obs::TraceSpan inner(&tracer, "inner", "test");
    }
  }
  std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  // Events() sorts by begin timestamp: outer, mid, inner.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 2);
  // Interval containment: child begins at/after parent begin, ends at/
  // before parent end.
  for (int child = 1; child < 3; ++child) {
    EXPECT_GE(events[child].ts_ns, events[child - 1].ts_ns);
    EXPECT_LE(events[child].ts_ns + events[child].dur_ns,
              events[child - 1].ts_ns + events[child - 1].dur_ns);
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer(/*enabled=*/false);
  {
    obs::TraceSpan span(&tracer, "x", "test");
  }
  {
    obs::TraceSpan null_span(nullptr, "y", "test");
  }
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(TracerTest, ConcurrentSpansFromManyThreads) {
  obs::Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceSpan span(&tracer, "work", "test", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.Events().size(),
            static_cast<size_t>(kThreads) * kSpans);
}

// ---------------------------------------------------------------------------
// Chrome-trace JSON schema check: a minimal recursive-descent JSON parser
// (no external dependency) validates the exported document's structure.
// ---------------------------------------------------------------------------

class MiniJson {
 public:
  // Very small JSON reader: parses and returns true when `text` is a
  // syntactically valid JSON value covering the subset the exporter emits
  // (objects, arrays, strings with escapes, numbers). `Visit` callbacks
  // collect the trace events' keys.
  struct Value;
  using Object = std::vector<std::pair<std::string, Value>>;

  struct Value {
    enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    Object object;

    const Value* Find(const std::string& key) const {
      for (const auto& [k, v] : object) {
        if (k == key) return &v;
      }
      return nullptr;
    }
  };

  static bool Parse(const std::string& text, Value* out) {
    MiniJson parser(text);
    if (!parser.ParseValue(out)) return false;
    parser.SkipSpace();
    return parser.pos_ == text.size();
  }

 private:
  explicit MiniJson(const std::string& text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(
                      static_cast<unsigned char>(text_[pos_ + i]))) {
                return false;
              }
            }
            pos_ += 4;
            out->push_back('?');  // code point value irrelevant here
            break;
          }
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseValue(Value* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = Value::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      while (true) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Consume(':')) return false;
        Value value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = Value::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      while (true) {
        Value value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = Value::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = Value::kBool;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = Value::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = Value::kNull;
      pos_ += 4;
      return true;
    }
    // Number.
    const size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Value::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(TracerTest, ChromeTraceJsonMatchesSchema) {
  // Produce a real trace: an instrumented parse plus a nested test span
  // whose name needs JSON escaping.
  obs::Tracer tracer;
  ParseOptions options;
  options.tracer = &tracer;
  {
    obs::TraceSpan escaped(&tracer, "quote\"and\\slash\nnewline", "test");
    auto parsed = Parser::Parse("a,b\n1,2\nx,\"y,z\"\n", options);
    ASSERT_TRUE(parsed.ok());
  }
  const std::string json = tracer.ChromeTraceJson();

  MiniJson::Value root;
  ASSERT_TRUE(MiniJson::Parse(json, &root)) << json;
  ASSERT_EQ(root.kind, MiniJson::Value::kObject);

  const MiniJson::Value* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, MiniJson::Value::kArray);
  ASSERT_GE(events->array.size(), 7u);  // test span + parse + 6 steps

  const MiniJson::Value* unit = root.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->kind, MiniJson::Value::kString);

  bool saw_parse_span = false;
  bool saw_escaped_span = false;
  for (const MiniJson::Value& event : events->array) {
    ASSERT_EQ(event.kind, MiniJson::Value::kObject);
    // Required fields of the Trace Event Format, with their types.
    const MiniJson::Value* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->kind, MiniJson::Value::kString);
    const MiniJson::Value* cat = event.Find("cat");
    ASSERT_NE(cat, nullptr);
    EXPECT_EQ(cat->kind, MiniJson::Value::kString);
    const MiniJson::Value* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string, "X");  // complete events
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      const MiniJson::Value* field = event.Find(key);
      ASSERT_NE(field, nullptr) << key;
      EXPECT_EQ(field->kind, MiniJson::Value::kNumber) << key;
      if (std::string(key) == "ts" || std::string(key) == "dur") {
        EXPECT_GE(field->number, 0.0) << key;
      }
    }
    const MiniJson::Value* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_EQ(args->kind, MiniJson::Value::kObject);
    const MiniJson::Value* depth = args->Find("depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->kind, MiniJson::Value::kNumber);
    if (name->string == "parse") {
      saw_parse_span = true;
      const MiniJson::Value* bytes = args->Find("bytes");
      ASSERT_NE(bytes, nullptr);
      EXPECT_EQ(bytes->number, 16.0);  // strlen of the parsed input
    }
    if (name->string == "quote\"and\\slash\nnewline") {
      saw_escaped_span = true;
    }
  }
  EXPECT_TRUE(saw_parse_span);
  EXPECT_TRUE(saw_escaped_span);
}

// ---------------------------------------------------------------------------
// Pipeline integration: an instrumented parse populates the taxonomy.
// ---------------------------------------------------------------------------

TEST(ObsIntegrationTest, InstrumentedParsePopulatesStepHistograms) {
  // Both transpose modes. Only the symbol sort builds a CSS index; the
  // field gather writes its columns in step.partition and has no
  // step.css_index phase.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    const bool sort = mode == TransposeMode::kSymbolSort;
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    ParseOptions options;
    options.metrics = &registry;
    options.tracer = &tracer;
    options.transpose_mode = mode;
    std::string csv;
    for (int i = 0; i < 500; ++i) csv += "1,alice,10.5\n";
    auto parsed = Parser::Parse(csv, options);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->table.num_rows, 500);

    for (const char* hist :
         {"step.context.parse_us", "step.context.scan_us", "step.bitmap_us",
          "step.offset_us", "step.tag.count_us", "step.tag.scan_us",
          "step.tag.write_us", "step.partition_us", "step.convert_us",
          "parse.total_us"}) {
      EXPECT_GE(registry.GetHistogram(hist)->Snapshot().count, 1) << hist;
    }
    EXPECT_EQ(registry.GetHistogram("step.css_index_us")->Snapshot().count,
              sort ? 3 : 0);
    EXPECT_EQ(registry.GetCounter("parse.runs")->Value(), 1);
    EXPECT_EQ(registry.GetCounter("parse.bytes")->Value(),
              static_cast<int64_t>(csv.size()));
    EXPECT_EQ(registry.GetCounter("parse.out_rows")->Value(), 500);

    // Every pipeline step shows up as a span.
    std::vector<std::string> names;
    for (const obs::TraceEvent& e : tracer.Events()) names.push_back(e.name);
    for (const char* span :
         {"parse", "step.context", "step.bitmap", "step.offset", "step.tag",
          "step.partition", "step.convert"}) {
      EXPECT_NE(std::find(names.begin(), names.end(), span), names.end())
          << span;
    }
    EXPECT_EQ(std::find(names.begin(), names.end(), "step.css_index") !=
                  names.end(),
              sort);
  }
}

TEST(ObsIntegrationTest, UninstrumentedParseTouchesNoSinks) {
  // Null sinks (the default): a parse must not create instruments in the
  // global registry or events in the global tracer even when they exist.
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool metrics_enabled = global.enabled();
  const bool tracer_enabled = tracer.enabled();
  global.SetEnabled(false);
  tracer.SetEnabled(false);
  tracer.Clear();
  ParseOptions options;
  auto parsed = Parser::Parse("a,b\n1,2\n", options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(tracer.Events().empty());
  global.SetEnabled(metrics_enabled);
  tracer.SetEnabled(tracer_enabled);
}

// A multi-partition ingest on an explicit 4-worker pool, so morsels of one
// partition run on different threads whatever the machine's core count.
Result<exec::IngestResult> TracedIngest(obs::Tracer* tracer,
                                        obs::MetricsRegistry* metrics,
                                        ThreadPool* pool) {
  std::string csv;
  for (int i = 0; i < 20000; ++i) {
    csv += std::to_string(i) + ",\"name, " + std::to_string(i % 97) +
           "\"," + std::to_string(i % 1000) + ".25\n";
  }
  exec::ExecOptions options;
  options.base.schema.AddField(Field("id", DataType::Int64()));
  options.base.schema.AddField(Field("name", DataType::String()));
  options.base.schema.AddField(Field("value", DataType::Float64()));
  options.base.pool = pool;
  options.base.tracer = tracer;
  options.base.metrics = metrics;
  options.partition_size = 24 * 1024;
  exec::PipelineExecutor executor;
  return executor.IngestBuffer(csv, options);
}

// Per-name totals over a trace: spans, summed nanoseconds, and the
// microsecond truncation a histogram sample of each span would hold.
struct SpanTotals {
  int64_t count = 0;
  int64_t dur_ns = 0;
  int64_t sum_us = 0;
  int64_t min_us = INT64_MAX;
  int64_t max_us = INT64_MIN;
};

SpanTotals TotalsOf(const std::vector<obs::TraceEvent>& events,
                    const std::string& name) {
  SpanTotals totals;
  for (const obs::TraceEvent& e : events) {
    if (name != e.name) continue;
    ++totals.count;
    totals.dur_ns += e.dur_ns;
    totals.sum_us += e.dur_ns / 1000;
    totals.min_us = std::min(totals.min_us, e.dur_ns / 1000);
    totals.max_us = std::max(totals.max_us, e.dur_ns / 1000);
  }
  return totals;
}

// Every sample of `histogram` is the interval of one `span`.
void ExpectSamplesAreSpans(obs::MetricsRegistry* registry,
                           const std::vector<obs::TraceEvent>& events,
                           const char* span, const char* histogram) {
  const SpanTotals totals = TotalsOf(events, span);
  const obs::HistogramSnapshot samples =
      registry->GetHistogram(histogram)->Snapshot();
  EXPECT_GE(totals.count, 1) << span;
  EXPECT_EQ(samples.count, totals.count) << histogram;
  EXPECT_EQ(samples.sum, totals.sum_us) << histogram;
  EXPECT_EQ(samples.min, totals.min_us) << histogram;
  EXPECT_EQ(samples.max, totals.max_us) << histogram;
}

TEST(ObsIntegrationTest, ExecutorSpansNestOnTheirOwnThread) {
  // A span opened on one worker and closed on another drives the closing
  // thread's depth negative and leaks +1 on the opener; every span must
  // instead sit inside its parent on its own thread.
  obs::Tracer tracer;
  ThreadPool pool(4);
  Result<exec::IngestResult> ingested = TracedIngest(&tracer, nullptr, &pool);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_GE(ingested->stats.num_partitions, 8);

  const std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_FALSE(events.empty());
  int negative = 0;
  int unnested = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.depth < 0) {
      ++negative;
      continue;
    }
    if (e.depth == 0) continue;
    const bool nested = std::any_of(
        events.begin(), events.end(), [&](const obs::TraceEvent& parent) {
          return parent.tid == e.tid && parent.depth == e.depth - 1 &&
                 parent.ts_ns <= e.ts_ns &&
                 e.ts_ns + e.dur_ns <= parent.ts_ns + parent.dur_ns;
        });
    if (!nested) {
      ADD_FAILURE() << e.name << " at depth " << e.depth << " on tid "
                    << e.tid << " has no enclosing span";
      if (++unnested > 5) break;
    }
  }
  EXPECT_EQ(negative, 0);
  EXPECT_EQ(unnested, 0);
}

// The scan morsel holds the scan token, so it runs only the steps the
// carry-over needs; the tag step runs in the sort morsel.
TEST(ObsIntegrationTest, TagRunsInTheSortMorsel) {
  obs::Tracer tracer;
  ThreadPool pool(4);
  Result<exec::IngestResult> ingested = TracedIngest(&tracer, nullptr, &pool);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  const std::vector<obs::TraceEvent> events = tracer.Events();
  int tags = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) != "step.tag") continue;
    ++tags;
    const bool in_sort = std::any_of(
        events.begin(), events.end(), [&](const obs::TraceEvent& sort) {
          return std::string(sort.name) == "morsel.sort" &&
                 sort.tid == e.tid && sort.ts_ns <= e.ts_ns &&
                 e.ts_ns + e.dur_ns <= sort.ts_ns + sort.dur_ns;
        });
    EXPECT_TRUE(in_sort) << "step.tag on tid " << e.tid
                         << " outside every morsel.sort";
  }
  EXPECT_EQ(tags, ingested->stats.num_partitions);
}

TEST(ObsIntegrationTest, StageSinksAgree) {
  // Executor: each morsel stage's spans, exec.*_us samples and IngestStats
  // seconds are one interval per morsel.
  {
    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    ThreadPool pool(4);
    Result<exec::IngestResult> ingested =
        TracedIngest(&tracer, &registry, &pool);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    const exec::IngestStats& stats = ingested->stats;
    ASSERT_GE(stats.num_partitions, 8);
    const std::vector<obs::TraceEvent> events = tracer.Events();
    const struct {
      const char* span;
      const char* histogram;
      double seconds;
    } stages[] = {
        {"morsel.read", "exec.read_us", stats.read_seconds},
        {"morsel.scan", "exec.scan_us", stats.scan_seconds},
        {"morsel.sort", "exec.sort_us", stats.sort_seconds},
        {"morsel.convert", "exec.convert_us", stats.convert_seconds},
        {"exec.ingest", "exec.ingest_us", stats.wall_seconds},
    };
    for (const auto& stage : stages) {
      const SpanTotals totals = TotalsOf(events, stage.span);
      EXPECT_NEAR(static_cast<double>(totals.dur_ns) * 1e-9, stage.seconds,
                  1e-9)
          << stage.span;
      ExpectSamplesAreSpans(&registry, events, stage.span, stage.histogram);
    }
    EXPECT_EQ(TotalsOf(events, "morsel.scan").count, stats.num_partitions);
  }

  // Parser::Parse: each step phase's span is its step.*_us sample, and each
  // StepTimings bucket is the sum of its phases (the mapping documented
  // at StepTimings). Both transpose modes; only the symbol sort has a
  // step.css_index phase.
  for (TransposeMode mode :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    ParseOptions options;
    options.tracer = &tracer;
    options.metrics = &registry;
    options.transpose_mode = mode;
    std::string csv;
    for (int i = 0; i < 2000; ++i) csv += "1,\"alice, b\",10.5\n";
    Result<ParseOutput> parsed = Parser::Parse(csv, options);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::vector<obs::TraceEvent> events = tracer.Events();
    std::vector<const char*> phases = {
        "step.context.parse", "step.context.scan", "step.bitmap",
        "step.offset",        "step.tag.count",    "step.tag.scan",
        "step.tag.write",     "step.partition",    "step.convert"};
    if (mode == TransposeMode::kSymbolSort) phases.push_back("step.css_index");
    for (const char* phase : phases) {
      ExpectSamplesAreSpans(&registry, events, phase,
                            (std::string(phase) + "_us").c_str());
    }
    ExpectSamplesAreSpans(&registry, events, "parse", "parse.total_us");

    const auto phase_ms = [&](std::initializer_list<const char*> names) {
      int64_t dur_ns = 0;
      for (const char* name : names) dur_ns += TotalsOf(events, name).dur_ns;
      return static_cast<double>(dur_ns) * 1e-6;
    };
    const StepTimings& t = parsed->timings;
    EXPECT_NEAR(t.parse_ms, phase_ms({"step.context.parse"}), 1e-6);
    EXPECT_NEAR(t.scan_ms,
                phase_ms({"step.context.scan", "step.offset", "step.tag.scan"}),
                1e-6);
    EXPECT_NEAR(t.tag_ms,
                phase_ms({"step.bitmap", "step.tag.count", "step.tag.write"}),
                1e-6);
    EXPECT_NEAR(t.partition_ms, phase_ms({"step.partition"}), 1e-6);
    EXPECT_NEAR(t.convert_ms, phase_ms({"step.convert"}), 1e-6);
  }
}

// ---------------------------------------------------------------------------
// robust.* metric taxonomy (see docs/robustness.md).
// ---------------------------------------------------------------------------

TEST(ObsRobustTest, FailpointHitsAndFiresAreCounted) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  const bool was_enabled = global.enabled();
  global.SetEnabled(true);
  const int64_t hits0 = global.GetCounter("robust.failpoint_hits")->Value();
  const int64_t fires0 = global.GetCounter("robust.failpoint_fires")->Value();

  auto& registry = robust::FailpointRegistry::Instance();
  registry.Arm("obs.test", robust::CountTrigger(2));
  for (int i = 0; i < 5; ++i) (void)robust::CheckFailpoint("obs.test");
  registry.DisarmAll();

  EXPECT_EQ(global.GetCounter("robust.failpoint_hits")->Value() - hits0, 5);
  EXPECT_EQ(global.GetCounter("robust.failpoint_fires")->Value() - fires0, 2);
  global.SetEnabled(was_enabled);
}

TEST(ObsRobustTest, IoRetriesAndBudgetClampsAreCounted) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  const bool was_enabled = global.enabled();
  global.SetEnabled(true);
  const int64_t retries0 = global.GetCounter("robust.io_retries")->Value();
  const int64_t clamps0 = global.GetCounter("robust.budget_clamps")->Value();

  // A transient read fault forces the retry loop through its backoff.
  const std::string path = "/tmp/parparaw_obs_robust.tmp";
  ASSERT_TRUE(WriteStringToFile(path, "a,b\n1,2\n").ok());
  auto& registry = robust::FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("io.read=count:1:transient").ok());
  ASSERT_TRUE(ReadFileToString(path).ok());
  registry.DisarmAll();
  std::remove(path.c_str());
  EXPECT_GE(global.GetCounter("robust.io_retries")->Value() - retries0, 1);

  // A budget-driven partition clamp is observable.
  (void)robust::ClampPartitionSizeForBudget(1 << 20, 16 * 1024);
  EXPECT_EQ(global.GetCounter("robust.budget_clamps")->Value() - clamps0, 1);
  global.SetEnabled(was_enabled);
}

TEST(ObsRobustTest, QuarantinedRowsAreCounted) {
  obs::MetricsRegistry registry;  // private, enabled
  ParseOptions options;
  options.schema.AddField(Field("n", DataType::Int64()));
  options.schema.AddField(Field("s", DataType::String()));
  options.error_policy = robust::ErrorPolicy::kQuarantine;
  options.metrics = &registry;
  auto parsed = Parser::Parse("1,a\nbad,b\n3,c\n", options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(registry.GetCounter("robust.quarantined_rows")->Value(), 1);
}

}  // namespace
}  // namespace parparaw
