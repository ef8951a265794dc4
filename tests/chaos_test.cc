#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/parser.h"
#include "dialect/dialect.h"
#include "exec/executor.h"
#include "io/file.h"
#include "loader/bulk_loader.h"
#include "robust/failpoint.h"
#include "robust/reparse.h"
#include "serve/client.h"
#include "serve/server.h"

namespace parparaw {
namespace {

using robust::ErrorPolicy;
using robust::FailpointRegistry;
using robust::FailpointTrigger;

// The core robustness invariant (see robust/failpoint.h): under ANY
// schedule of injected faults, a pipeline entry point either returns a
// clean error Status or returns output bit-identical to the fault-free
// run. Never a crash, a leak (ASan/LSan in scripts/check.sh faults), a
// deadlock, or silently different data.
//
// Schedules are derived from a seeded PRNG so every run replays exactly.
// Override the sweep with:
//   PARPARAW_CHAOS_SCHEDULES  number of schedules (default 1200)
//   PARPARAW_CHAOS_SEED_BASE  first seed (default 20260806)

// xorshift64* — same generator the probability trigger uses, so schedules
// stay deterministic across platforms.
struct ChaosRng {
  uint64_t state;
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  int Uniform(int n) { return static_cast<int>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

// Faultable sites covering every layer the chaos sweep exercises,
// including every queue hand-off of the pipelined executor and every
// socket operation of the serving daemon (the serve.* sites fire on
// both sides of the loopback connection — the registry is
// process-wide).
const char* const kFailpoints[] = {
    "pool.task",       "alloc.context", "alloc.bitmap", "alloc.tag",
    "alloc.partition", "alloc.gather",  "alloc.convert", "loader.load",
    "io.open",         "io.read",       "io.tell",      "exec.ingest",
    "exec.read",
    "exec.queue.scan.push",    "exec.queue.scan.pop",
    "exec.queue.sort.push",    "exec.queue.sort.pop",
    "exec.queue.convert.push", "exec.queue.convert.pop",
    "dialect.compile", "dialect.minimise",
    "serve.accept",    "serve.read",    "serve.write",
    "serve.read.short", "serve.write.short",
    // Request-lifecycle sites: forced admission-deadline expiry, a
    // drain-style close after the response, a single bit flipped in a
    // checksummed frame (either direction — the registry is
    // process-wide), and a deadline firing at an executor hand-off.
    "serve.deadline",  "serve.drain",   "serve.corrupt",
    "exec.deadline",
    // Scheduler schedule-perturbation sites: sched.submit diverts a task
    // to inline execution on the submitter, sched.steal makes a thief
    // skip one steal attempt. Neither is an error — arming them must
    // never change output, only the schedule (the sweep still asserts
    // clean-error-or-bit-identical, so any divergence is caught).
    "sched.submit",    "sched.steal",
};

// A small input with every interesting shape: quoted fields, quoted
// delimiters and newlines, empty fields, a malformed int, a short record.
// ~3 KB so a schedule sweep of >1000 runs stays fast.
std::string ChaosInput() {
  std::string csv;
  for (int i = 0; i < 120; ++i) {
    switch (i % 8) {
      case 3:
        csv += "\"q" + std::to_string(i) + ",x\"," + std::to_string(i) +
               ",\"line\nbreak\"\n";
        break;
      case 5:
        // Malformed int64 in column n: the error policies diverge here.
        csv += "row" + std::to_string(i) + ",notanint,plain\n";
        break;
      case 6:
        csv += std::to_string(i) + ",,\n";
        break;
      default:
        csv += "f" + std::to_string(i) + "," + std::to_string(i * 7) +
               ",tail" + std::to_string(i) + "\n";
        break;
    }
  }
  return csv;
}

// The chaos input in memory, and in a temp file written before any
// failpoint is armed, so the file entry's opens, reads and tells run under
// the schedule. The file is per process: ctest runs tests in parallel.
class ChaosData {
 public:
  ChaosData()
      : bytes_(ChaosInput()),
        path_("/tmp/parparaw_chaos_" + std::to_string(getpid()) + ".csv") {
    EXPECT_TRUE(WriteStringToFile(path_, bytes_).ok());
  }
  ~ChaosData() { std::remove(path_.c_str()); }
  ChaosData(const ChaosData&) = delete;
  ChaosData& operator=(const ChaosData&) = delete;

  const std::string& bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::string bytes_;
  std::string path_;
};

Schema ChaosSchema() {
  Schema schema;
  schema.AddField(Field("s", DataType::String()));
  schema.AddField(Field("n", DataType::Int64()));
  schema.AddField(Field("t", DataType::String()));
  return schema;
}

enum class Entry { kParse, kFile, kLoader, kExec, kServe, kQuery };

struct Config {
  Entry entry;
  bool scalar_kernel;
  ErrorPolicy policy;
  // Route the run through the dialect compiler: a runtime-compiled twin of
  // the default RFC 4180 format, so the parsed language is unchanged but
  // the compile → minimise → prove path (and its failpoints) is on the
  // schedule.
  bool use_dialect = false;

  bool operator<(const Config& other) const {
    return std::tie(entry, scalar_kernel, policy, use_dialect) <
           std::tie(other.entry, other.scalar_kernel, other.policy,
                    other.use_dialect);
  }
};

dialect::DialectSpec ChaosTwinSpec() {
  dialect::DialectSpec spec;  // defaults are exactly RFC 4180 CSV
  spec.name = "chaos-twin";
  return spec;
}

// Shared loopback daemon for the kServe schedules. Started lazily on the
// first serve schedule and reused for the rest of the sweep; the sweep
// stops it when done so every connection thread is joined (the Server
// object itself is intentionally leaked — joining matters for TSan's
// thread-leak check, the few bytes of Server state do not).
std::atomic<bool> g_chaos_server_started{false};

serve::Server& ChaosServer() {
  static serve::Server* server = new serve::Server(serve::ServeOptions{});
  return *server;
}

uint16_t ChaosServerPort() {
  static uint16_t port = [] {
    auto started = ChaosServer().Start();
    if (started.ok()) g_chaos_server_started.store(true);
    return started.ok() ? *started : uint16_t{0};
  }();
  return port;
}

void StopChaosServerIfStarted() {
  if (g_chaos_server_started.exchange(false)) ChaosServer().Stop();
}

ParseOptions BaseOptions(const Config& config) {
  ParseOptions options;
  options.schema = ChaosSchema();
  options.kernel =
      config.scalar_kernel ? simd::KernelKind::kScalar : simd::KernelKind::kAuto;
  options.error_policy = config.policy;
  if (config.use_dialect) options.dialect = ChaosTwinSpec();
  return options;
}

// One run of the configured entry point. Returns the resulting table (and
// rejected vector inside it) or the error.
Result<Table> RunEntry(const Config& config, const ChaosData& data) {
  const std::string& input = data.bytes();
  switch (config.entry) {
    case Entry::kParse: {
      PARPARAW_ASSIGN_OR_RETURN(ParseOutput out,
                                Parser::Parse(input, BaseOptions(config)));
      return std::move(out.table);
    }
    case Entry::kFile: {
      // The executor's file path: FileChunkReader reads the partitions,
      // and a partition with a carry-over copies it ahead of its read.
      exec::PipelineExecutor executor;
      exec::ExecOptions options;
      options.base = BaseOptions(config);
      options.partition_size = 700;  // several partitions per run
      PARPARAW_ASSIGN_OR_RETURN(exec::IngestResult out,
                                executor.IngestFile(data.path(), options));
      return std::move(out.table);
    }
    case Entry::kLoader: {
      LoadOptions load;
      load.schema = ChaosSchema();
      load.header = 0;
      load.collect_statistics = false;
      load.error_policy = config.policy;
      if (config.use_dialect) load.dialect = ChaosTwinSpec();
      PARPARAW_ASSIGN_OR_RETURN(LoadResult out,
                                BulkLoader::LoadBuffer(input, load));
      return std::move(out.table);
    }
    case Entry::kExec: {
      exec::PipelineExecutor executor;
      exec::ExecOptions options;
      options.base = BaseOptions(config);
      options.partition_size = 700;  // several partitions in flight
      PARPARAW_ASSIGN_OR_RETURN(exec::IngestResult out,
                                executor.IngestBuffer(input, options));
      return std::move(out.table);
    }
    case Entry::kQuery: {
      // A query on the executor: each partition's sort morsel selects on
      // column n (StagedParse::Select) before it tags and partitions.
      exec::PipelineExecutor executor;
      exec::ExecOptions options;
      options.base = BaseOptions(config);
      options.predicate = Predicate(1, CompareOp::kGt, "300");
      options.partition_size = 700;
      PARPARAW_ASSIGN_OR_RETURN(exec::IngestResult out,
                                executor.IngestBuffer(input, options));
      return std::move(out.table);
    }
    case Entry::kServe: {
      // Round-trip through a loopback parparawd: serialise, serve,
      // deserialise. Started lazily on the first (fault-free) serve
      // schedule and shared by the rest of the sweep — its acceptor must
      // survive every injected serve.* fault. The wire protocol has no
      // schema/dialect/kernel channel, so those knobs only vary the
      // reference key; the daemon resolves types by inference.
      const uint16_t port = ChaosServerPort();
      if (port == 0) return Status::Internal("chaos daemon failed to start");
      PARPARAW_ASSIGN_OR_RETURN(serve::Client client,
                                serve::Client::Connect(port));
      // v2 checksummed frames: serve.corrupt only bites checksummed
      // traffic, and every other serve.* fault must stay clean under
      // the CRC trailer too.
      client.set_checksums(true);
      serve::RequestOptions request;
      request.error_policy = static_cast<uint8_t>(config.policy);
      request.header = 0;
      PARPARAW_ASSIGN_OR_RETURN(serve::ParseReply reply,
                                client.Parse(input, request));
      if (reply.busy) return Status::ResourceExhausted("daemon busy");
      return std::move(reply.table);
    }
  }
  return Status::Internal("unreachable");
}

TEST(ChaosTest, EveryScheduleFailsCleanOrMatchesFaultFree) {
  const int schedules =
      static_cast<int>(EnvInt("PARPARAW_CHAOS_SCHEDULES", 1200));
  const uint64_t seed_base =
      static_cast<uint64_t>(EnvInt("PARPARAW_CHAOS_SEED_BASE", 20260806));
  const ChaosData data;
  FailpointRegistry& registry = FailpointRegistry::Instance();

  // Fault-free references, one per configuration actually visited.
  std::map<Config, Table> references;
  const auto reference_for = [&](const Config& config) -> const Table& {
    auto it = references.find(config);
    if (it == references.end()) {
      auto table = RunEntry(config, data);
      EXPECT_TRUE(table.ok()) << table.status().ToString();
      it = references.emplace(config, std::move(table).ValueOrDie()).first;
    }
    return it->second;
  };

  int clean_errors = 0;
  int identical = 0;
  for (int s = 0; s < schedules; ++s) {
    ChaosRng rng{seed_base + static_cast<uint64_t>(s) * 0x9E3779B97F4A7C15ULL};
    rng.Next();

    Config config;
    config.entry = static_cast<Entry>(rng.Uniform(6));
    config.scalar_kernel = rng.Uniform(2) == 0;
    config.policy = std::array<ErrorPolicy, 3>{
        ErrorPolicy::kNull, ErrorPolicy::kSkip,
        ErrorPolicy::kQuarantine}[rng.Uniform(3)];
    config.use_dialect = rng.Uniform(3) == 0;
    const Table& reference = reference_for(config);

    // Arm 1-3 random failpoints with random triggers.
    const int armed = 1 + rng.Uniform(3);
    for (int a = 0; a < armed; ++a) {
      FailpointTrigger trigger;
      switch (rng.Uniform(3)) {
        case 0:
          trigger.kind = FailpointTrigger::Kind::kCount;
          trigger.n = 1 + rng.Uniform(3);
          break;
        case 1:
          trigger.kind = FailpointTrigger::Kind::kEveryNth;
          trigger.n = 2 + rng.Uniform(7);
          break;
        default:
          trigger.kind = FailpointTrigger::Kind::kProbability;
          trigger.probability = 0.05 + 0.45 * rng.Unit();
          trigger.seed = rng.Next();
          break;
      }
      switch (rng.Uniform(4)) {
        case 0:
          trigger.code = StatusCode::kIoError;
          break;
        case 1:
          trigger.code = StatusCode::kParseError;
          break;
        case 2:
          trigger.code = StatusCode::kResourceExhausted;
          break;
        default:
          trigger.code = StatusCode::kIoError;
          trigger.transient = true;  // exercised by the I/O retry loops
          break;
      }
      registry.Arm(
          kFailpoints[rng.Uniform(std::size(kFailpoints))], trigger);
    }

    const Result<Table> run = RunEntry(config, data);
    registry.DisarmAll();

    if (run.ok()) {
      // Faults either did not fire or were transparently retried; the
      // output must be bit-identical to the fault-free run.
      ASSERT_TRUE(run->Equals(reference)) << "schedule " << s;
      ASSERT_EQ(run->rejected, reference.rejected) << "schedule " << s;
      ++identical;
    } else {
      // Clean failure: a real code and a non-empty message.
      ASSERT_NE(run.status().code(), StatusCode::kOk) << "schedule " << s;
      ASSERT_FALSE(run.status().message().empty()) << "schedule " << s;
      ++clean_errors;
    }
  }

  // The sweep is only meaningful when both outcomes occur.
  EXPECT_GT(clean_errors, 0);
  EXPECT_GT(identical, 0);

  StopChaosServerIfStarted();
}

// The file entry puts the I/O failpoints on the sweep's schedule: one
// fault-free run reaches every one of them.
TEST(ChaosTest, FileEntryReachesTheIoFailpoints) {
  const ChaosData data;
  FailpointRegistry& registry = FailpointRegistry::Instance();
  const char* const sites[] = {"io.open", "io.read", "io.tell"};
  for (const char* site : sites) {
    registry.Arm(site, robust::CountTrigger(0));  // counts, never fires
  }
  const Result<Table> run =
      RunEntry(Config{Entry::kFile, false, ErrorPolicy::kNull}, data);
  std::map<std::string, int64_t> hits;
  for (const char* site : sites) hits[site] = registry.hits(site);
  registry.DisarmAll();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const char* site : sites) EXPECT_GT(hits[site], 0) << site;
}

// Every allocation and hand-off on a query's select path fails clean: the
// phase-1 tag, gather and convert allocations of both transpose modes (on
// an Int64 and a string predicate column) and the sort morsel's hand-offs.
TEST(ChaosTest, QuerySelectFaultsFailCleanOrMatchFaultFree) {
  const std::string input = ChaosInput();
  FailpointRegistry& registry = FailpointRegistry::Instance();
  for (TransposeMode transpose :
       {TransposeMode::kSymbolSort, TransposeMode::kFieldGather}) {
    for (const Predicate& predicate :
         {Predicate(1, CompareOp::kGt, "300"),
          Predicate(2, CompareOp::kContains, "tail1")}) {
      const auto run = [&]() -> Result<Table> {
        exec::PipelineExecutor executor;
        exec::ExecOptions options;
        options.base.schema = ChaosSchema();
        options.base.transpose_mode = transpose;
        options.predicate = predicate;
        options.partition_size = 700;
        PARPARAW_ASSIGN_OR_RETURN(exec::IngestResult out,
                                  executor.IngestBuffer(input, options));
        return std::move(out.table);
      };
      const Result<Table> reference = run();
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_GT(reference->num_rows, 0);
      const bool sort = transpose == TransposeMode::kSymbolSort;
      for (const char* site :
           {"alloc.tag", "alloc.gather", "alloc.convert",
            "exec.queue.sort.push", "exec.queue.sort.pop"}) {
        if (std::string(site) == "alloc.tag" && !sort) continue;
        if (std::string(site) == "alloc.gather" && sort) continue;
        for (int nth = 1; nth <= 4; ++nth) {
          registry.Arm(site, robust::EveryNthTrigger(nth));
          const Result<Table> faulted = run();
          const int64_t hits = registry.hits(site);
          registry.DisarmAll();
          EXPECT_GT(hits, 0) << site << " never reached";
          if (faulted.ok()) {
            ASSERT_TRUE(faulted->Equals(*reference)) << site << " n=" << nth;
            ASSERT_EQ(faulted->rejected, reference->rejected) << site;
          } else {
            ASSERT_FALSE(faulted.status().message().empty()) << site;
          }
        }
      }
    }
  }
}

// Quarantine recovery must keep working when the file was parsed under a
// runtime-compiled dialect: a ','-delimited row slips into a ';' European
// CSV, is quarantined (one giant field fails int64 conversion), and
// ReparseQuarantined splices it back by sniffing the row's own dialect.
// The sniffed-format retry must disengage the custom dialect (format and
// dialect are mutually exclusive) or the retry itself would be rejected.
TEST(ChaosTest, QuarantineRecoveryUnderCustomDialect) {
  dialect::DialectSpec euro;
  euro.name = "euro-semicolon";
  euro.field_delimiter = ';';
  euro.escape_style = dialect::EscapeStyle::kBackslash;
  euro.strict_quotes = false;

  ParseOptions options;
  options.dialect = euro;
  options.schema.AddField(Field("a", DataType::Int64()));
  options.schema.AddField(Field("b", DataType::Int64()));
  options.schema.AddField(Field("s", DataType::String()));
  options.error_policy = ErrorPolicy::kQuarantine;

  const std::string input =
      "1;10;alpha\n"
      "7,70,delta\n"  // foreign ',' row: one field under ';', bad int64
      "3;30;gamma\n";
  auto result = Parser::Parse(input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows, 3);
  ASSERT_EQ(result->quarantine.size(), 1);
  EXPECT_EQ(result->table.rejected[1], 1);

  const auto recovered = robust::ReparseQuarantined(options, &*result);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, 1);
  EXPECT_TRUE(result->quarantine.empty());
  EXPECT_EQ(result->table.NumRejected(), 0);
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(1), 7);
  EXPECT_EQ(result->table.columns[1].Value<int64_t>(1), 70);
  EXPECT_EQ(result->table.columns[2].StringValue(1), "delta");
  // Rows parsed under the custom dialect stay untouched.
  EXPECT_EQ(result->table.columns[0].Value<int64_t>(0), 1);
  EXPECT_EQ(result->table.columns[2].StringValue(2), "gamma");
}

// A fault inside the dialect compiler itself must surface as a clean error
// from every entry point, and recompile cleanly once disarmed.
TEST(ChaosTest, DialectCompileFaultsFailCleanAcrossEntryPoints) {
  const ChaosData data;
  for (const char* site : {"dialect.compile", "dialect.minimise"}) {
    for (int e = 0; e < 4; ++e) {
      Config config{static_cast<Entry>(e), true, ErrorPolicy::kNull, true};
      FailpointRegistry::Instance().Arm(site, robust::CountTrigger(1));
      const auto faulted = RunEntry(config, data);
      FailpointRegistry::Instance().DisarmAll();
      ASSERT_FALSE(faulted.ok()) << site << " entry " << e;
      EXPECT_FALSE(faulted.status().message().empty());
      const auto clean = RunEntry(config, data);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      EXPECT_GT(clean->num_rows, 0);
    }
  }
}

// Faults must not linger: a process that saw injected errors parses
// normally once every failpoint is disarmed.
TEST(ChaosTest, DisarmRestoresNormalOperation) {
  const ChaosData data;
  Config config{Entry::kParse, true, ErrorPolicy::kNull};
  FailpointRegistry::Instance().Arm("pool.task",
                                    robust::CountTrigger(1000000));
  const auto faulted = RunEntry(config, data);
  EXPECT_FALSE(faulted.ok());
  FailpointRegistry::Instance().DisarmAll();
  const auto clean = RunEntry(config, data);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->num_rows, 0);
}

}  // namespace
}  // namespace parparaw
