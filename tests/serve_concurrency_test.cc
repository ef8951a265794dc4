// Loopback soak and multi-tenancy suite for parparawd (src/serve).
//
// Built to run under TSan (scripts/check.sh serve): N concurrent clients
// mix uploads, queries, streaming parses and abrupt disconnects against
// one daemon. Asserts the three serving invariants:
//   1. every served result is bit-identical to a direct Reader parse;
//   2. queue-depth shedding answers BUSY deterministically at the
//      admission limit and the connection stays usable;
//   3. cancel-on-disconnect releases every admission slot — the shared
//      exec controller and the request semaphore both drain to zero, and
//      the serve.inflight_requests gauge follows.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/reader.h"
#include "obs/metrics.h"
#include "query/pushdown.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket_io.h"
#include "workload/generators.h"
#include "workload/request_stream.h"

namespace parparaw {
namespace serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Polls `cond` for up to `limit_ms`; true when it became true.
bool WaitFor(const std::function<bool()>& cond, int limit_ms) {
  const auto deadline = steady_clock::now() + milliseconds(limit_ms);
  while (steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return cond();
}

struct Dataset {
  std::string bytes;
  Table expected;
  Table query_expected;
  int64_t query_scanned = 0;
  int64_t query_selected = 0;
};

Predicate SoakPredicate() { return Predicate(0, CompareOp::kIsNotNull); }

std::vector<Dataset> MakeDatasets() {
  std::vector<Dataset> datasets;
  std::vector<std::string> raw = {
      GenerateYelpLike(1, 32 * 1024),
      GenerateTaxiLike(2, 32 * 1024),
      GenerateLineitemLike(3, 32 * 1024),
      GenerateTaxiLike(4, 48 * 1024),
  };
  for (std::string& bytes : raw) {
    Dataset dataset;
    dataset.bytes = std::move(bytes);
    auto expected = Reader::FromBuffer(dataset.bytes).Read();
    EXPECT_TRUE(expected.ok()) << expected.status().ToString();
    dataset.expected = std::move(*expected);

    LoadOptions load;
    load.collect_statistics = false;
    LoadResult resolution;
    auto base =
        BulkLoader::ResolveBaseOptions(dataset.bytes, false, load, &resolution);
    EXPECT_TRUE(base.ok());
    base->column_count_policy = ColumnCountPolicy::kRobust;
    PushdownStats stats;
    auto query = ParseWithPushdown(dataset.bytes, *base, SoakPredicate(),
                                   &stats);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    dataset.query_expected = std::move(query->table);
    dataset.query_scanned = stats.records_scanned;
    dataset.query_selected = stats.records_selected;
    datasets.push_back(std::move(dataset));
  }
  return datasets;
}

TEST(ServeConcurrencyTest, SoakMixedClientsBitIdentical) {
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.max_inflight_requests = 4;
  options.memory_budget = 64 * 1024 * 1024;
  options.partition_size = 16 * 1024;
  options.metrics = &metrics;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::vector<Dataset> datasets = MakeDatasets();
  ASSERT_FALSE(::testing::Test::HasFailure());

  constexpr int kWorkers = 6;
  constexpr int kIterations = 20;
  std::atomic<int> busy_retries{0};
  std::atomic<int> failures{0};
  std::vector<std::string> errors(kWorkers);

  auto worker = [&](int id) {
    RequestStream::Options stream_options;
    stream_options.seed = 1000 + id;
    stream_options.num_datasets = datasets.size();
    RequestStream stream(stream_options);
    auto fail = [&](const std::string& what) {
      errors[id] = what;
      failures.fetch_add(1);
    };
    for (int i = 0; i < kIterations; ++i) {
      const Request request = stream.Next();
      const Dataset& dataset = datasets[request.dataset];
      auto client = Client::Connect(*port);
      if (!client.ok()) return fail(client.status().ToString());

      if (request.kind == RequestKind::kPing) {
        const Status pinged = client->Ping();
        if (!pinged.ok()) return fail(pinged.ToString());
        continue;
      }
      // Abrupt-disconnect mix: fire a parse and vanish mid-request.
      if (i % 7 == 3) {
        RequestOptions abandoned;
        abandoned.partition_size = 4 * 1024;
        std::string payload =
            EncodeRequestHeader(RequestHeader{});
        payload.append(dataset.bytes);
        std::string frame;
        AppendFrame(Opcode::kParseBuffer, 0, payload, &frame);
        (void)SendAll(client->fd(), frame);
        client->Close();
        continue;
      }

      if (request.kind == RequestKind::kQuery) {
        for (int attempt = 0; attempt < 50; ++attempt) {
          auto reply = client->Query(dataset.bytes, SoakPredicate());
          if (!reply.ok()) return fail(reply.status().ToString());
          if (reply->busy) {
            busy_retries.fetch_add(1);
            std::this_thread::sleep_for(milliseconds(2));
            continue;
          }
          if (reply->records_scanned != dataset.query_scanned ||
              reply->records_selected != dataset.query_selected ||
              !reply->table.Equals(dataset.query_expected)) {
            return fail("query result diverged from local pushdown");
          }
          break;
        }
        continue;
      }

      RequestOptions parse_options;
      parse_options.stream = request.kind == RequestKind::kStreamParse;
      if (parse_options.stream) parse_options.partition_size = 8 * 1024;
      for (int attempt = 0; attempt < 50; ++attempt) {
        auto reply = client->Parse(dataset.bytes, parse_options);
        if (!reply.ok()) return fail(reply.status().ToString());
        if (reply->busy) {
          busy_retries.fetch_add(1);
          std::this_thread::sleep_for(milliseconds(2));
          continue;
        }
        if (parse_options.stream) {
          int64_t rows = 0;
          for (const Table& part : reply->parts) rows += part.num_rows;
          if (rows != dataset.expected.num_rows) {
            return fail("streamed row count diverged");
          }
        } else if (!reply->table.Equals(dataset.expected)) {
          return fail("served table diverged from local Reader");
        }
        break;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (int id = 0; id < kWorkers; ++id) threads.emplace_back(worker, id);
  for (std::thread& thread : threads) thread.join();

  for (int id = 0; id < kWorkers; ++id) {
    EXPECT_TRUE(errors[id].empty()) << "worker " << id << ": " << errors[id];
  }
  EXPECT_EQ(failures.load(), 0);

  // Slot-leak check: every admission slot (request semaphore AND the
  // shared exec partition controller) must drain once the storm ends —
  // including the slots held by the abandoned-disconnect requests.
  EXPECT_TRUE(WaitFor([&] { return server.inflight_requests() == 0; }, 10000));
  EXPECT_TRUE(
      WaitFor([&] { return server.exec_admission()->inflight() == 0; }, 10000));
  EXPECT_TRUE(WaitFor(
      [&] {
        obs::Gauge* gauge = metrics.GetGauge("serve.inflight_requests");
        return gauge == nullptr || gauge->Value() == 0;
      },
      10000));

  const ServerStats stats = server.stats();
  EXPECT_GT(stats.requests, 0);
  server.Stop();
}

TEST(ServeConcurrencyTest, BusyShedIsDeterministicAtQueueDepthLimit) {
  ServeOptions options;
  options.max_inflight_requests = 2;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // Occupy the whole queue depth from the outside.
  ASSERT_GT(server.request_admission()->TryAcquire(2), 0);
  ASSERT_GT(server.request_admission()->TryAcquire(2), 0);
  ASSERT_EQ(server.request_admission()->TryAcquire(2), -1);

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  auto reply = client->Parse("a,b\n1,2\n");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->busy);
  EXPECT_GE(server.stats().busy_shed, 1);
  // A query takes the same admission step and is shed the same way.
  auto query = client->Query("a,b\n1,2\n", Predicate(0, CompareOp::kIsNotNull));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE(query->busy);
  EXPECT_EQ(server.stats().busy_shed, 2);
  // BUSY is shedding, not punishment: the connection still works, and
  // ping (no admission needed) answers even at the limit.
  EXPECT_TRUE(client->Ping().ok());

  server.request_admission()->Release(2);
  auto retry = client->Parse("a,b\n1,2\n");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->busy);
  EXPECT_EQ(retry->table.num_rows, 1);
  server.Stop();
}

TEST(ServeConcurrencyTest, ConnectionCapShedsWithBusyFrame) {
  ServeOptions options;
  options.max_connections = 1;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto first = Client::Connect(*port);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Ping().ok());  // fully established

  auto second = ConnectLoopback(*port);
  ASSERT_TRUE(second.ok());
  std::string header_bytes;
  ASSERT_TRUE(RecvExact(second->fd(), kFrameHeaderSize, &header_bytes).ok());
  auto header = DecodeFrameHeader(header_bytes, kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->opcode, Opcode::kBusy);
  // ... and the daemon closed it.
  std::string rest;
  bool eof = false;
  ASSERT_TRUE(RecvExact(second->fd(), 1, &rest, &eof).ok());
  EXPECT_TRUE(eof);

  // Freeing the slot restores service.
  first->Close();
  EXPECT_TRUE(WaitFor(
      [&] {
        auto retry = Client::Connect(*port);
        return retry.ok() && retry->Ping().ok();
      },
      5000));
  server.Stop();
}

TEST(ServeConcurrencyTest, CancelOnDisconnectReleasesAdmissionSlots) {
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.metrics = &metrics;
  options.partition_size = 8 * 1024;  // long-running: many partitions
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string big = GenerateTaxiLike(99, 2 * 1024 * 1024);
  std::string payload = EncodeRequestHeader(RequestHeader{});
  payload.append(big);
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, 0, payload, &frame);

  for (int round = 0; round < 3; ++round) {
    auto sock = ConnectLoopback(*port);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(SendAll(sock->fd(), frame).ok());
    sock->Close();  // vanish without reading a byte of the response
  }

  // Each request's next stage entry must notice its disconnect and fail
  // the run.
  EXPECT_TRUE(WaitFor(
      [&] { return server.stats().cancelled_disconnects >= 3; }, 15000))
      << "cancelled " << server.stats().cancelled_disconnects << " of 3";
  // Cancelled requests return every slot they held.
  EXPECT_TRUE(WaitFor([&] { return server.inflight_requests() == 0; }, 10000));
  EXPECT_TRUE(
      WaitFor([&] { return server.exec_admission()->inflight() == 0; }, 10000));
  EXPECT_TRUE(WaitFor(
      [&] {
        obs::Gauge* gauge = metrics.GetGauge("serve.inflight_requests");
        return gauge != nullptr && gauge->Value() == 0;
      },
      10000));

  // The daemon serves the same bytes correctly afterwards.
  auto expected = Reader::FromBuffer(big).Read();
  ASSERT_TRUE(expected.ok());
  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  auto reply = client->Parse(big);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->table.Equals(*expected));
  server.Stop();
  EXPECT_EQ(server.stats().cancelled_disconnects,
            metrics.GetCounter("serve.cancelled_disconnects")->Value());
}

// A query degrades under its budget slice like a parse: 8 MiB over 8 slots
// leaves each request 1 MiB, so the 512 KiB query runs on partitions that
// fit it instead of being refused, and answers a whole-input pushdown.
TEST(ServeConcurrencyTest, QueryDegradesUnderItsBudgetSlice) {
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.memory_budget = 8 * 1024 * 1024;
  options.max_inflight_requests = 8;
  options.metrics = &metrics;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  const std::string csv = GenerateTaxiLike(8, 512 * 1024);
  const Predicate predicate(0, CompareOp::kGt, "1");
  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  auto reply = client->Query(csv, predicate);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply->busy);

  LoadOptions load;
  load.collect_statistics = false;
  LoadResult resolution;
  auto base = BulkLoader::ResolveBaseOptions(csv, false, load, &resolution);
  ASSERT_TRUE(base.ok());
  base->column_count_policy = ColumnCountPolicy::kRobust;
  PushdownStats stats;
  auto local = ParseWithPushdown(csv, *base, predicate, &stats);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(reply->records_scanned, stats.records_scanned);
  EXPECT_EQ(reply->records_selected, stats.records_selected);
  EXPECT_TRUE(reply->table.Equals(local->table));
  EXPECT_GT(metrics.GetCounter("exec.partitions")->Value(), 1);
  server.Stop();
}

// A query's client that vanishes mid-ingest is noticed at the run's next
// stage entry: the run fails and every admission slot returns.
TEST(ServeConcurrencyTest, QueryCancelOnDisconnectReleasesAdmissionSlots) {
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.metrics = &metrics;
  options.partition_size = 8 * 1024;  // long-running: many partitions
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string big = GenerateTaxiLike(98, 2 * 1024 * 1024);
  std::string payload = EncodeRequestHeader(RequestHeader{});
  payload.append(EncodePredicateBlock(SoakPredicate()));
  payload.append(big);
  std::string frame;
  AppendFrame(Opcode::kQueryBuffer, 0, payload, &frame);

  for (int round = 0; round < 3; ++round) {
    auto sock = ConnectLoopback(*port);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(SendAll(sock->fd(), frame).ok());
    sock->Close();  // vanish without reading a byte of the response
  }

  EXPECT_TRUE(WaitFor(
      [&] { return server.stats().cancelled_disconnects >= 3; }, 15000))
      << "cancelled " << server.stats().cancelled_disconnects << " of 3";
  EXPECT_TRUE(WaitFor([&] { return server.inflight_requests() == 0; }, 10000));
  EXPECT_TRUE(
      WaitFor([&] { return server.exec_admission()->inflight() == 0; }, 10000));
  EXPECT_TRUE(WaitFor(
      [&] {
        obs::Gauge* gauge = metrics.GetGauge("serve.inflight_requests");
        return gauge != nullptr && gauge->Value() == 0;
      },
      10000));
  server.Stop();
  EXPECT_EQ(server.stats().cancelled_disconnects,
            metrics.GetCounter("serve.cancelled_disconnects")->Value());
}

TEST(ServeConcurrencyTest, StopWhileRequestsInFlightJoinsCleanly) {
  ServeOptions options;
  options.partition_size = 8 * 1024;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string big = GenerateYelpLike(5, 1024 * 1024);
  std::string payload = EncodeRequestHeader(RequestHeader{});
  payload.append(big);
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, 0, payload, &frame);

  std::vector<Result<Socket>> socks;
  for (int i = 0; i < 4; ++i) {
    socks.push_back(ConnectLoopback(*port));
    ASSERT_TRUE(socks.back().ok());
    ASSERT_TRUE(SendAll(socks.back()->fd(), frame).ok());
  }
  // Stop with the parses mid-flight: must cancel, join, not hang.
  server.Stop();
  EXPECT_EQ(server.exec_admission()->inflight(), 0);
  EXPECT_EQ(server.inflight_requests(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace parparaw
