// Request-lifecycle robustness suite for parparawd: deadlines (typed
// kDeadlineExceeded with admission slots provably drained), graceful
// drain, client retry with seeded backoff, connect/IO timeouts against
// stalled peers, and a kill-and-restart soak through RetryingClient.
// scripts/check.sh serve runs this file under ASan/UBSan and in the
// TSan soak.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/reader.h"
#include "obs/metrics.h"
#include "robust/failpoint.h"
#include "serve/client.h"
#include "serve/retry.h"
#include "serve/server.h"
#include "serve/socket_io.h"
#include "workload/generators.h"

namespace parparaw {
namespace serve {
namespace {

std::string SmallCsv() {
  return "id,name,score\n1,alpha,3.5\n2,beta,4.0\n3,gamma,1.25\n";
}

/// Polls until both admission gauges are back to zero (slots released
/// asynchronously when a run fails at a stage entry) and then asserts it.
void ExpectGaugesDrain(Server* server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server->inflight_requests() != 0 ||
          server->exec_admission()->inflight() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server->inflight_requests(), 0);
  EXPECT_EQ(server->exec_admission()->inflight(), 0);
}

// --- deadlines ---

TEST(ServeDeadlineTest, ExpiresWaitingForASlotWithTypedError) {
  ServeOptions options;
  options.max_inflight_requests = 1;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // Occupy the only request slot so the deadlined request can only wait.
  ASSERT_EQ(server.request_admission()->TryAcquire(1), 1);

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  RequestOptions request;
  request.deadline_ms = 60;
  const auto start = std::chrono::steady_clock::now();
  auto reply = client->Parse(SmallCsv(), request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  // It waited (no instant BUSY) but not much past the deadline.
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(60));
  // A deadline is a request error: the connection stays usable.
  EXPECT_FALSE(client->last_error_was_transport());
  EXPECT_TRUE(client->Ping().ok());

  server.request_admission()->Release();
  // Slot freed: the same request now completes.
  auto retry = client->Parse(SmallCsv(), request);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->busy);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  ExpectGaugesDrain(&server);
  server.Stop();
}

TEST(ServeDeadlineTest, ExpiresMidIngestAndReturnsEverySlot) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  // A parse that cannot finish in 1ms on any box: the deadline fires
  // inside the pipeline (at a stage entry or a partition-slot wait), and
  // the answer must still be the typed error with the slots returned.
  const std::string csv = GenerateYelpLike(41, 4 * 1024 * 1024);
  RequestOptions request;
  request.deadline_ms = 1;
  request.partition_size = 64 * 1024;
  auto reply = client->Parse(csv, request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  // A query runs on the same executor path and expires the same way.
  auto query =
      client->Query(csv, Predicate(0, CompareOp::kIsNotNull), request);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kDeadlineExceeded)
      << query.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  // Without a deadline the same parse succeeds bit-identically.
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());
  auto full = client->Parse(csv);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_TRUE(full->table.Equals(*expected));

  EXPECT_GE(server.stats().deadline_exceeded, 2);
  ExpectGaugesDrain(&server);
  server.Stop();
}

TEST(ServeDeadlineTest, FailpointForcesExpiryDeterministically) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  robust::FailpointRegistry::Instance().Arm("serve.deadline",
                                            robust::CountTrigger(1));
  auto reply = client->Parse(SmallCsv());
  robust::FailpointRegistry::Instance().DisarmAll();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(server.stats().deadline_exceeded, 1);
  // A query takes the same admission step and expires the same way.
  robust::FailpointRegistry::Instance().Arm("serve.deadline",
                                            robust::CountTrigger(1));
  auto query = client->Query(SmallCsv(), Predicate(0, CompareOp::kIsNotNull));
  robust::FailpointRegistry::Instance().DisarmAll();
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(server.stats().deadline_exceeded, 2);
  ExpectGaugesDrain(&server);
  server.Stop();
}

TEST(ServeDeadlineTest, QueryHonorsDeadlines) {
  ServeOptions options;
  options.max_inflight_requests = 1;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  ASSERT_EQ(server.request_admission()->TryAcquire(1), 1);

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  RequestOptions request;
  request.deadline_ms = 50;
  auto reply = client->Query(SmallCsv(),
                             Predicate(0, CompareOp::kIsNotNull), request);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(client->Ping().ok());
  server.request_admission()->Release();
  ExpectGaugesDrain(&server);
  server.Stop();
}

// --- graceful drain ---

TEST(ServeDrainTest, LetsInflightRequestsFinish) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string csv = GenerateTaxiLike(51, 1024 * 1024);
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());

  std::atomic<bool> parse_ok{false};
  std::thread inflight([&] {
    auto client = Client::Connect(*port);
    if (!client.ok()) return;
    auto reply = client->Parse(csv);
    parse_ok.store(reply.ok() && !reply->busy &&
                       reply->table.Equals(*expected),
                   std::memory_order_release);
  });
  // Let the request reach the daemon before draining.
  const auto admitted_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.inflight_requests() == 0 &&
         std::chrono::steady_clock::now() < admitted_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(server.inflight_requests(), 0);

  EXPECT_TRUE(server.Drain(/*deadline_ms=*/20000));
  inflight.join();
  // The in-flight parse completed bit-identically through the drain.
  EXPECT_TRUE(parse_ok.load(std::memory_order_acquire));
  EXPECT_FALSE(server.running());
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.drained, 1);
  EXPECT_EQ(stats.drain_cancelled, 0);
  // Draining stopped the listener.
  EXPECT_FALSE(Client::Connect(*port, /*connect_timeout_ms=*/200).ok());
}

TEST(ServeDrainTest, CancelsStragglersAtTheDeadline) {
  ServeOptions options;
  options.max_inflight_requests = 2;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // Occupy a request slot the drain cannot wait out: it must give up at
  // its deadline and count the straggler as cancelled.
  ASSERT_EQ(server.request_admission()->TryAcquire(2), 1);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(server.Drain(/*deadline_ms=*/100));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
  EXPECT_EQ(server.stats().drain_cancelled, 1);
  server.request_admission()->Release();
}

TEST(ServeDrainTest, NewRequestsDuringDrainAreShedBusy) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // A fresh connection: its thread is parked reading the first frame
  // header, so no post-response serve.drain check can race the Arm.
  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());

  // serve.drain failpoint: rehearse the connection-closes-after-response
  // race a real drain produces, deterministically.
  robust::FailpointRegistry::Instance().Arm("serve.drain",
                                            robust::CountTrigger(1));
  auto reply = client->Parse(SmallCsv());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();  // response first
  // ...then the daemon closed the connection: the next request fails at
  // the transport layer. The failpoint stays armed until then — the
  // connection thread only reaches its post-response check after we
  // already hold the reply, so disarming now would race it.
  ASSERT_FALSE(client->Ping().ok());
  EXPECT_TRUE(client->last_error_was_transport());
  robust::FailpointRegistry::Instance().DisarmAll();
  server.Stop();
}

TEST(ServeDrainTest, EveryStatEqualsItsServeCounter) {
  // Each ServerStats field is bumped together with the serve.* counter
  // that mirrors it. Move every field, then compare each pair.
  // (cancelled_disconnects is compared by ServeConcurrencyTest.
  // CancelOnDisconnectReleasesAdmissionSlots.)
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.max_inflight_requests = 2;
  options.metrics = &metrics;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());
  exec::AdmissionController* slots = server.request_admission();

  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());

  // A shed: every request slot is taken.
  ASSERT_EQ(slots->TryAcquire(2), 1);
  ASSERT_EQ(slots->TryAcquire(2), 2);
  auto shed = client->Parse(SmallCsv());
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_TRUE(shed->busy);
  slots->Release(2);

  // A deadline forced at admission.
  robust::FailpointRegistry::Instance().Arm("serve.deadline",
                                            robust::CountTrigger(1));
  auto expired = client->Parse(SmallCsv());
  robust::FailpointRegistry::Instance().DisarmAll();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // A frame that does not decode, then one whose checksum does not match:
  // two protocol errors, one of them a checksum error.
  std::string corrupt;
  AppendFrame(Opcode::kPing, kFlagChecksum, "ping", &corrupt);
  corrupt[kFrameHeaderSize] ^= 0x01;
  for (const std::string& frame :
       {std::string(kFrameHeaderSize, 'G'), corrupt}) {
    auto sock = ConnectLoopback(*port);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(SendAll(sock->fd(), frame).ok());
    FrameHeader header;
    ASSERT_TRUE(ReadFrameHeader(sock->fd(), kDefaultMaxPayload, &header).ok());
    EXPECT_EQ(header.opcode, Opcode::kError);
  }

  // A drain that one request completes through and one slot outlives. The
  // test holds the other request slot, and more partition slots than the
  // daemon admits (4 per request slot), so the parse stays in flight
  // until the drain has begun.
  constexpr int kHeldPartitions = 64;
  ASSERT_EQ(slots->TryAcquire(2), 1);
  for (int i = 0; i < kHeldPartitions; ++i) {
    ASSERT_GT(server.exec_admission()->TryAcquire(kHeldPartitions), 0);
  }
  std::atomic<bool> parsed{false};
  std::thread inflight([&] {
    auto drained = Client::Connect(*port);
    if (!drained.ok()) return;
    auto reply = drained->Parse(SmallCsv());
    parsed.store(reply.ok() && !reply->busy, std::memory_order_release);
  });
  const auto admitted_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.inflight_requests() < 2 &&
         std::chrono::steady_clock::now() < admitted_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.inflight_requests(), 2);
  bool clean = true;
  std::thread drain([&] { clean = server.Drain(/*deadline_ms=*/1000); });
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.exec_admission()->Release(kHeldPartitions);
  inflight.join();
  drain.join();
  slots->Release();
  EXPECT_TRUE(parsed.load(std::memory_order_acquire));
  EXPECT_FALSE(clean);

  const ServerStats stats = server.stats();
  const struct {
    int64_t field;
    const char* counter;
    int64_t expected;
  } mirrored[] = {
      // The client, two raw sockets, and the drained parse's client.
      {stats.connections_accepted, "serve.accepted", 4},
      // The ping and the three parses; undecodable frames are no request.
      {stats.requests, "serve.requests", 4},
      {stats.busy_shed, "serve.busy", 1},
      {stats.protocol_errors, "serve.protocol_errors", 2},
      {stats.checksum_errors, "serve.checksum_errors", 1},
      {stats.deadline_exceeded, "serve.deadline_exceeded", 1},
      {stats.drained, "serve.drained", 1},
      {stats.drain_cancelled, "serve.drain_cancelled", 1},
      {stats.cancelled_disconnects, "serve.cancelled_disconnects", 0},
  };
  for (const auto& stat : mirrored) {
    EXPECT_EQ(stat.field, stat.expected) << stat.counter;
    EXPECT_EQ(stat.field, metrics.GetCounter(stat.counter)->Value())
        << stat.counter;
  }
}

// --- retry policy ---

TEST(ServeRetryTest, BusyStormConvergesBitIdenticalThroughRetries) {
  // Acceptance: a seeded kBusy storm against a 1-slot daemon, driven
  // through RetryPolicy, converges to responses bit-identical with a
  // direct Reader — and the sheds are visible in the retry stats, not
  // double-counted as completed requests.
  ServeOptions options;
  options.max_inflight_requests = 1;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string csv = GenerateLogLike(61, 128 * 1024);
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());

  // Hold the only slot briefly so every client's first attempt sheds.
  ASSERT_EQ(server.request_admission()->TryAcquire(1), 1);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.request_admission()->Release();
  });

  constexpr int kClients = 4;
  std::vector<RetryStats> stats(kClients);
  // NOT vector<bool>: each worker writes its own element concurrently,
  // and vector<bool>'s packed bits would make that a data race.
  std::vector<char> identical(kClients, 0);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      RetryPolicy policy;
      policy.seed = 100 + static_cast<uint64_t>(c);
      policy.max_attempts = 32;
      policy.base_delay_us = 2'000;
      policy.max_delay_us = 100'000;
      policy.budget_us = 30'000'000;
      RetryingClient client(*port, policy);
      auto reply = client.Parse(csv);
      identical[static_cast<size_t>(c)] =
          reply.ok() && !reply->busy && reply->table.Equals(*expected);
      stats[static_cast<size_t>(c)] = client.stats();
    });
  }
  for (std::thread& worker : workers) worker.join();
  releaser.join();

  int64_t total_sheds = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(identical[static_cast<size_t>(c)]) << "client " << c;
    // Counted once as a logical request, attempts >= 1.
    EXPECT_EQ(stats[static_cast<size_t>(c)].requests, 1);
    EXPECT_GE(stats[static_cast<size_t>(c)].attempts, 1);
    EXPECT_EQ(stats[static_cast<size_t>(c)].exhausted, 0);
    total_sheds += stats[static_cast<size_t>(c)].busy_sheds;
  }
  // The 150ms hold guarantees first attempts shed.
  EXPECT_GT(total_sheds, 0);
  EXPECT_GT(server.stats().busy_shed, 0);
  ExpectGaugesDrain(&server);
  server.Stop();
}

TEST(ServeRetryTest, SameSeedReplaysTheSameBackoffSchedule) {
  RetryPolicy policy;
  policy.seed = 12345;
  // Two clients pointed at a dead port: every connect fails, so the
  // whole schedule is backoff sleeps. Same seed => same total sleep.
  policy.connect_timeout_ms = 1;
  policy.max_attempts = 5;
  policy.base_delay_us = 100;
  policy.max_delay_us = 1000;
  RetryingClient a(1, policy);  // port 1: nothing listens there
  RetryingClient b(1, policy);
  EXPECT_FALSE(a.Ping().ok());
  EXPECT_FALSE(b.Ping().ok());
  EXPECT_EQ(a.stats().backoff_us, b.stats().backoff_us);
  EXPECT_EQ(a.stats().attempts, b.stats().attempts);
  EXPECT_EQ(a.stats().exhausted, 1);
  EXPECT_EQ(b.stats().exhausted, 1);

  policy.seed = 54321;
  RetryingClient c(1, policy);
  EXPECT_FALSE(c.Ping().ok());
  // Overwhelmingly likely to differ with another seed.
  EXPECT_NE(c.stats().backoff_us, a.stats().backoff_us);
}

TEST(ServeRetryTest, ServerReportedRequestErrorsAreNeverRetried) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  RetryPolicy policy;
  RetryingClient client(*port, policy);
  auto reply = client.ParseFile("/nonexistent/parparaw.csv");
  ASSERT_FALSE(reply.ok());
  // Exactly one wire attempt: the daemon said no, retrying cannot help.
  EXPECT_EQ(client.stats().attempts, 1);
  EXPECT_EQ(client.stats().busy_sheds, 0);
  EXPECT_EQ(client.stats().transport_retries, 0);
  server.Stop();
}

TEST(ServeRetryTest, NonIdempotentRequestsStopAtTransportErrors) {
  ServeOptions options;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  RetryPolicy policy;
  policy.checksums = true;
  RetryingClient client(*port, policy);
  // Corrupt the daemon's response (AppendFrame hit 2): a transport
  // error after the request may have executed. idempotent=false must
  // surface it instead of re-executing.
  RequestOptions request;
  request.idempotent = false;
  robust::FailpointRegistry::Instance().Arm("serve.corrupt",
                                            robust::EveryNthTrigger(2));
  auto reply = client.Parse(SmallCsv(), request);
  robust::FailpointRegistry::Instance().DisarmAll();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(client.stats().attempts, 1);
  EXPECT_EQ(client.stats().transport_retries, 0);
  server.Stop();
}

// --- connect/IO timeouts against stalled peers ---

TEST(ServeTimeoutTest, ConnectTimesOutAgainstAFullAcceptQueue) {
  // Regression: Client::Connect used to block indefinitely when the
  // daemon's accept loop stalled. A listener that never accepts fills
  // its backlog; once full, further SYNs get no answer and a timeout-
  // less connect would hang in kernel retries.
  uint16_t port = 0;
  auto listener = ListenLoopback(0, /*backlog=*/1, &port);
  ASSERT_TRUE(listener.ok());
  Socket listen_sock(*listener);  // closes on scope exit; never accepts

  std::vector<Client> queued;
  bool timed_out = false;
  for (int i = 0; i < 32 && !timed_out; ++i) {
    auto client = Client::Connect(port, /*connect_timeout_ms=*/300);
    if (client.ok()) {
      queued.push_back(std::move(*client));  // keep the queue slot used
      continue;
    }
    EXPECT_EQ(client.status().code(), StatusCode::kDeadlineExceeded)
        << client.status().ToString();
    timed_out = true;
  }
  EXPECT_TRUE(timed_out) << "accept queue never filled";
}

TEST(ServeTimeoutTest, IoTimeoutFiresAgainstAStalledServer) {
  // A "server" that accepts and then never reads or writes: without an
  // I/O timeout the client's recv blocks forever.
  uint16_t port = 0;
  auto listener = ListenLoopback(0, /*backlog=*/4, &port);
  ASSERT_TRUE(listener.ok());
  const int listen_fd = *listener;
  std::atomic<bool> stop{false};
  Socket held;
  std::thread acceptor([&] {
    auto accepted = AcceptConnection(listen_fd);
    if (accepted.ok()) held = std::move(*accepted);
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  auto client = Client::Connect(port, /*connect_timeout_ms=*/1000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  client->set_io_timeout_ms(100);
  const auto start = std::chrono::steady_clock::now();
  const Status ping = client->Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_EQ(ping.code(), StatusCode::kDeadlineExceeded)
      << ping.ToString();
  EXPECT_TRUE(client->last_error_was_transport());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));

  stop.store(true, std::memory_order_release);
  acceptor.join();
  Socket(listen_fd).Close();
}

TEST(ServeTimeoutTest, StalledReaderGivesItsSlotBackByTheDeadline) {
  // A client that sends a parse and never reads the reply: the daemon's
  // response write must give up by the request's deadline and return the
  // only request slot, instead of holding it until Stop().
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.max_inflight_requests = 1;
  options.metrics = &metrics;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  // A table response far larger than the two socket buffers can park.
  constexpr uint32_t kDeadlineMs = 3000;
  RequestHeader header;
  header.deadline_ms = kDeadlineMs;
  std::string payload = EncodeRequestHeader(header);
  payload.append(GenerateTaxiLike(81, 8 * 1024 * 1024));
  std::string frame;
  AppendFrame(Opcode::kParseBuffer, 0, payload, &frame);

  auto stalled = ConnectLoopback(*port);
  ASSERT_TRUE(stalled.ok());
  const int rcvbuf = 4096;
  ::setsockopt(stalled->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(SendAll(stalled->fd(), frame).ok());

  const auto write_errors = [&] {
    obs::Counter* counter = metrics.GetCounter("serve.write_errors");
    return counter != nullptr ? counter->Value() : 0;
  };
  const auto limit = start + std::chrono::milliseconds(kDeadlineMs) +
                     std::chrono::seconds(3);
  while ((write_errors() == 0 || server.inflight_requests() != 0) &&
         std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The response stalled and its write expired: no deadline error was
  // answered, and the slot is back.
  EXPECT_EQ(write_errors(), 1);
  EXPECT_EQ(server.stats().deadline_exceeded, 0);
  EXPECT_EQ(server.inflight_requests(), 0);

  // The daemon serves the next client with its one slot.
  auto client = Client::Connect(*port);
  ASSERT_TRUE(client.ok());
  auto reply = client->Parse(SmallCsv());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->busy);
  ExpectGaugesDrain(&server);
  stalled->Close();
  server.Stop();
}

// --- kill-and-restart soak through the retrying client ---

TEST(ServeRetryTest, DaemonRestartIsInvisibleThroughRetries) {
  const std::string csv = GenerateYelpLike(71, 64 * 1024);
  auto expected = Reader::FromBuffer(csv).Read();
  ASSERT_TRUE(expected.ok());

  ServeOptions options;
  auto server = std::make_unique<Server>(options);
  auto port = server->Start();
  ASSERT_TRUE(port.ok());
  const uint16_t fixed_port = *port;

  RetryPolicy policy;
  policy.seed = 777;
  policy.max_attempts = 20;
  policy.base_delay_us = 5'000;
  policy.max_delay_us = 200'000;
  policy.budget_us = 60'000'000;
  policy.io_timeout_ms = 10'000;
  policy.checksums = true;
  RetryingClient client(fixed_port, policy);

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      auto reply = client.Parse(csv);
      ASSERT_TRUE(reply.ok())
          << "round " << round << " parse " << i << ": "
          << reply.status().ToString();
      ASSERT_FALSE(reply->busy);
      EXPECT_TRUE(reply->table.Equals(*expected));
    }
    if (round == 2) break;
    // Kill (gracefully drain) and restart on the same port; SO_REUSEADDR
    // makes the rebind immediate.
    EXPECT_TRUE(server->Drain(/*deadline_ms=*/10000));
    server = std::make_unique<Server>([&] {
      ServeOptions restarted;
      restarted.port = fixed_port;
      return restarted;
    }());
    auto reborn = server->Start();
    ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
    ASSERT_EQ(*reborn, fixed_port);
  }
  // The restarts cost reconnects, never failed logical requests.
  EXPECT_GE(client.stats().reconnects, 2);
  EXPECT_EQ(client.stats().exhausted, 0);
  EXPECT_EQ(client.stats().requests, 9);
  server->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace parparaw
