#ifndef PARPARAW_SERVE_SERVER_H_
#define PARPARAW_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/admission.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "serve/protocol.h"
#include "serve/socket_io.h"
#include "util/result.h"

namespace parparaw {
namespace obs {
class TraceSpan;
}  // namespace obs

namespace serve {

/// Configuration of a parparawd instance.
struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (tests, benches).
  uint16_t port = 0;
  int backlog = 64;

  /// Concurrent connections; a connection beyond the cap is answered
  /// kBusy and closed.
  int max_connections = 64;

  /// Parse/query requests admitted at once across all connections — the
  /// daemon's queue depth. At the limit, a request with a deadline waits
  /// for a slot until that deadline; any other request is shed with kBusy
  /// (the client decides whether to retry), so a saturated daemon never
  /// grows an unbounded backlog.
  int max_inflight_requests = 8;

  /// Global parse working-set budget in bytes, 0 = unlimited. Split two
  /// ways, both derived from ParseOptions::memory_budget semantics:
  /// every admitted request parses under a per-connection slice
  /// (budget / max_inflight_requests, so partitions shrink until
  /// robust::kPipelineDepth of them fit the slice), and the *sum* of
  /// resident partitions across all requests is capped by the admission
  /// controller of the one PipelineExecutor every request runs on, at
  /// kPipelineDepth partitions per request slot.
  int64_t memory_budget = 0;

  /// Hard cap on a single frame payload; larger declared lengths are
  /// protocol errors (never allocated).
  uint64_t max_payload = kDefaultMaxPayload;

  /// Default partition size for request parses (a request may override).
  size_t partition_size = 8 * 1024 * 1024;

  /// Worker pool shared by request parses; nullptr = ThreadPool::Default.
  ThreadPool* pool = nullptr;

  /// Metrics sink (serve.* taxonomy); nullptr = none.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Occupancy counters for tests and the stats endpoint.
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t requests = 0;
  int64_t busy_shed = 0;
  int64_t protocol_errors = 0;
  int64_t cancelled_disconnects = 0;
  /// Requests answered kError{kDeadlineExceeded}: shed waiting for a
  /// slot past their deadline, or cancelled mid-ingest by an expired one.
  int64_t deadline_exceeded = 0;
  /// Checksummed frames (kFlagChecksum) whose CRC-32C did not match —
  /// each one is also a protocol error and closes its connection.
  int64_t checksum_errors = 0;
  /// Requests that completed (response delivered) while draining.
  int64_t drained = 0;
  /// Requests still in flight when the drain deadline expired; they were
  /// cancelled by the final Stop().
  int64_t drain_cancelled = 0;
};

/// \brief parparawd — the parse-serving TCP daemon.
///
/// A memcached-style loop: one acceptor thread, one thread per
/// connection, length-prefixed binary frames (serve/protocol.h). Clients
/// upload delimiter-separated bytes (or name a server-local file) and
/// get back columnar results over the existing IPC framing, pushdown
/// query answers, or a stream of per-partition tables.
///
/// Multi-tenancy is real, not per-connection: every request runs on ONE
/// exec::PipelineExecutor, whose admission controller caps the global
/// number of resident partitions — and with it the working set — to
/// `memory_budget` no matter how many clients push at once. Above that
/// sit the request slots (max_inflight_requests) and per-connection
/// budget slices. A request stops only at its run's stage entries: there
/// its deadline is checked, and a client that has disconnected fails the
/// run, whose admission slots return to the pool
/// (tests/serve_concurrency_test.cc asserts the gauge drains to zero).
/// Stop() cancels every run at once through the executor's Cancel().
class Server {
 public:
  // Out-of-line: Connection is incomplete here and the members need it.
  explicit Server(ServeOptions options);
  ~Server();  // stops the daemon

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the acceptor. Returns the bound port.
  Result<uint16_t> Start();

  /// Stops accepting, cancels in-flight requests, closes every
  /// connection and joins all threads. Idempotent.
  void Stop();

  /// Graceful shutdown: stops accepting immediately, lets in-flight
  /// requests run to completion for up to `deadline_ms`, then cancels
  /// whatever is left and Stop()s. Idle connections are closed right
  /// away; a connection finishing a request closes after its response.
  /// Returns true when every in-flight request completed (none
  /// cancelled); counts land in ServerStats::drained / drain_cancelled.
  /// This is what SIGTERM does in parparawd_main (SIGINT = hard Stop).
  bool Drain(int deadline_ms);

  /// True once Drain() has begun (new parse/query requests are answered
  /// kBusy and their connections closed).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The daemon executor's partition-admission controller (tests assert
  /// its inflight count returns to zero after disconnect storms). Valid
  /// from the first Start().
  exec::AdmissionController* exec_admission() {
    return executor_->admission();
  }

  /// The queue-depth semaphore. Tests occupy slots through it to make
  /// BUSY shedding deterministic.
  exec::AdmissionController* request_admission() { return &request_slots_; }

  /// In-flight parse/query requests right now.
  int inflight_requests() const { return request_slots_.inflight(); }

  ServerStats stats() const;

 private:
  struct Connection;
  struct RequestConfig;

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  /// Handles one decoded request frame; returns false when the
  /// connection must close (protocol error or peer gone).
  bool Dispatch(Connection* conn, const FrameHeader& header,
                std::string_view payload);
  /// The one admission step of parse and query requests: decodes the
  /// payload (a malformed one is a protocol error), takes a queue-depth
  /// slot or answers kBusy / kDeadlineExceeded, then runs the handler
  /// while it holds the slot and the serve.request probe.
  bool Admit(Connection* conn, const FrameHeader& header,
             std::string_view payload);
  /// The one handler of admitted parse and query requests: resolves the
  /// input head, runs the ingest on the daemon's executor under the
  /// request deadline and a disconnect check at every stage entry, and
  /// sends the response.
  bool HandleRequest(Connection* conn, const FrameHeader& header,
                     const RequestConfig& request, obs::TraceSpan* probe);
  /// Writes one response frame. Each attempt waits at most the request's
  /// remaining deadline, or a fixed no-progress bound without one, so a
  /// client that stops reading cannot hold its request slot. A failed
  /// write counts serve.write_errors; the caller closes the connection.
  bool SendFrame(Connection* conn, Opcode opcode, uint8_t flags,
                 std::string_view payload);
  bool SendError(Connection* conn, const Status& status);
  /// Answers kBusy, the daemon's one way to shed, and counts it.
  bool Shed(Connection* conn);
  void Count(const char* name, int64_t delta);
  /// Adds `delta` to one ServerStats field and to the serve.* counter
  /// that mirrors it.
  void Tally(int64_t ServerStats::*field, const char* counter,
             int64_t delta = 1);
  /// Answers kError{kDeadlineExceeded} and bumps the stat. Returns
  /// whether the connection is still usable (a deadline is a request
  /// error, not a protocol error).
  bool SendDeadlineExceeded(Connection* conn, const std::string& what);
  /// Stops the listener and joins the acceptor (shared by Stop/Drain).
  void StopAccepting();
  /// Records one drained request when a response lands during a drain.
  void CountDrained();

  ServeOptions options_;
  uint16_t port_ = 0;
  /// Written by Stop() while AcceptLoop() reads it for accept().
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::thread acceptor_;

  /// The executor every request runs on; its admission controller holds
  /// the partitions of all requests. Made by Start(): Cancel() is
  /// one-shot and Stop() calls it.
  std::unique_ptr<exec::PipelineExecutor> executor_;
  /// Per-request admission limit fed to every ExecOptions (derived from
  /// memory_budget at Start).
  int exec_partition_limit_ = 0;
  /// Queue-depth semaphore for whole requests.
  mutable exec::AdmissionController request_slots_;

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<int> open_conns_{0};

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace serve
}  // namespace parparaw

#endif  // PARPARAW_SERVE_SERVER_H_
