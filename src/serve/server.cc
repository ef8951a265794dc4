#include "serve/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "columnar/ipc.h"
#include "exec/executor.h"
#include "io/file.h"
#include "loader/bulk_loader.h"
#include "obs/obs.h"
#include "robust/failpoint.h"
#include "robust/resource_guard.h"

namespace parparaw {
namespace serve {

namespace {

/// Returns the queue-depth slot on every exit path and keeps the
/// serve.inflight_requests gauge honest (it must drain to zero).
class SlotReturn {
 public:
  SlotReturn(exec::AdmissionController* slots,
             obs::MetricsRegistry* metrics)
      : slots_(slots), metrics_(metrics) {}
  ~SlotReturn() {
    const int now = slots_->Release();
    obs::SetGauge(metrics_, "serve.inflight_requests", now);
  }
  SlotReturn(const SlotReturn&) = delete;
  SlotReturn& operator=(const SlotReturn&) = delete;

 private:
  exec::AdmissionController* slots_;
  obs::MetricsRegistry* metrics_;
};

/// How long one attempt of a frame write may wait for the client to read
/// when the request has no deadline. A client that stops reading gives
/// its request slot back after this long without progress.
constexpr int kSendStallMs = 10'000;

/// The per-attempt bound of a daemon frame write: the time left before
/// the request's deadline (none left = no wait), at most kSendStallMs.
int SendTimeoutMs(std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    return kSendStallMs;
  }
  const int64_t left = std::chrono::duration_cast<std::chrono::milliseconds>(
                           deadline - std::chrono::steady_clock::now())
                           .count();
  return static_cast<int>(std::clamp<int64_t>(left, 0, kSendStallMs));
}

}  // namespace

/// One accepted connection: its socket, its thread and what the frame
/// being answered asked of every response frame.
struct Server::Connection {
  Socket sock;
  std::thread thread;
  std::atomic<bool> done{false};
  /// True while a request frame is being served; Drain() closes only
  /// idle connections and lets these finish their response.
  std::atomic<bool> in_request{false};
  /// Whether the frame being answered declared kFlagChecksum, which every
  /// response frame mirrors. Each decoded header sets it and a header that
  /// does not decode clears it (connection thread only).
  bool checksum = false;
  /// The deadline of the request being answered (max() = none), which
  /// bounds each attempt of its frame writes. Each decoded header resets
  /// it and an admitted request sets it (connection thread only).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

Server::Server(ServeOptions options) : options_(options) {}

Server::~Server() { Stop(); }

Result<uint16_t> Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Invalid("server already running");
  }
  if (options_.max_inflight_requests <= 0) {
    return Status::Invalid("max_inflight_requests must be positive");
  }
  if (options_.max_connections <= 0) {
    return Status::Invalid("max_connections must be positive");
  }
  if (options_.partition_size == 0) {
    return Status::Invalid("partition size must be positive");
  }

  // Derive the shared partition-admission limit once: how many resident
  // partitions the whole daemon may hold. Each request's partitions are
  // already clamped to its per-connection budget slice, so the limit is
  // the global budget divided by one sliced partition's working set:
  // robust::kPipelineDepth partitions per request slot once the clamp
  // binds.
  ParseOptions probe;
  const int64_t factor = ParseWorkingSetFactor(probe);
  if (options_.memory_budget > 0) {
    const int64_t slice =
        options_.memory_budget / options_.max_inflight_requests;
    const int64_t sliced_partition = robust::ClampPartitionSizeForBudget(
        static_cast<int64_t>(options_.partition_size), slice,
        /*floor_bytes=*/256, factor);
    const int64_t per_partition = std::max<int64_t>(
        1, robust::EstimateParseMemory(sliced_partition, factor));
    exec_partition_limit_ = static_cast<int>(std::max<int64_t>(
        1, options_.memory_budget / per_partition));
  } else {
    // Unbudgeted: one pipeline's worth of slots per admissible request.
    exec_partition_limit_ = static_cast<int>(robust::kPipelineDepth) *
                            options_.max_inflight_requests;
  }

  // Cancel() is one-shot, so every start gets a fresh executor.
  executor_ = std::make_unique<exec::PipelineExecutor>();
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  PARPARAW_ASSIGN_OR_RETURN(
      int listen_fd, ListenLoopback(options_.port, options_.backlog, &port_));
  listen_fd_.store(listen_fd, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void Server::StopAccepting() {
  // Shutting down the listener kicks the acceptor out of accept();
  // the fd is only closed once the acceptor has been joined so the
  // close cannot race an in-flight accept (fd reuse).
  {
    const int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) Socket(listen_fd).Close();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Requests parked in a deadline-aware admission wait must observe
  // stopping_ now, not at their deadline.
  request_slots_.Wake();
  StopAccepting();
  // Cancel every in-flight request at its next stage entry (each run's
  // abort also wakes its partition-slot wait), then unblock and join
  // every connection.
  executor_->Cancel();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    // Wake a blocked recv or send without closing: the connection thread
    // owns the fd's close (a concurrent close would race the recv).
    conn->sock.Shutdown();
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

bool Server::Drain(int deadline_ms) {
  if (!running_.load(std::memory_order_acquire)) return true;
  if (!draining_.exchange(true, std::memory_order_acq_rel)) {
    Count("serve.drain", 1);
    StopAccepting();
    // Deadline-waiters parked in AcquireFor shed now instead of burning
    // their remaining deadline against a server that will not admit.
    request_slots_.Wake();
    // Nudge idle connections out of their header recv; a connection
    // serving a request closes itself right after its response.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (!conn->in_request.load(std::memory_order_acquire)) {
        conn->sock.Shutdown();
      }
    }
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (inflight_requests() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int remaining = inflight_requests();
  if (remaining > 0) {
    Tally(&ServerStats::drain_cancelled, "serve.drain_cancelled", remaining);
  }
  Stop();
  return remaining == 0;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Server::Count(const char* name, int64_t delta) {
  obs::AddCount(options_.metrics, name, delta);
}

void Server::Tally(int64_t ServerStats::*field, const char* counter,
                   int64_t delta) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.*field += delta;
  }
  Count(counter, delta);
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    Result<Socket> accepted =
        AcceptConnection(listen_fd_.load(std::memory_order_acquire));
    // Reap finished connections so a churny client (the fuzz suite's
    // 10k+ one-shot connections) does not accumulate joinable threads.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& conn : conns_) {
        if (conn->done.load(std::memory_order_acquire) &&
            conn->thread.joinable()) {
          conn->thread.join();
        }
      }
      conns_.erase(
          std::remove_if(conns_.begin(), conns_.end(),
                         [](const std::unique_ptr<Connection>& c) {
                           return c->done.load(std::memory_order_acquire) &&
                                  !c->thread.joinable();
                         }),
          conns_.end());
    }
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire) ||
          draining_.load(std::memory_order_acquire)) {
        return;
      }
      Count("serve.accept_errors", 1);
      // An injected serve.accept fault or a transient accept error must
      // not kill the daemon; keep listening.
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(*accepted);
    if (open_conns_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Over the connection cap: one BUSY frame, then the door.
      (void)Shed(conn.get());
      continue;  // the socket closes with conn
    }
    Connection* raw = conn.get();
    open_conns_.fetch_add(1, std::memory_order_acq_rel);
    obs::SetGauge(options_.metrics, "serve.connections",
                  open_conns_.load(std::memory_order_acquire));
    Tally(&ServerStats::connections_accepted, "serve.accepted");
    conn->thread = std::thread([this, raw] { ConnectionLoop(raw); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void Server::ConnectionLoop(Connection* conn) {
  while (!stopping_.load(std::memory_order_acquire)) {
    FrameHeader header;
    bool eof = false;
    FrameRead read =
        ReadFrameHeader(conn->sock.fd(), options_.max_payload, &header, &eof);
    if (eof) break;  // orderly disconnect
    if (read.fault == FrameFault::kReceive) {
      if (!stopping_.load(std::memory_order_acquire)) {
        Count("serve.read_errors", 1);
      }
      break;  // mid-header truncation, or shutdown
    }
    conn->checksum = read.ok() && (header.flags & kFlagChecksum) != 0;
    conn->deadline = std::chrono::steady_clock::time_point::max();
    if (read.ok() && !IsRequestOpcode(header.opcode)) {
      read = {FrameFault::kDecode,
              Status::Invalid("opcode " +
                              std::to_string(static_cast<int>(header.opcode)) +
                              " is not a request")};
    }
    if (!read.ok()) {
      // Unframeable garbage: answer (best-effort) and close — there is
      // no way to resynchronise a length-prefixed stream.
      Tally(&ServerStats::protocol_errors, "serve.protocol_errors");
      (void)SendError(conn, read.status);  // best-effort
      break;
    }
    conn->in_request.store(true, std::memory_order_release);
    std::string payload;
    read = ReadFramePayload(conn->sock.fd(), header, &payload);
    bool keep = false;
    if (read.fault == FrameFault::kReceive) {
      // Mid-frame disconnect or injected fault: nothing to answer.
      Count("serve.read_errors", 1);
    } else if (read.fault == FrameFault::kChecksum) {
      // A CRC mismatch means the stream is corrupt — there is nothing
      // trustworthy left to parse, so it is a protocol error and the
      // connection closes.
      Tally(&ServerStats::protocol_errors, "serve.protocol_errors");
      Tally(&ServerStats::checksum_errors, "serve.checksum_errors");
      (void)SendError(conn, read.status);  // best-effort
    } else {
      keep = Dispatch(conn, header, payload);
    }
    conn->in_request.store(false, std::memory_order_release);
    if (!keep) break;
    // A drain lets the in-flight response finish, then closes; the
    // serve.drain failpoint forces the same post-response close to let
    // the chaos suite rehearse clients racing a drain.
    if (draining_.load(std::memory_order_acquire)) break;
    if (!robust::CheckFailpoint("serve.drain").ok()) break;
  }
  conn->sock.Close();
  open_conns_.fetch_sub(1, std::memory_order_acq_rel);
  obs::SetGauge(options_.metrics, "serve.connections",
                open_conns_.load(std::memory_order_acquire));
  conn->done.store(true, std::memory_order_release);
}

bool Server::SendFrame(Connection* conn, Opcode opcode, uint8_t flags,
                       std::string_view payload) {
  if (WriteFrame(conn->sock.fd(), opcode, flags, conn->checksum, payload,
                 SendTimeoutMs(conn->deadline))
          .ok()) {
    return true;
  }
  Count("serve.write_errors", 1);
  return false;
}

bool Server::SendError(Connection* conn, const Status& status) {
  return SendFrame(conn, Opcode::kError, 0, EncodeErrorPayload(status));
}

bool Server::SendDeadlineExceeded(Connection* conn, const std::string& what) {
  Tally(&ServerStats::deadline_exceeded, "serve.deadline_exceeded");
  return SendError(conn, Status::DeadlineExceeded(what));
}

bool Server::Shed(Connection* conn) {
  Tally(&ServerStats::busy_shed, "serve.busy");
  return SendFrame(conn, Opcode::kBusy, 0, {});
}

void Server::CountDrained() {
  if (draining_.load(std::memory_order_acquire)) {
    Tally(&ServerStats::drained, "serve.drained");
  }
}

bool Server::Dispatch(Connection* conn, const FrameHeader& header,
                      std::string_view payload) {
  Tally(&ServerStats::requests, "serve.requests");
  switch (header.opcode) {
    case Opcode::kPing:
      return SendFrame(conn, Opcode::kPong, 0, payload);
    case Opcode::kStats: {
      std::string text = options_.metrics != nullptr
                             ? options_.metrics->SummaryText()
                             : std::string("metrics disabled\n");
      return SendFrame(conn, Opcode::kStatsText, 0, text);
    }
    case Opcode::kParseBuffer:
    case Opcode::kParseFile:
    case Opcode::kQueryBuffer:
    case Opcode::kQueryFile:
      return Admit(conn, header, payload);
    default:
      // Unreachable: Dispatch is gated on IsRequestOpcode.
      return SendError(conn, Status::Internal("unhandled opcode"));
  }
}

/// A parse or query request payload, decoded and resolved against the
/// server's defaults and budget slices.
struct Server::RequestConfig {
  LoadOptions load;
  /// Query opcodes only: the PredicateBlock's predicate.
  std::optional<Predicate> predicate;
  /// The inline data or server-local path that follows the request header
  /// (and, for queries, the predicate block).
  std::string_view body;
  /// v2 deadline: resolved to an absolute steady_clock point at decode
  /// time so the admission wait, the executor's stage entries and the
  /// response's frame writes all race the same instant. max() = no
  /// deadline (v1 requests, deadline_ms == 0).
  uint32_t deadline_ms = 0;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  static Result<RequestConfig> Decode(std::string_view payload, bool query,
                                      const ServeOptions& server);
};

Result<Server::RequestConfig> Server::RequestConfig::Decode(
    std::string_view payload, bool query, const ServeOptions& server) {
  PARPARAW_ASSIGN_OR_RETURN(RequestHeader header,
                            DecodeRequestHeader(payload));
  RequestConfig config;
  config.load.error_policy =
      static_cast<robust::ErrorPolicy>(header.error_policy);
  config.load.header = header.header == 2 ? -1 : header.header;
  config.load.collect_statistics = false;
  config.load.pool = server.pool;
  config.load.partition_size = header.partition_size > 0
                                   ? static_cast<size_t>(header.partition_size)
                                   : server.partition_size;
  // Per-connection budget: the request may tighten its slice of the
  // server budget, never widen it.
  const int64_t slice =
      server.memory_budget > 0
          ? server.memory_budget / server.max_inflight_requests
          : 0;
  config.load.memory_budget = header.memory_budget;
  if (slice > 0) {
    config.load.memory_budget =
        config.load.memory_budget > 0
            ? std::min(config.load.memory_budget, slice)
            : slice;
  }
  config.deadline_ms = header.deadline_ms;
  if (header.deadline_ms > 0) {
    config.deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(header.deadline_ms);
  }
  // The header is version-sized: v1 frames carry 20 bytes, v2 24.
  config.body = payload.substr(header.encoded_size);
  if (query) {
    PARPARAW_ASSIGN_OR_RETURN(PredicateBlock block,
                              DecodePredicateBlock(config.body));
    config.predicate = std::move(block.predicate);
    config.body = config.body.substr(block.encoded_size);
  }
  return config;
}

bool Server::Admit(Connection* conn, const FrameHeader& header,
                   std::string_view payload) {
  if (draining_.load(std::memory_order_acquire)) {
    // Raced the drain: shed like a queue-full BUSY (the client's retry
    // lands on the restarted daemon) and close.
    (void)Shed(conn);
    return false;
  }
  // Decoding comes first, so a malformed request is a protocol error
  // even when every slot is taken.
  const bool query = header.opcode == Opcode::kQueryBuffer ||
                     header.opcode == Opcode::kQueryFile;
  const Result<RequestConfig> request =
      RequestConfig::Decode(payload, query, options_);
  if (!request.ok()) {
    Tally(&ServerStats::protocol_errors, "serve.protocol_errors");
    (void)SendError(conn, request.status());
    return false;  // malformed request payload: close
  }
  conn->deadline = request->deadline;
  // The serve.deadline failpoint makes a request behave as if its
  // deadline had already expired at admission, deterministically.
  if (!robust::CheckFailpoint("serve.deadline").ok()) {
    return SendDeadlineExceeded(
        conn, "serve.admission: deadline expired before admission");
  }
  if (request->has_deadline()) {
    // Deadlined requests may wait for a slot — but only until their
    // deadline, which they then report as kDeadlineExceeded.
    const int acquired = request_slots_.AcquireFor(
        options_.max_inflight_requests,
        [this] {
          return stopping_.load(std::memory_order_acquire) ||
                 draining_.load(std::memory_order_acquire);
        },
        request->deadline);
    if (acquired == exec::AdmissionController::kStopped) {
      (void)Shed(conn);
      return false;  // shutting down or draining
    }
    if (acquired == exec::AdmissionController::kTimedOut) {
      return SendDeadlineExceeded(
          conn,
          "serve.admission: deadline expired after waiting " +
              std::to_string(request->deadline_ms) +
              "ms for a request slot");
    }
  } else if (request_slots_.TryAcquire(options_.max_inflight_requests) < 0) {
    // Queue-depth shedding: without a deadline the daemon answers BUSY
    // immediately instead of queueing unbounded work.
    return Shed(conn);
  }
  SlotReturn slot(&request_slots_, options_.metrics);
  obs::SetGauge(options_.metrics, "serve.inflight_requests",
                request_slots_.inflight());
  // ServeOptions carries no tracer: the probe feeds serve.request_us.
  obs::TraceSpan probe(nullptr, "serve.request", "serve", options_.metrics,
                       "serve.request_us", obs::Timing::kUntimed);
  return HandleRequest(conn, header, *request, &probe);
}

bool Server::HandleRequest(Connection* conn, const FrameHeader& header,
                           const RequestConfig& request,
                           obs::TraceSpan* probe) {
  const bool query = request.predicate.has_value();
  const bool from_file = header.opcode == Opcode::kParseFile ||
                         header.opcode == Opcode::kQueryFile;
  // A query answers one kOkQuery frame, whatever its flags ask for.
  const bool stream = !query && (header.flags & kFlagStream) != 0;
  const bool want_quarantine =
      !query && (header.flags & kFlagQuarantine) != 0;
  const std::string path(from_file ? request.body : std::string_view());

  // Resolve dialect/header/types from the input head, exactly like
  // parparaw::Reader, so responses are bit-identical to a local read.
  FileHead head;  // stays empty for an inline payload, its own sample
  if (from_file) {
    Result<FileHead> read = ReadFileHead(path, kHeadSampleBytes, "serve");
    if (!read.ok()) return SendError(conn, read.status());
    head = std::move(*read);
  }
  LoadResult resolution;
  Result<ParseOptions> base = BulkLoader::ResolveBaseOptions(
      from_file ? head.bytes : request.body, head.truncated, request.load,
      &resolution);
  if (!base.ok()) {
    return SendError(conn, base.status().WithContext("serve.resolve"));
  }

  exec::ExecOptions exec_options;
  exec_options.base = std::move(*base);
  if (query) {
    // The pushdown numbers records across its two phases, so no record
    // may be dropped for its column count. StagedParse::Select refuses a
    // predicate column outside the resolved schema.
    exec_options.base.column_count_policy = ColumnCountPolicy::kRobust;
    exec_options.predicate = request.predicate;
  }
  // Per-request planning happens inside the executor (each request's
  // stream is planned independently); pointing the request's options at
  // the server registry makes the plan.* counters — alongside
  // parse.*/exec.* — visible through the kStats opcode.
  exec_options.base.metrics = options_.metrics;
  exec_options.partition_size = request.load.partition_size;
  // All requests draw from ONE admission controller; this limit caps the
  // daemon-wide resident partitions, not this request's.
  exec_options.max_inflight_partitions = exec_partition_limit_;
  // The executor races the same absolute deadline: expiry at any stage
  // entry or partition-slot wait fails the ingest with kDeadlineExceeded
  // and returns the request's slots.
  exec_options.deadline = request.deadline;
  // A client that has gone fails the run at its next stage entry. The
  // check runs on pool workers; the fd stays open until the ingest has
  // returned, because only this thread closes it and Stop() only shuts
  // it down.
  std::atomic<bool> disconnected{false};
  exec_options.stage_hook = [fd = conn->sock.fd(), &disconnected](
                                int, int64_t) -> Status {
    if (!PeerClosed(fd)) return Status::OK();
    disconnected.store(true);
    return Status::Cancelled("serve: client disconnected");
  };

  bool send_failed = false;
  uint64_t parts = 0;
  Result<exec::IngestResult> ingested = [&]() -> Result<exec::IngestResult> {
    if (!stream) {
      return from_file ? executor_->IngestFile(path, exec_options)
                       : executor_->IngestBuffer(request.body, exec_options);
    }
    const exec::PartitionSink sink = [&](Table&& part) -> Status {
      PARPARAW_ASSIGN_OR_RETURN(const std::string ipc,
                                SerializeTable(part));
      if (!SendFrame(conn, Opcode::kTablePart, 0, ipc)) {
        send_failed = true;
        return Status::IoError("client went away mid-stream");
      }
      ++parts;
      return Status::OK();
    };
    return from_file ? executor_->StreamFile(path, exec_options, sink)
                     : executor_->StreamBuffer(request.body, exec_options,
                                               sink);
  }();
  probe->Stop();

  if (disconnected.load() || send_failed) {
    Tally(&ServerStats::cancelled_disconnects, "serve.cancelled_disconnects");
    return false;  // peer is gone; nothing to answer
  }
  if (!ingested.ok()) {
    // An expired deadline is a request error: it answers its typed error
    // and the connection stays usable.
    const Status failed = ingested.status().WithContext(
        query ? "serve.query" : "serve.parse");
    if (failed.code() == StatusCode::kDeadlineExceeded) {
      return SendDeadlineExceeded(conn, failed.message());
    }
    return SendError(conn, failed);
  }

  const uint8_t response_flags = want_quarantine ? kFlagQuarantine : 0;
  if (stream) {
    if (!SendFrame(conn, Opcode::kEnd, response_flags,
                   EncodeEndPayload(parts))) {
      return false;
    }
  } else {
    const Result<std::string> ipc = SerializeTable(ingested->table);
    if (!ipc.ok()) {
      return SendError(conn, ipc.status().WithContext("serve.serialize"));
    }
    const bool sent =
        query ? SendFrame(conn, Opcode::kOkQuery, 0,
                          EncodeQueryPayload(
                              {ingested->pushdown.records_scanned,
                               ingested->pushdown.records_selected, *ipc}))
              : SendFrame(conn, Opcode::kOkTable, response_flags, *ipc);
    if (!sent) return false;
  }
  if (want_quarantine) {
    const Result<std::string> ppqr =
        SerializeQuarantine(ingested->quarantine);
    if (!ppqr.ok()) {
      return SendError(conn, ppqr.status().WithContext("serve.serialize"));
    }
    if (!SendFrame(conn, Opcode::kQuarantine, 0, *ppqr)) return false;
  }
  CountDrained();
  return true;
}

}  // namespace serve
}  // namespace parparaw
