#ifndef PARPARAW_SERVE_SOCKET_IO_H_
#define PARPARAW_SERVE_SOCKET_IO_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace parparaw {
namespace serve {

/// \brief Robust POSIX socket plumbing for parparawd and its clients.
///
/// Every daemon byte moves through SendAll/RecvExact, never raw
/// write/read: partial transfers resume where they stopped and
/// EINTR-class interruptions retry with the robust layer's bounded
/// deterministic backoff (robust::RetryPolicy), exactly like the file
/// I/O in io/file.cc. Three failpoints make the layer chaos-testable:
///
///   serve.accept        injected accept failure (server loop)
///   serve.read          injected recv failure; transient => retried
///   serve.write         injected send failure; transient => retried
///   serve.read.short    next recv is clamped to 1 byte (fires = clamp)
///   serve.write.short   next send is clamped to 1 byte (fires = clamp)
///
/// The *.short points do not inject errors — they force the
/// partial-transfer path so tests can prove an IPC frame survives being
/// dribbled through the kernel one byte at a time.
///
/// Metrics (when the process-wide registry is enabled):
///   serve.bytes_in / serve.bytes_out   counters
///   serve.eintr_retries                counter

/// Thin owner of a connected socket fd (-1 = empty). Closes on
/// destruction; move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.Release()) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_.load(std::memory_order_acquire); }
  bool valid() const { return fd() >= 0; }

  /// Releases ownership without closing.
  int Release();

  /// Shuts down both directions without releasing the descriptor: wakes
  /// a thread blocked in recv/accept on this socket while the close —
  /// which must not race with a concurrent recv (fd reuse) — stays with
  /// the owning thread. This is how Server::Stop unblocks connection
  /// threads before joining them.
  void Shutdown();

  /// Shuts down both directions (wakes a peer blocked in recv) and
  /// closes. Idempotent, and safe against a concurrent Close from
  /// another thread: exactly one caller performs the close.
  void Close();

 private:
  std::atomic<int> fd_{-1};
};

/// Writes all of `data`, resuming partial writes and retrying EINTR with
/// bounded backoff. A peer reset surfaces as kIoError.
///
/// `timeout_ms` >= 0 bounds each *attempt* with a poll(2) wait: if the
/// socket stays unwritable that long the call fails with
/// kDeadlineExceeded instead of blocking forever on a peer that stopped
/// reading. -1 = block indefinitely. The daemon bounds every frame it
/// writes (Server::SendFrame), so a client that never reads its response
/// cannot hold a request slot.
Status SendAll(int fd, std::string_view data, int timeout_ms = -1);

/// Reads exactly `n` bytes into `out` (resized). EOF before `n` bytes is
/// kIoError ("connection closed"); clean EOF at byte 0 sets `*eof` when
/// provided and returns OK with an empty `out`. `timeout_ms` bounds each
/// attempt as for SendAll — a stalled daemon can never block a client
/// forever.
Status RecvExact(int fd, size_t n, std::string* out, bool* eof = nullptr,
                 int timeout_ms = -1);

/// True when the peer has closed: a non-blocking MSG_PEEK sees EOF. The
/// server's request runs check it at every executor stage entry
/// (ExecOptions::stage_hook) and stop once their client has gone.
bool PeerClosed(int fd);

/// Creates a listening TCP socket on 127.0.0.1:`port` (0 = ephemeral).
/// Returns the fd; `*bound_port` receives the actual port.
Result<int> ListenLoopback(uint16_t port, int backlog, uint16_t* bound_port);

/// Accepts one connection, retrying EINTR. Checks the serve.accept
/// failpoint first.
Result<Socket> AcceptConnection(int listen_fd);

/// Connects to 127.0.0.1:`port`. `timeout_ms` >= 0 performs a
/// non-blocking connect bounded by poll(2) — an unresponsive address
/// (e.g. a listener whose accept queue is full and never drained) fails
/// with kDeadlineExceeded instead of blocking in the kernel's SYN
/// retries. -1 = classic blocking connect.
Result<Socket> ConnectLoopback(uint16_t port, int timeout_ms = -1);

}  // namespace serve
}  // namespace parparaw

#endif  // PARPARAW_SERVE_SOCKET_IO_H_
