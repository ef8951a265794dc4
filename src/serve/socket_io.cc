#include "serve/socket_io.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/obs.h"
#include "robust/failpoint.h"
#include "robust/resource_guard.h"

namespace parparaw {
namespace serve {

namespace {

std::string ErrnoMessage(const char* prefix) {
  return std::string(prefix) + ": " + std::strerror(errno);
}

void CountRetry() {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  if (global.enabled()) global.AddCounter("serve.eintr_retries", 1);
}

void CountBytes(const char* name, int64_t n) {
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  if (global.enabled()) global.AddCounter(name, n);
}

/// Bounded deterministic backoff for EINTR-class transients, the same
/// policy io/file.cc uses for stdio streams.
struct TransientRetry {
  robust::RetryPolicy policy;
  int attempt = 0;

  bool Next() {
    if (attempt + 1 >= policy.max_attempts) return false;
    ++attempt;
    robust::internal::BackoffSleepAndCount(policy.DelayUs(attempt));
    CountRetry();
    return true;
  }
};

/// The *.short failpoints clamp (not fail) the next transfer: a fired
/// check means "move one byte this iteration", which drives the
/// partial-transfer resume paths deterministically.
size_t MaybeClampShort(const char* site, size_t want) {
  if (!robust::FailpointRegistry::AnyArmed()) return want;
  bool transient = false;
  if (!robust::FailpointRegistry::Instance().CheckSlow(site, &transient).ok()) {
    return want == 0 ? 0 : 1;
  }
  return want;
}

/// Per-attempt readiness wait: blocks until `fd` is ready for `events`
/// (POLLIN/POLLOUT) or `timeout_ms` elapses. timeout_ms < 0 = no wait
/// (the subsequent blocking syscall waits instead). A timeout is
/// kDeadlineExceeded — the caller's transfer loop propagates it, so a
/// hung peer costs one timeout, not an eternity.
Status WaitReady(int fd, short events, int timeout_ms, const char* what) {
  if (timeout_ms < 0) return Status::OK();
  TransientRetry retry;
  while (true) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return Status::OK();
    if (n == 0) {
      return Status::DeadlineExceeded(std::string(what) + " timed out after " +
                                      std::to_string(timeout_ms) + "ms");
    }
    if (errno == EINTR && retry.Next()) continue;
    return Status::IoError(ErrnoMessage("poll failed"));
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.Release(), std::memory_order_release);
  }
  return *this;
}

int Socket::Release() {
  return fd_.exchange(-1, std::memory_order_acq_rel);
}

void Socket::Shutdown() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Socket::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Status SendAll(int fd, std::string_view data, int timeout_ms) {
  size_t sent = 0;
  TransientRetry retry;
  while (sent < data.size()) {
    bool transient = false;
    const Status injected = robust::CheckFailpoint("serve.write", &transient);
    if (!injected.ok()) {
      if (transient && retry.Next()) continue;
      return injected;
    }
    PARPARAW_RETURN_NOT_OK(WaitReady(fd, POLLOUT, timeout_ms, "send"));
    const size_t want =
        MaybeClampShort("serve.write.short", data.size() - sent);
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the
    // process with SIGPIPE — mandatory for a daemon. Under a timeout the
    // send must not block either: a blocking send waits until all of
    // `want` fits, so it takes what fits now and polls for the rest.
    const int flags = MSG_NOSIGNAL | (timeout_ms >= 0 ? MSG_DONTWAIT : 0);
    const ssize_t n = ::send(fd, data.data() + sent, want, flags);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n < 0 && errno == EINTR && retry.Next()) continue;
    return Status::IoError(ErrnoMessage("send failed"));
  }
  CountBytes("serve.bytes_out", static_cast<int64_t>(sent));
  return Status::OK();
}

Status RecvExact(int fd, size_t n, std::string* out, bool* eof,
                 int timeout_ms) {
  if (eof != nullptr) *eof = false;
  out->clear();
  out->resize(n);
  size_t received = 0;
  TransientRetry retry;
  while (received < n) {
    bool transient = false;
    const Status injected = robust::CheckFailpoint("serve.read", &transient);
    if (!injected.ok()) {
      if (transient && retry.Next()) continue;
      return injected;
    }
    {
      const Status ready = WaitReady(fd, POLLIN, timeout_ms, "recv");
      if (!ready.ok()) {
        out->resize(received);
        return ready;
      }
    }
    const size_t want = MaybeClampShort("serve.read.short", n - received);
    const ssize_t got = ::recv(fd, out->data() + received, want, 0);
    if (got > 0) {
      received += static_cast<size_t>(got);
      continue;
    }
    if (got == 0) {
      // Clean EOF on a frame boundary is a normal disconnect; mid-frame
      // it is a truncation error the caller must not paper over.
      if (received == 0 && eof != nullptr) {
        *eof = true;
        out->clear();
        return Status::OK();
      }
      out->resize(received);
      return Status::IoError("connection closed mid-frame (" +
                             std::to_string(received) + " of " +
                             std::to_string(n) + " bytes)");
    }
    if (errno == EINTR && retry.Next()) continue;
    return Status::IoError(ErrnoMessage("recv failed"));
  }
  CountBytes("serve.bytes_in", static_cast<int64_t>(received));
  return Status::OK();
}

bool PeerClosed(int fd) {
  char probe;
  const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;                      // orderly shutdown
  if (n < 0 && (errno == ECONNRESET || errno == ENOTCONN)) return true;
  return false;
}

Result<int> ListenLoopback(uint16_t port, int backlog, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket failed"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Status::IoError(ErrnoMessage("bind failed"));
    ::close(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    const Status st = Status::IoError(ErrnoMessage("listen failed"));
    ::close(fd);
    return st;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      const Status st = Status::IoError(ErrnoMessage("getsockname failed"));
      ::close(fd);
      return st;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<Socket> AcceptConnection(int listen_fd) {
  PARPARAW_FAILPOINT("serve.accept");
  TransientRetry retry;
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR && retry.Next()) continue;
    return Status::IoError(ErrnoMessage("accept failed"));
  }
}

Result<Socket> ConnectLoopback(uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket failed"));
  Socket socket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (timeout_ms >= 0) {
    // Non-blocking connect bounded by poll: an address that never
    // completes the handshake (full accept queue, dropped SYNs) costs
    // one timeout instead of the kernel's minutes of SYN retries.
    const int fl = ::fcntl(fd, F_GETFL, 0);
    if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) {
      return Status::IoError(ErrnoMessage("fcntl failed"));
    }
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    if (rc != 0) {
      if (errno != EINPROGRESS && errno != EINTR) {
        return Status::IoError(ErrnoMessage("connect failed"));
      }
      PARPARAW_RETURN_NOT_OK(WaitReady(fd, POLLOUT, timeout_ms, "connect"));
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        return Status::IoError(ErrnoMessage("getsockopt failed"));
      }
      if (err != 0) {
        return Status::IoError(std::string("connect failed: ") +
                               std::strerror(err));
      }
    }
    if (::fcntl(fd, F_SETFL, fl) < 0) {
      return Status::IoError(ErrnoMessage("fcntl failed"));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return socket;
  }
  TransientRetry retry;
  while (true) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return socket;
    }
    if (errno == EINTR && retry.Next()) continue;
    return Status::IoError(ErrnoMessage("connect failed"));
  }
}

}  // namespace serve
}  // namespace parparaw
