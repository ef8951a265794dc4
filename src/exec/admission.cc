#include "exec/admission.h"

namespace parparaw {
namespace exec {

int AdmissionController::AcquireFor(
    int limit, const std::function<bool()>& stop,
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (stop()) return kStopped;
    if (inflight_ < limit) return ++inflight_;
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One last look under the mutex: a release (or stop) that raced
      // the timeout still wins, so a free slot is never refused just
      // because the clock ticked first.
      if (stop()) return kStopped;
      if (inflight_ < limit) return ++inflight_;
      return kTimedOut;
    }
  }
}

int AdmissionController::TryAcquire(int limit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ >= limit) return -1;
  return ++inflight_;
}

int AdmissionController::Release(int n) {
  int now;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ -= n;
    now = inflight_;
  }
  cv_.notify_all();
  return now;
}

void AdmissionController::Wake() {
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

int AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

}  // namespace exec
}  // namespace parparaw
