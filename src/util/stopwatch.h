#ifndef PARPARAW_UTIL_STOPWATCH_H_
#define PARPARAW_UTIL_STOPWATCH_H_

#include <chrono>

namespace parparaw {

/// \brief Monotonic wall-clock stopwatch for the benchmark harnesses, the
/// examples and the baseline parsers. Pipeline stages are timed by their
/// stage probe (obs::TraceSpan) instead.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace parparaw

#endif  // PARPARAW_UTIL_STOPWATCH_H_
