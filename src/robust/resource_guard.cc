#include "robust/resource_guard.h"

#include <chrono>
#include <thread>

#include "obs/metrics.h"

namespace parparaw {
namespace robust {

int64_t ClampPartitionSizeForBudget(int64_t requested, int64_t memory_budget,
                                    int64_t floor_bytes, int64_t factor) {
  if (memory_budget <= 0 || requested <= 0) return requested;
  if (factor <= 0) factor = kParseMemoryFactor;
  const int64_t affordable = memory_budget / (factor * kPipelineDepth);
  if (affordable >= requested) return requested;
  const int64_t clamped = affordable < floor_bytes ? floor_bytes : affordable;
  obs::MetricsRegistry::Global().AddCounter("robust.budget_clamps", 1);
  return clamped;
}

int64_t RetryPolicy::DelayUs(int attempt) const {
  if (attempt < 1) attempt = 1;
  int64_t delay = base_delay_us;
  for (int i = 1; i < attempt && delay < max_delay_us; ++i) delay *= 2;
  return delay < max_delay_us ? delay : max_delay_us;
}

namespace internal {

void BackoffSleepAndCount(int64_t delay_us) {
  obs::MetricsRegistry::Global().AddCounter("robust.io_retries", 1);
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
}

}  // namespace internal
}  // namespace robust
}  // namespace parparaw
