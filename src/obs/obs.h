#ifndef PARPARAW_OBS_OBS_H_
#define PARPARAW_OBS_OBS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

namespace parparaw {
namespace obs {

/// Convenience umbrella for instrumented code: null-safe, enabled-gated
/// wrappers so call sites stay one line and cost one branch when
/// observability is off. Durations come from a stage probe (TraceSpan).

inline void AddCount(MetricsRegistry* metrics, const char* name,
                     int64_t delta) {
  if (metrics == nullptr || !metrics->enabled()) return;
  metrics->AddCounter(name, delta);
}

inline void SetGauge(MetricsRegistry* metrics, const char* name,
                     int64_t value) {
  if (metrics == nullptr || !metrics->enabled()) return;
  metrics->SetGauge(name, value);
}

}  // namespace obs
}  // namespace parparaw

#endif  // PARPARAW_OBS_OBS_H_
