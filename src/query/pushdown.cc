#include "query/pushdown.h"

#include "core/staged_parse.h"
#include "obs/obs.h"

namespace parparaw {

Result<ParseOutput> ParseWithPushdown(std::string_view input,
                                      const ParseOptions& options,
                                      const Predicate& predicate,
                                      PushdownStats* stats) {
  obs::TraceSpan span(options.tracer, "pushdown", "query",
                      static_cast<int64_t>(input.size()));
  return RunStagedParse(input, options, &predicate, stats);
}

}  // namespace parparaw
