#include "core/parser.h"

#include "core/staged_parse.h"
#include "dialect/dialect.h"
#include "obs/trace.h"
#include "plan/planner.h"

namespace parparaw {

Result<ParseOutput> Parser::Parse(std::string_view input,
                                  const ParseOptions& options) {
  return RunStagedParse(input, options, nullptr, nullptr);
}

Result<ParseOutput> RunStagedParse(std::string_view input,
                                   const ParseOptions& options,
                                   const Predicate* predicate,
                                   PushdownStats* stats) {
  PARPARAW_RETURN_NOT_OK(options.Validate());
  // A user dialect compiles into the format here.
  ParseOptions resolved = options;
  PARPARAW_RETURN_NOT_OK(dialect::ResolveParseDialect(&resolved).status());
  plan::PlanStream(static_cast<int64_t>(input.size()), &resolved);
  // Only here do all the stages share one thread (src/exec overlaps them
  // across partitions), so only here is the whole run one probe.
  obs::TraceSpan probe(resolved.tracer, "parse", "pipeline", resolved.metrics,
                       "parse.total_us", obs::Timing::kUntimed,
                       static_cast<int64_t>(input.size()));
  StagedParse staged;
  PARPARAW_RETURN_NOT_OK(staged.Scan(input, resolved));
  if (predicate != nullptr) {
    PARPARAW_RETURN_NOT_OK(staged.Select(*predicate, stats));
  }
  if (!staged.finished()) {
    PARPARAW_RETURN_NOT_OK(staged.Partition());
    PARPARAW_RETURN_NOT_OK(staged.Convert());
  }
  return staged.TakeOutput();
}

}  // namespace parparaw
