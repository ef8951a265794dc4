#include "core/parser.h"

#include "core/staged_parse.h"
#include "dialect/dialect.h"
#include "obs/trace.h"
#include "plan/planner.h"

namespace parparaw {

Result<ParseOutput> Parser::Parse(std::string_view input,
                                  const ParseOptions& options) {
  PARPARAW_RETURN_NOT_OK(options.Validate());
  // A user dialect compiles into the format here; a dialect over the SIMD
  // register budget parses on the scalar wide-automaton fallback instead.
  ParseOptions resolved = options;
  PARPARAW_ASSIGN_OR_RETURN(std::optional<dialect::CompiledDialect> fallback,
                            dialect::ResolveParseDialect(&resolved));
  if (fallback.has_value()) {
    return dialect::FallbackParse(input, *fallback, resolved);
  }
  // Adaptive planning over the input's own prefix: the monolithic parse
  // holds the whole buffer, so the sample is never I/O.
  PARPARAW_ASSIGN_OR_RETURN(
      const plan::ParsePlan parse_plan,
      plan::PlanStream(input,
                       /*sample_truncated=*/input.size() >
                           resolved.sample_budget,
                       &resolved));
  (void)parse_plan;
  // The monolithic entry point is the staged pipeline run back to back on
  // the calling thread; src/exec overlaps the same stages across
  // partitions. Only here do all three stages share one thread, so only
  // here is the whole run one probe.
  obs::TraceSpan probe(resolved.tracer, "parse", "pipeline", resolved.metrics,
                       "parse.total_us", obs::Timing::kUntimed,
                       static_cast<int64_t>(input.size()));
  StagedParse staged;
  PARPARAW_RETURN_NOT_OK(staged.Scan(input, resolved));
  if (!staged.finished()) {
    PARPARAW_RETURN_NOT_OK(staged.Partition());
    PARPARAW_RETURN_NOT_OK(staged.Convert());
  }
  return staged.TakeOutput();
}

}  // namespace parparaw
