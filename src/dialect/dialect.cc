#include "dialect/dialect.h"

#include <mutex>
#include <string>
#include <utility>

#include "obs/obs.h"

namespace parparaw::dialect {

namespace {

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<DialectSpec>& Registry() {
  static std::vector<DialectSpec> registry;
  return registry;
}

}  // namespace

Result<CompiledDialect> Compile(const DialectSpec& spec, ThreadPool* pool,
                                obs::MetricsRegistry* metrics) {
  PARPARAW_RETURN_NOT_OK(spec.Validate());
  CompiledDialect out;
  out.spec = spec;
  PARPARAW_ASSIGN_OR_RETURN(Automaton wide, CompileDialect(spec));
  out.original_states = wide.num_states;
  PARPARAW_ASSIGN_OR_RETURN(out.automaton, Minimize(wide, pool));
  out.minimized_states = out.automaton.num_states;

  // Machine-checked proof that minimisation preserved the language and
  // every flag annotation. A failure here is a compiler bug, not bad user
  // input, hence Internal.
  const EquivalenceResult proof = CheckEquivalent(wide, out.automaton);
  if (!proof.equivalent) {
    return Status::Internal("dialect '" + spec.name +
                            "': minimised automaton diverges from the "
                            "compiled one: " + proof.detail);
  }

  PARPARAW_ASSIGN_OR_RETURN(out.format, PackFormat(out.automaton, spec));
  obs::AddCount(metrics, "dialect.compiled", 1);
  obs::SetGauge(metrics, "dialect.states", out.minimized_states);
  return out;
}

Result<std::optional<CompiledDialect>> ResolveParseDialect(
    ParseOptions* options) {
  if (!options->dialect.has_value()) {
    return std::optional<CompiledDialect>();
  }
  if (options->format.dfa.num_states() != 0) {
    return Status::Invalid(
        "ParseOptions sets both a format and a dialect; pick one (the "
        "dialect compiles into the format)");
  }
  PARPARAW_ASSIGN_OR_RETURN(
      CompiledDialect compiled,
      Compile(*options->dialect, options->pool, options->metrics));
  options->dialect.reset();
  options->format = std::move(compiled.format);
  return std::optional<CompiledDialect>();
}

void RegisterDialect(const DialectSpec& spec) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (DialectSpec& existing : Registry()) {
    if (existing.name == spec.name) {
      existing = spec;
      return;
    }
  }
  Registry().push_back(spec);
}

std::vector<DialectSpec> RegisteredDialects() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry();
}

void ClearRegisteredDialects() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().clear();
}

}  // namespace parparaw::dialect
