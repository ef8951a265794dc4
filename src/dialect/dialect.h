#ifndef PARPARAW_DIALECT_DIALECT_H_
#define PARPARAW_DIALECT_DIALECT_H_

#include <optional>
#include <vector>

#include "core/options.h"
#include "dialect/automaton.h"
#include "dialect/spec.h"

namespace parparaw::dialect {

/// \brief A dialect compiled end-to-end: the minimised wide automaton plus
/// the packed Format the pipeline parses with.
struct CompiledDialect {
  DialectSpec spec;
  /// The minimised automaton.
  Automaton automaton;
  /// The packed Format. Over the SIMD register budget
  /// (Dfa::fits_register_budget) it parses through the context step's
  /// sequential walk, through the same pipeline otherwise.
  Format format;
  int original_states = 0;
  int minimized_states = 0;
};

/// Compiles a spec: Validate -> wide automaton ("dialect.compile"
/// failpoint) -> parallel minimisation ("dialect.minimise" failpoint) ->
/// product-construction equivalence proof that minimisation preserved the
/// language and every SymbolFlags annotation (an Internal error would be a
/// compiler bug, never user error) -> packing into the Dfa representation.
/// Metrics (null-safe): "dialect.compiled" count, "dialect.states" gauge.
Result<CompiledDialect> Compile(const DialectSpec& spec,
                                ThreadPool* pool = nullptr,
                                obs::MetricsRegistry* metrics = nullptr);

/// Resolves ParseOptions::dialect in place for an entry point: with a
/// dialect set, options->format becomes the compiled Format and
/// options->dialect is cleared; without one, options stay untouched. Every
/// dialect then parses through the one pipeline, so the result is always
/// nullopt (the optional is kept for source compatibility). Setting both a
/// dialect and a non-empty format is an InvalidArgument.
Result<std::optional<CompiledDialect>> ResolveParseDialect(
    ParseOptions* options);

/// Registers a dialect for format sniffing (dfa/sniffer.h): Sniff() scores
/// registered dialects against its sample alongside the built-in DSV
/// candidates. Re-registering a spec with the same name replaces it.
void RegisterDialect(const DialectSpec& spec);

/// Snapshot of the registered dialects, in registration order.
std::vector<DialectSpec> RegisteredDialects();

/// Removes all registered dialects (test isolation).
void ClearRegisteredDialects();

}  // namespace parparaw::dialect

#endif  // PARPARAW_DIALECT_DIALECT_H_
