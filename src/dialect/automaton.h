#ifndef PARPARAW_DIALECT_AUTOMATON_H_
#define PARPARAW_DIALECT_AUTOMATON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dfa/formats.h"
#include "dialect/spec.h"
#include "parallel/thread_pool.h"
#include "util/result.h"

namespace parparaw::dialect {

/// \brief A dialect automaton over the full byte alphabet, unbounded in
/// state count.
///
/// This is the compiler's intermediate form: DialectSpec compiles into a
/// (possibly wide) Automaton, partition-refinement minimisation shrinks it,
/// and PackFormat() packs the result into the symbol-group Dfa the
/// pipeline parses with. Like the Dfa it is a Mealy machine: SymbolFlags
/// classify each (state, byte) transition.
struct Automaton {
  int num_states = 0;
  int start = 0;
  /// Trap state for invalid input, or -1 when the dialect defines none.
  int invalid = -1;
  std::vector<std::string> names;
  /// Per state: valid end-of-input state (ParseOptions::validate).
  std::vector<uint8_t> accepting;
  /// Per state: ending the input here leaves an unterminated trailing
  /// record that must still be emitted (Format::mid_record_states).
  std::vector<uint8_t> mid_record;
  /// Row-major [state * 256 + byte] transition and flag tables.
  std::vector<int> next;
  std::vector<uint8_t> flags;

  int Next(int state, uint8_t byte) const {
    return next[static_cast<size_t>(state) * 256 + byte];
  }
  uint8_t FlagsFor(int state, uint8_t byte) const {
    return flags[static_cast<size_t>(state) * 256 + byte];
  }
  /// Runs one instance over `data`, returning the end state.
  int Run(int state, const uint8_t* data, size_t size) const;
};

/// Compiles a validated spec into its wide automaton (no minimisation).
/// Faultable at "dialect.compile".
Result<Automaton> CompileDialect(const DialectSpec& spec);

/// Moore/Hopcroft-style partition-refinement minimisation, parallelised
/// over `pool` following the Martens & Wijs evaluation: the alphabet is
/// first compressed into byte-equivalence classes, then per-state
/// signatures (block id + successor block per class + transition flags)
/// are refined to a fixpoint, each round computing all signatures in
/// parallel. Acceptance and mid-record/trailing semantics are part of the
/// initial partition so minimisation preserves them exactly. Faultable at
/// "dialect.minimise".
Result<Automaton> Minimize(const Automaton& automaton, ThreadPool* pool);

/// Outcome of a product-construction equivalence check.
struct EquivalenceResult {
  bool equivalent = true;
  /// A shortest input reaching the first mismatching state pair.
  std::string witness;
  /// Human-readable mismatch description (empty when equivalent).
  std::string detail;
};

/// Product-construction equivalence check: BFS over reachable state pairs
/// from the two start states, comparing acceptance, mid-record semantics
/// and the SymbolFlags of every byte transition. A mismatch yields a
/// witness string, so a failed check is a machine-checked counterexample —
/// and a passing check a proof that the two automata parse every input
/// identically.
EquivalenceResult CheckEquivalent(const Automaton& a, const Automaton& b);

/// The wide twin of a packed format, for equivalence-checking hand-written
/// built-in DFAs against compiled dialects.
Automaton FromFormat(const Format& format);

/// Packs a (minimised) automaton into the Dfa representation: its
/// byte-equivalence classes become symbol groups, the most populous one
/// the catch-all. Any state and symbol count packs; whether the result
/// fits the SIMD register budget is Dfa::fits_register_budget().
Result<Format> PackFormat(const Automaton& automaton, const DialectSpec& spec);

}  // namespace parparaw::dialect

#endif  // PARPARAW_DIALECT_AUTOMATON_H_
