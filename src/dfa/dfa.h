#ifndef PARPARAW_DFA_DFA_H_
#define PARPARAW_DFA_DFA_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dfa/state_vector.h"
#include "util/result.h"
#include "util/status.h"

namespace parparaw {

/// Per-transition symbol classification, driving the three bitmap indexes
/// of §3.1 (record-delimiter, field-delimiter, control) and value
/// extraction. A symbol with no flags set is part of the field's value.
enum SymbolFlags : uint8_t {
  kSymbolData = 0,
  /// The symbol delimits a record (also implies control).
  kSymbolRecordDelimiter = 1 << 0,
  /// The symbol delimits a field. Combined with kSymbolControl (every
  /// delimited format) the byte is pure punctuation; WITHOUT
  /// kSymbolControl it is an *inclusive* boundary — the byte both ends
  /// the field and is the last byte of its value, the fixed-width shape
  /// compiled by src/dialect. Record delimiters have no inclusive form:
  /// they always carry kSymbolControl (the asymmetry keeps carry-over
  /// splitting and synthetic termination byte-exact).
  kSymbolFieldDelimiter = 1 << 1,
  /// The symbol is a control symbol (quote, escape, comment marker, ...)
  /// and not part of the field's value.
  kSymbolControl = 1 << 2,
};

/// \brief A deterministic finite automaton describing a delimiter-separated
/// format's parsing rules (§3.1, Fig. 2, Table 1).
///
/// Symbols are mapped to *symbol groups* (distinct symbols with identical
/// transition behaviour are collapsed, Table 1) through a 256-entry
/// byte-to-group table, and the next-state and flag tables hold one entry
/// per (group, state), so a DFA of any state and symbol count walks the
/// same way. A DFA within the SIMD register budget (fits_register_budget())
/// also carries the paper's packed rows: one 4-bit slot per state per
/// group, so a thread fetches the whole row for a read symbol at once and
/// transitions all its DFA instances with bit-field extracts (Step,
/// TransitionVector). Instances are immutable after Build().
class Dfa {
 public:
  /// Row type: 16 states x 4 bits, the "coalesced" row of Table 1.
  using Row = uint64_t;

  /// An empty DFA (num_states() == 0); callers treat it as "use the RFC
  /// 4180 default". Populated instances come from DfaBuilder::Build().
  Dfa() = default;

  int num_states() const { return num_states_; }
  int start_state() const { return start_state_; }
  /// Number of symbol groups including the trailing catch-all group.
  int num_symbol_groups() const { return num_groups_; }
  /// Number of registered symbols: the bytes outside the catch-all group.
  int num_symbols() const { return num_symbols_; }
  /// The designated trap state for invalid inputs, or -1 when the format
  /// defines none.
  int invalid_state() const { return invalid_state_; }

  /// True when the DFA fits the SIMD register budget: at most
  /// kMaxDfaStates states and kMaxDfaSymbols registered symbols. Only such
  /// a DFA has the packed rows (row, Step, TransitionVector), a
  /// StateVector and a simd::KernelPlan; the context step walks any other
  /// DFA sequentially (core/context_step.h), and the planner plans it for
  /// that walk.
  bool fits_register_budget() const {
    return num_states_ <= kMaxDfaStates && num_symbols_ <= kMaxDfaSymbols;
  }

  const std::string& state_name(int state) const {
    return state_names_[state];
  }

  /// Maps a raw input symbol to its symbol-group index.
  int SymbolGroup(uint8_t symbol) const { return group_of_byte_[symbol]; }

  /// The packed transition row for a symbol group. Requires
  /// fits_register_budget().
  Row row(int group) const { return rows_[group]; }

  /// Next state for (state, group).
  int NextState(int state, int group) const {
    return next_[static_cast<size_t>(group) * num_states_ + state];
  }

  /// Convenience: next state for a raw symbol.
  int NextStateForSymbol(int state, uint8_t symbol) const {
    return NextState(state, SymbolGroup(symbol));
  }

  /// Classification flags for consuming `group` while in `state`.
  uint8_t Flags(int state, int group) const {
    return flags_[static_cast<size_t>(group) * num_states_ + state];
  }

  bool IsAccepting(int state) const { return accepting_[state]; }

  /// Runs every DFA instance of a state-transition vector one step through
  /// the packed row. Requires fits_register_budget().
  void Step(StateVector* vector, uint8_t symbol) const {
    const Row row_bits = rows_[SymbolGroup(symbol)];
    for (int i = 0; i < vector->size(); ++i) {
      vector->Set(i, static_cast<uint8_t>((row_bits >> (vector->Get(i) * 4)) &
                                          0xF));
    }
  }

  /// Simulates one DFA instance over `data`, returning the end state.
  int Run(int state, const uint8_t* data, size_t size) const {
    for (size_t i = 0; i < size; ++i) {
      state = NextStateForSymbol(state, data[i]);
    }
    return state;
  }

  /// Computes the state-transition vector of a chunk: entry i is the end
  /// state of the instance that started in state i (§3.1, Fig. 3).
  /// Requires fits_register_budget().
  StateVector TransitionVector(const uint8_t* data, size_t size) const {
    StateVector v = StateVector::Identity(num_states_);
    for (size_t i = 0; i < size; ++i) Step(&v, data[i]);
    return v;
  }

 private:
  friend class DfaBuilder;

  int num_states_ = 0;
  int start_state_ = 0;
  int invalid_state_ = -1;
  int num_groups_ = 0;
  int num_symbols_ = 0;
  std::vector<std::string> state_names_;
  std::vector<bool> accepting_;
  /// byte value -> symbol group; unregistered bytes map to the catch-all.
  std::array<uint16_t, 256> group_of_byte_ = {};
  /// [group * num_states + state] next states and SymbolFlags.
  std::vector<int32_t> next_;
  std::vector<uint8_t> flags_;
  /// Packed Table 1 rows, one per group; empty over the register budget.
  std::vector<Row> rows_;
};

/// \brief Incremental builder for Dfa instances.
///
/// Usage:
///   DfaBuilder b;
///   int fld = b.AddState("FLD", /*accepting=*/true);
///   ...
///   int g_nl = b.AddSymbol('\n');
///   b.SetTransition(eor, g_nl, eor, kSymbolRecordDelimiter | kSymbolControl);
///   b.SetDefaultTransition(eor, fld, kSymbolData);   // catch-all group
///   PARPARAW_ASSIGN_OR_RETURN(Dfa dfa, b.Build());
class DfaBuilder {
 public:
  DfaBuilder() = default;

  /// Adds a state; returns its index.
  int AddState(std::string name, bool accepting);

  /// Marks the start state (default: state 0).
  void SetStartState(int state) { start_state_ = state; }

  /// Marks the trap state entered on invalid input, used by format
  /// validation (§4.3).
  void SetInvalidState(int state) { invalid_state_ = state; }

  /// Registers a symbol with its own symbol group; returns the group index.
  /// Symbols registered via AddSymbolToGroup share an existing group.
  int AddSymbol(uint8_t symbol);

  /// Registers an additional symbol for an existing group (Table 1 collapses
  /// symbols with identical transitions into one group).
  void AddSymbolToGroup(uint8_t symbol, int group);

  /// Transition for (from_state, group) with its symbol classification.
  void SetTransition(int from_state, int group, int to_state, uint8_t flags);

  /// Transition for the catch-all group ("*" row of Table 1).
  void SetDefaultTransition(int from_state, int to_state, uint8_t flags);

  /// Validates completeness and produces the immutable Dfa.
  Result<Dfa> Build() const;

 private:
  struct Transition {
    int to_state = -1;
    uint8_t flags = 0;
  };

  std::vector<std::string> state_names_;
  std::vector<bool> accepting_;
  std::vector<uint8_t> symbols_;          // registration order
  std::vector<int> group_of_symbol_;      // per symbol
  int num_groups_ = 0;
  int start_state_ = 0;
  int invalid_state_ = -1;
  // transitions_[group][state]; the catch-all group is stored last at
  // index num_groups_ when building.
  std::vector<std::vector<Transition>> transitions_;
  std::vector<Transition> default_transitions_;
};

}  // namespace parparaw

#endif  // PARPARAW_DFA_DFA_H_
