#include "dfa/dfa.h"

#include <utility>

namespace parparaw {

int DfaBuilder::AddState(std::string name, bool accepting) {
  state_names_.push_back(std::move(name));
  accepting_.push_back(accepting);
  for (auto& group : transitions_) group.emplace_back();
  default_transitions_.emplace_back();
  return static_cast<int>(state_names_.size()) - 1;
}

int DfaBuilder::AddSymbol(uint8_t symbol) {
  symbols_.push_back(symbol);
  group_of_symbol_.push_back(num_groups_);
  transitions_.emplace_back(state_names_.size());
  return num_groups_++;
}

void DfaBuilder::AddSymbolToGroup(uint8_t symbol, int group) {
  symbols_.push_back(symbol);
  group_of_symbol_.push_back(group);
}

void DfaBuilder::SetTransition(int from_state, int group, int to_state,
                               uint8_t flags) {
  transitions_[group][from_state] = Transition{to_state, flags};
}

void DfaBuilder::SetDefaultTransition(int from_state, int to_state,
                                      uint8_t flags) {
  default_transitions_[from_state] = Transition{to_state, flags};
}

Result<Dfa> DfaBuilder::Build() const {
  const int num_states = static_cast<int>(state_names_.size());
  if (num_states == 0) {
    return Status::Invalid("DFA requires at least one state");
  }
  if (start_state_ < 0 || start_state_ >= num_states) {
    return Status::Invalid("start state out of range");
  }
  std::array<bool, 256> registered{};
  for (uint8_t symbol : symbols_) {
    if (registered[symbol]) {
      return Status::Invalid("duplicate symbol in DFA definition");
    }
    registered[symbol] = true;
  }

  Dfa dfa;
  dfa.num_states_ = num_states;
  dfa.start_state_ = start_state_;
  dfa.invalid_state_ = invalid_state_;
  dfa.num_groups_ = num_groups_ + 1;  // + catch-all
  dfa.num_symbols_ = static_cast<int>(symbols_.size());
  dfa.state_names_ = state_names_;
  dfa.state_names_.shrink_to_fit();
  dfa.accepting_ = accepting_;
  // Unregistered bytes fall into the catch-all group, stored last.
  dfa.group_of_byte_.fill(static_cast<uint16_t>(num_groups_));
  for (size_t i = 0; i < symbols_.size(); ++i) {
    dfa.group_of_byte_[symbols_[i]] =
        static_cast<uint16_t>(group_of_symbol_[i]);
  }

  const size_t entries = static_cast<size_t>(dfa.num_groups_) * num_states;
  dfa.next_.assign(entries, 0);
  dfa.flags_.assign(entries, 0);
  const bool packed = dfa.fits_register_budget();
  if (packed) dfa.rows_.assign(dfa.num_groups_, 0);
  for (int g = 0; g < dfa.num_groups_; ++g) {
    for (int s = 0; s < num_states; ++s) {
      const Transition& t = (g == num_groups_) ? default_transitions_[s]
                                               : transitions_[g][s];
      if (t.to_state < 0 || t.to_state >= num_states) {
        return Status::Invalid("missing transition for state '" +
                               state_names_[s] + "', symbol group " +
                               std::to_string(g));
      }
      const size_t idx = static_cast<size_t>(g) * num_states + s;
      dfa.next_[idx] = t.to_state;
      dfa.flags_[idx] = t.flags;
      if (packed) dfa.rows_[g] |= static_cast<Dfa::Row>(t.to_state) << (s * 4);
    }
  }
  return dfa;
}

}  // namespace parparaw
