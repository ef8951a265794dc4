#ifndef PARPARAW_DFA_STATE_VECTOR_H_
#define PARPARAW_DFA_STATE_VECTOR_H_

#include <array>
#include <cstdint>

namespace parparaw {

/// The SIMD register budget: the DFA states the packed representations
/// hold (4 bits per state in transition-table rows, MFIRA-backed vectors,
/// the 16-lane shuffle kernels' state vectors) ...
inline constexpr int kMaxDfaStates = 16;
/// ... and the registered symbols the kernels' special-symbol matchers
/// hold. A DFA over either bound parses through the context step's
/// sequential walk instead (Dfa::fits_register_budget).
inline constexpr int kMaxDfaSymbols = 16;

/// \brief State-transition vector (§3.1).
///
/// Entry i holds the state a DFA instance ends in after reading a chunk's
/// symbols, given that it started in state i. These vectors form a monoid
/// under the composite operation
///
///   (a ∘ b)[i] = b[a[i]]
///
/// ("first apply a's chunk, then b's"), whose associativity is what lets
/// ParPaRaw resolve every chunk's true entry state with a single exclusive
/// parallel prefix scan instead of a sequential pass.
class StateVector {
 public:
  StateVector() = default;

  /// The identity vector over `num_states` states: v[i] = i.
  static StateVector Identity(int num_states) {
    StateVector v;
    v.size_ = static_cast<uint8_t>(num_states);
    for (int i = 0; i < num_states; ++i) v.states_[i] = static_cast<uint8_t>(i);
    return v;
  }

  int size() const { return size_; }

  uint8_t Get(int i) const { return states_[i]; }
  void Set(int i, uint8_t state) { states_[i] = state; }

  /// The composite operation a ∘ b of §3.1: the result of running chunk A
  /// then chunk B. Associative; identity is Identity(size).
  friend StateVector Compose(const StateVector& a, const StateVector& b) {
    StateVector r;
    r.size_ = a.size_;
    for (int i = 0; i < a.size_; ++i) r.states_[i] = b.states_[a.states_[i]];
    return r;
  }

  bool operator==(const StateVector& other) const {
    if (size_ != other.size_) return false;
    for (int i = 0; i < size_; ++i) {
      if (states_[i] != other.states_[i]) return false;
    }
    return true;
  }

 private:
  std::array<uint8_t, kMaxDfaStates> states_ = {};
  uint8_t size_ = 0;
};

}  // namespace parparaw

#endif  // PARPARAW_DFA_STATE_VECTOR_H_
