#ifndef PARPARAW_MFIRA_SWAR_H_
#define PARPARAW_MFIRA_SWAR_H_

#include <cstdint>
#include <vector>

namespace parparaw {

/// \brief Branchless SWAR symbol matcher, §4.5 / Table 2.
///
/// Delimiter-separated formats distinguish only a handful of symbols (field
/// and record delimiters, quotes, escapes), so instead of a 256-entry
/// lookup table the matcher packs the symbols into the bytes of 32-bit
/// "LU-registers" and compares four at a time:
///
///   c    = LU XOR broadcast(s)            (matching byte becomes 0x00)
///   swar = (c - 0x01010101) & ~c & 0x80808080   (Mycroft null-byte test)
///   idx  = bfind(swar) >> 3               (byte position of the match;
///                                          bfind(0) = 0xFFFFFFFF)
///   result = min over registers, then min with the catch-all index.
///
/// The returned index identifies the matched symbol; MatchGroup additionally
/// maps it through the symbol-group row of Table 2 (several symbols may
/// share a group). No branches are executed on the match path.
class SwarMatcher {
 public:
  SwarMatcher() = default;

  /// Builds a matcher over `symbols` (at most 16, all distinct). Index i of
  /// a match corresponds to symbols[i]; the catch-all index is
  /// symbols.size().
  explicit SwarMatcher(const std::vector<uint8_t>& symbols);

  int num_symbols() const { return num_symbols_; }

  /// Index of the catch-all ("any other symbol") result.
  int catch_all_index() const { return num_symbols_; }

  /// Returns the index of `symbol` in the lookup set, or catch_all_index().
  /// Branchless except the register loop (fixed trip count).
  int Match(uint8_t symbol) const;

  /// Raw LU-register words (for tests mirroring Table 2).
  const std::vector<uint32_t>& lookup_registers() const { return lu_; }

 private:
  std::vector<uint32_t> lu_;
  int num_symbols_ = 0;
};

/// Mycroft's has-zero-byte test H(x) from Table 2.
inline uint32_t SwarHasZeroByte(uint32_t x) {
  return (x - 0x01010101u) & ~x & 0x80808080u;
}

}  // namespace parparaw

#endif  // PARPARAW_MFIRA_SWAR_H_
