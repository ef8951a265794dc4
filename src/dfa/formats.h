#ifndef PARPARAW_DFA_FORMATS_H_
#define PARPARAW_DFA_FORMATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dfa/dfa.h"
#include "util/result.h"

namespace parparaw {

/// \brief A parsing format: the DFA plus the metadata the pipeline needs to
/// finish the last record and to materialise terminators.
struct Format {
  Dfa dfa;
  /// The canonical record-delimiter symbol (for carry-over splitting and
  /// synthetic termination of a trailing record).
  uint8_t record_delimiter = '\n';
  /// The canonical field-delimiter symbol.
  uint8_t field_delimiter = ',';
  /// Per DFA state: non-zero means ending the input in that state leaves
  /// an unterminated trailing record that the parser must still emit (e.g.
  /// FLD/EOF/ESC for RFC 4180, but not EOR). States past the end are not
  /// mid-record.
  std::vector<uint8_t> mid_record_states;
  std::string name;

  bool IsMidRecordState(int state) const {
    return static_cast<size_t>(state) < mid_record_states.size() &&
           mid_record_states[state] != 0;
  }
  void MarkMidRecordState(int state) {
    if (static_cast<size_t>(state) >= mid_record_states.size()) {
      mid_record_states.resize(static_cast<size_t>(state) + 1, 0);
    }
    mid_record_states[state] = 1;
  }
};

/// Options for the configurable delimiter-separated-values format family.
struct DsvOptions {
  uint8_t field_delimiter = ',';
  uint8_t record_delimiter = '\n';
  /// Quote character enclosing fields that may contain delimiters;
  /// 0 disables quoting support.
  uint8_t quote = '"';
  /// Line-comment marker recognised at the start of a record ('#' for many
  /// log formats); 0 disables comments.
  uint8_t comment = 0;
  /// When true, a record delimiter immediately following another record
  /// delimiter is consumed without emitting an (empty) record.
  bool skip_empty_lines = false;
  /// When true, a quote inside an unquoted field transitions to the invalid
  /// state (strict RFC 4180); otherwise it is treated as field data.
  bool strict_quotes = true;
  /// When true, carriage returns outside quoted fields are consumed as
  /// control symbols, so CRLF-terminated records parse cleanly ('\r'
  /// inside quotes remains data).
  bool ignore_carriage_return = false;
  /// Escape character active inside quoted fields (e.g. '\\'): the symbol
  /// after it is taken literally. 0 disables escape handling.
  uint8_t escape = 0;
};

/// The exact six-state RFC 4180 DFA of the paper (Fig. 2 / Table 1):
/// states EOR, ENC, FLD, EOF, ESC, INV; symbol groups '\n', '"', ',', *.
Result<Format> Rfc4180Format();

/// A configurable DSV format built from DsvOptions (TSV, pipe-separated,
/// CSV-with-comments, ...).
Result<Format> DsvFormat(const DsvOptions& options);

/// W3C Extended Log Format: space-delimited fields, '#' directive lines,
/// double-quoted strings.
Result<Format> ExtendedLogFormat();

/// State indices of the RFC 4180 DFA, in the column order of Table 1.
namespace rfc4180 {
inline constexpr int kEor = 0;  ///< Just consumed a record delimiter (start).
inline constexpr int kEnc = 1;  ///< Inside an enclosed (quoted) field.
inline constexpr int kFld = 2;  ///< Inside an unquoted field.
inline constexpr int kEof = 3;  ///< Just consumed a field delimiter.
inline constexpr int kEsc = 4;  ///< Just saw a quote inside a quoted field.
inline constexpr int kInv = 5;  ///< Invalid input trap state.
}  // namespace rfc4180

}  // namespace parparaw

#endif  // PARPARAW_DFA_FORMATS_H_
