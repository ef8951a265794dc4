#include "dfa/formats.h"

namespace parparaw {

namespace {

constexpr uint8_t kFlagsRec = kSymbolRecordDelimiter | kSymbolControl;
constexpr uint8_t kFlagsFld = kSymbolFieldDelimiter | kSymbolControl;
constexpr uint8_t kFlagsCtl = kSymbolControl;
constexpr uint8_t kFlagsDat = kSymbolData;

}  // namespace

Result<Format> Rfc4180Format() {
  using rfc4180::kEnc;
  using rfc4180::kEof;
  using rfc4180::kEor;
  using rfc4180::kEsc;
  using rfc4180::kFld;
  using rfc4180::kInv;
  DfaBuilder b;
  // State order matches Table 1's columns; verified by constants in
  // formats.h.
  b.AddState("EOR", /*accepting=*/true);
  b.AddState("ENC", /*accepting=*/false);
  b.AddState("FLD", /*accepting=*/true);
  b.AddState("EOF", /*accepting=*/true);
  b.AddState("ESC", /*accepting=*/true);
  b.AddState("INV", /*accepting=*/false);
  b.SetStartState(kEor);
  b.SetInvalidState(kInv);

  const int g_nl = b.AddSymbol('\n');
  const int g_quote = b.AddSymbol('"');
  const int g_comma = b.AddSymbol(',');

  // Row '\n' of Table 1: EOR ENC EOR EOR EOR INV.
  b.SetTransition(kEor, g_nl, kEor, kFlagsRec);
  b.SetTransition(kEnc, g_nl, kEnc, kFlagsDat);
  b.SetTransition(kFld, g_nl, kEor, kFlagsRec);
  b.SetTransition(kEof, g_nl, kEor, kFlagsRec);
  b.SetTransition(kEsc, g_nl, kEor, kFlagsRec);
  b.SetTransition(kInv, g_nl, kInv, kFlagsCtl);

  // Row '"' of Table 1: ENC ESC INV ENC ENC INV.
  b.SetTransition(kEor, g_quote, kEnc, kFlagsCtl);   // opening quote
  b.SetTransition(kEnc, g_quote, kEsc, kFlagsCtl);   // possibly closing quote
  b.SetTransition(kFld, g_quote, kInv, kFlagsCtl);   // quote in unquoted field
  b.SetTransition(kEof, g_quote, kEnc, kFlagsCtl);   // opening quote
  b.SetTransition(kEsc, g_quote, kEnc, kFlagsDat);   // "" escape: literal quote
  b.SetTransition(kInv, g_quote, kInv, kFlagsCtl);

  // Row ',' of Table 1: EOF ENC EOF EOF EOF INV.
  b.SetTransition(kEor, g_comma, kEof, kFlagsFld);
  b.SetTransition(kEnc, g_comma, kEnc, kFlagsDat);
  b.SetTransition(kFld, g_comma, kEof, kFlagsFld);
  b.SetTransition(kEof, g_comma, kEof, kFlagsFld);
  b.SetTransition(kEsc, g_comma, kEof, kFlagsFld);
  b.SetTransition(kInv, g_comma, kInv, kFlagsCtl);

  // Row '*' of Table 1: FLD ENC FLD FLD INV INV.
  b.SetDefaultTransition(kEor, kFld, kFlagsDat);
  b.SetDefaultTransition(kEnc, kEnc, kFlagsDat);
  b.SetDefaultTransition(kFld, kFld, kFlagsDat);
  b.SetDefaultTransition(kEof, kFld, kFlagsDat);
  b.SetDefaultTransition(kEsc, kInv, kFlagsCtl);  // garbage after closing quote
  b.SetDefaultTransition(kInv, kInv, kFlagsCtl);

  PARPARAW_ASSIGN_OR_RETURN(Dfa dfa, b.Build());
  Format format;
  format.dfa = std::move(dfa);
  format.record_delimiter = '\n';
  format.field_delimiter = ',';
  for (int s : {kFld, kEof, kEsc, kEnc}) format.MarkMidRecordState(s);
  format.name = "rfc4180";
  return format;
}

Result<Format> DsvFormat(const DsvOptions& options) {
  if (options.field_delimiter == options.record_delimiter) {
    return Status::Invalid("field and record delimiter must differ");
  }
  const bool quoting = options.quote != 0;
  const bool comments = options.comment != 0;
  const bool escapes = quoting && options.escape != 0;
  const bool crlf = options.ignore_carriage_return;
  if (escapes &&
      (options.escape == options.quote ||
       options.escape == options.field_delimiter ||
       options.escape == options.record_delimiter ||
       (comments && options.escape == options.comment))) {
    return Status::Invalid("escape character collides with another symbol");
  }
  if (crlf && (options.record_delimiter == '\r' ||
               options.field_delimiter == '\r')) {
    return Status::Invalid("'\\r' cannot be both ignored and a delimiter");
  }

  DfaBuilder b;
  const int eor = b.AddState("EOR", true);
  const int fld = b.AddState("FLD", true);
  const int eof = b.AddState("EOF", true);
  const int enc = quoting ? b.AddState("ENC", false) : -1;
  const int esc = quoting ? b.AddState("ESC", true) : -1;
  const int cmt = comments ? b.AddState("CMT", true) : -1;
  const int bsl = escapes ? b.AddState("BSL", false) : -1;
  const int inv = b.AddState("INV", false);
  b.SetStartState(eor);
  b.SetInvalidState(inv);

  const int g_rec = b.AddSymbol(options.record_delimiter);
  const int g_fld = b.AddSymbol(options.field_delimiter);
  const int g_quote = quoting ? b.AddSymbol(options.quote) : -1;
  const int g_cmt = comments ? b.AddSymbol(options.comment) : -1;
  const int g_esc = escapes ? b.AddSymbol(options.escape) : -1;
  const int g_cr = crlf ? b.AddSymbol('\r') : -1;

  const uint8_t eor_on_rec = options.skip_empty_lines ? kFlagsCtl : kFlagsRec;

  // Record delimiter.
  b.SetTransition(eor, g_rec, eor, eor_on_rec);
  b.SetTransition(fld, g_rec, eor, kFlagsRec);
  b.SetTransition(eof, g_rec, eor, kFlagsRec);
  if (quoting) {
    b.SetTransition(enc, g_rec, enc, kFlagsDat);
    b.SetTransition(esc, g_rec, eor, kFlagsRec);
  }
  if (comments) {
    // End of a comment line: control only, no record is emitted.
    b.SetTransition(cmt, g_rec, eor, kFlagsCtl);
  }
  if (escapes) b.SetTransition(bsl, g_rec, enc, kFlagsDat);
  b.SetTransition(inv, g_rec, inv, kFlagsCtl);

  // Field delimiter.
  b.SetTransition(eor, g_fld, eof, kFlagsFld);
  b.SetTransition(fld, g_fld, eof, kFlagsFld);
  b.SetTransition(eof, g_fld, eof, kFlagsFld);
  if (quoting) {
    b.SetTransition(enc, g_fld, enc, kFlagsDat);
    b.SetTransition(esc, g_fld, eof, kFlagsFld);
  }
  if (comments) b.SetTransition(cmt, g_fld, cmt, kFlagsCtl);
  if (escapes) b.SetTransition(bsl, g_fld, enc, kFlagsDat);
  b.SetTransition(inv, g_fld, inv, kFlagsCtl);

  // Quote.
  if (quoting) {
    b.SetTransition(eor, g_quote, enc, kFlagsCtl);
    b.SetTransition(eof, g_quote, enc, kFlagsCtl);
    if (options.strict_quotes) {
      b.SetTransition(fld, g_quote, inv, kFlagsCtl);
    } else {
      b.SetTransition(fld, g_quote, fld, kFlagsDat);
    }
    b.SetTransition(enc, g_quote, esc, kFlagsCtl);
    b.SetTransition(esc, g_quote, enc, kFlagsDat);
    if (comments) b.SetTransition(cmt, g_quote, cmt, kFlagsCtl);
    if (escapes) b.SetTransition(bsl, g_quote, enc, kFlagsDat);
    b.SetTransition(inv, g_quote, inv, kFlagsCtl);
  }

  // Comment marker: starts a comment only at the beginning of a record.
  if (comments) {
    b.SetTransition(eor, g_cmt, cmt, kFlagsCtl);
    b.SetTransition(fld, g_cmt, fld, kFlagsDat);
    b.SetTransition(eof, g_cmt, fld, kFlagsDat);
    if (quoting) {
      b.SetTransition(enc, g_cmt, enc, kFlagsDat);
      b.SetTransition(esc, g_cmt, inv, kFlagsCtl);
    }
    if (escapes) b.SetTransition(bsl, g_cmt, enc, kFlagsDat);
    b.SetTransition(cmt, g_cmt, cmt, kFlagsCtl);
    b.SetTransition(inv, g_cmt, inv, kFlagsCtl);
  }

  // Escape character (active inside quoted fields only, §4.3-style
  // expressiveness beyond RFC 4180).
  if (escapes) {
    b.SetTransition(eor, g_esc, fld, kFlagsDat);
    b.SetTransition(fld, g_esc, fld, kFlagsDat);
    b.SetTransition(eof, g_esc, fld, kFlagsDat);
    b.SetTransition(enc, g_esc, bsl, kFlagsCtl);  // consume, escape next
    b.SetTransition(esc, g_esc, inv, kFlagsCtl);  // garbage after close
    b.SetTransition(bsl, g_esc, enc, kFlagsDat);  // escaped escape
    if (comments) b.SetTransition(cmt, g_esc, cmt, kFlagsCtl);
    b.SetTransition(inv, g_esc, inv, kFlagsCtl);
  }

  // Carriage return tolerance: '\r' outside quotes is consumed silently,
  // so CRLF-terminated records parse cleanly.
  if (crlf) {
    b.SetTransition(eor, g_cr, eor, kFlagsCtl);
    b.SetTransition(fld, g_cr, fld, kFlagsCtl);
    b.SetTransition(eof, g_cr, eof, kFlagsCtl);
    if (quoting) {
      b.SetTransition(enc, g_cr, enc, kFlagsDat);
      b.SetTransition(esc, g_cr, esc, kFlagsCtl);
    }
    if (escapes) b.SetTransition(bsl, g_cr, enc, kFlagsDat);
    if (comments) b.SetTransition(cmt, g_cr, cmt, kFlagsCtl);
    b.SetTransition(inv, g_cr, inv, kFlagsCtl);
  }

  // Catch-all.
  b.SetDefaultTransition(eor, fld, kFlagsDat);
  b.SetDefaultTransition(fld, fld, kFlagsDat);
  b.SetDefaultTransition(eof, fld, kFlagsDat);
  if (quoting) {
    b.SetDefaultTransition(enc, enc, kFlagsDat);
    b.SetDefaultTransition(esc, inv, kFlagsCtl);
  }
  if (comments) b.SetDefaultTransition(cmt, cmt, kFlagsCtl);
  if (escapes) b.SetDefaultTransition(bsl, enc, kFlagsDat);
  b.SetDefaultTransition(inv, inv, kFlagsCtl);

  PARPARAW_ASSIGN_OR_RETURN(Dfa dfa, b.Build());
  Format format;
  format.dfa = std::move(dfa);
  format.record_delimiter = options.record_delimiter;
  format.field_delimiter = options.field_delimiter;
  format.MarkMidRecordState(fld);
  format.MarkMidRecordState(eof);
  if (quoting) {
    format.MarkMidRecordState(enc);
    format.MarkMidRecordState(esc);
  }
  if (escapes) format.MarkMidRecordState(bsl);
  format.name = "dsv";
  return format;
}

Result<Format> ExtendedLogFormat() {
  DsvOptions options;
  options.field_delimiter = ' ';
  options.record_delimiter = '\n';
  options.quote = '"';
  options.comment = '#';
  options.skip_empty_lines = true;
  options.strict_quotes = false;
  PARPARAW_ASSIGN_OR_RETURN(Format format, DsvFormat(options));
  format.name = "extended-log";
  return format;
}

}  // namespace parparaw
