#ifndef PARPARAW_TESTS_JSON_LINES_FORMAT_H_
#define PARPARAW_TESTS_JSON_LINES_FORMAT_H_

#include <utility>

#include "dfa/dfa.h"
#include "dfa/formats.h"
#include "util/result.h"

namespace parparaw {

/// The hand-written JSON Lines DFA, the reference that the compiled
/// jsonl-twin dialect is proved equivalent to: one record per top-level
/// newline; strings with backslash escapes are opaque; every record byte is
/// field data (records are single-column raw JSON).
inline Result<Format> JsonLinesFormat() {
  DfaBuilder b;
  const int eor = b.AddState("EOR", true);   // before a record (start)
  const int rec = b.AddState("REC", true);   // inside a record, top level
  const int str = b.AddState("STR", false);  // inside a JSON string
  const int esc = b.AddState("ESC", false);  // after a backslash in a string
  b.SetStartState(eor);

  const int g_nl = b.AddSymbol('\n');
  const int g_quote = b.AddSymbol('"');
  const int g_backslash = b.AddSymbol('\\');

  // Newline at top level delimits a record; consecutive newlines (empty
  // lines) are skipped. Inside a string a raw newline is data (lenient:
  // strict JSON forbids it, but splitting there would corrupt the record).
  b.SetTransition(eor, g_nl, eor, kSymbolControl);
  b.SetTransition(rec, g_nl, eor, kSymbolRecordDelimiter | kSymbolControl);
  b.SetTransition(str, g_nl, str, kSymbolData);
  b.SetTransition(esc, g_nl, str, kSymbolData);

  // Quotes toggle string context; they stay part of the record's raw text.
  b.SetTransition(eor, g_quote, str, kSymbolData);
  b.SetTransition(rec, g_quote, str, kSymbolData);
  b.SetTransition(str, g_quote, rec, kSymbolData);
  b.SetTransition(esc, g_quote, str, kSymbolData);

  // Backslash escapes the next symbol inside strings.
  b.SetTransition(eor, g_backslash, rec, kSymbolData);
  b.SetTransition(rec, g_backslash, rec, kSymbolData);
  b.SetTransition(str, g_backslash, esc, kSymbolData);
  b.SetTransition(esc, g_backslash, str, kSymbolData);

  b.SetDefaultTransition(eor, rec, kSymbolData);
  b.SetDefaultTransition(rec, rec, kSymbolData);
  b.SetDefaultTransition(str, str, kSymbolData);
  b.SetDefaultTransition(esc, str, kSymbolData);

  PARPARAW_ASSIGN_OR_RETURN(Dfa dfa, b.Build());
  Format format;
  format.dfa = std::move(dfa);
  format.record_delimiter = '\n';
  format.field_delimiter = '\n';  // single-column records
  for (int s : {rec, str, esc}) format.MarkMidRecordState(s);
  format.name = "json-lines";
  return format;
}

}  // namespace parparaw

#endif  // PARPARAW_TESTS_JSON_LINES_FORMAT_H_
