#include "json/json_lines.h"

#include <algorithm>
#include <cstring>

#include "core/column_plan.h"
#include "core/parser.h"
#include "text/unicode.h"

namespace parparaw {

Result<Format> JsonLinesFormat() {
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

namespace {

inline void SkipWs(std::string_view s, size_t* pos) {
  while (*pos < s.size() &&
         (s[*pos] == ' ' || s[*pos] == '\t' || s[*pos] == '\n' ||
          s[*pos] == '\r')) {
    ++*pos;
  }
}

// Parses a JSON string starting at the opening quote; appends the
// unescaped contents to `out` (when non-null) and advances past the
// closing quote.
Status ParseJsonString(std::string_view s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') {
    return Status::ParseError("expected '\"'");
  }
  ++*pos;
  while (*pos < s.size()) {
    const char c = s[*pos];
    if (c == '"') {
      ++*pos;
      return Status::OK();
    }
    if (c != '\\') {
      if (out != nullptr) out->push_back(c);
      ++*pos;
      continue;
    }
    // Escape sequence.
    if (*pos + 1 >= s.size()) return Status::ParseError("dangling escape");
    const char e = s[*pos + 1];
    *pos += 2;
    char decoded;
    switch (e) {
      case '"':
        decoded = '"';
        break;
      case '\\':
        decoded = '\\';
        break;
      case '/':
        decoded = '/';
        break;
      case 'b':
        decoded = '\b';
        break;
      case 'f':
        decoded = '\f';
        break;
      case 'n':
        decoded = '\n';
        break;
      case 'r':
        decoded = '\r';
        break;
      case 't':
        decoded = '\t';
        break;
      case 'u': {
        if (*pos + 4 > s.size()) return Status::ParseError("short \\u");
        uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = s[*pos + i];
          cp <<= 4;
          if (h >= '0' && h <= '9') {
            cp |= h - '0';
          } else if (h >= 'a' && h <= 'f') {
            cp |= h - 'a' + 10;
          } else if (h >= 'A' && h <= 'F') {
            cp |= h - 'A' + 10;
          } else {
            return Status::ParseError("bad \\u digit");
          }
        }
        *pos += 4;
        // Surrogate pair?
        if (IsUtf16HighSurrogate(static_cast<uint16_t>(cp)) &&
            *pos + 6 <= s.size() && s[*pos] == '\\' && s[*pos + 1] == 'u') {
          uint32_t low = 0;
          bool ok = true;
          for (int i = 0; i < 4 && ok; ++i) {
            const char h = s[*pos + 2 + i];
            low <<= 4;
            if (h >= '0' && h <= '9') {
              low |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              low |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              low |= h - 'A' + 10;
            } else {
              ok = false;
            }
          }
          if (ok && IsUtf16LowSurrogate(static_cast<uint16_t>(low))) {
            *pos += 6;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
        }
        if (out != nullptr) {
          uint8_t buf[4];
          const int n = EncodeUtf8(cp, buf);
          if (n == 0) return Status::ParseError("bad code point");
          out->append(reinterpret_cast<char*>(buf), n);
        }
        continue;
      }
      default:
        return Status::ParseError("unknown escape");
    }
    if (out != nullptr) out->push_back(decoded);
  }
  return Status::ParseError("unterminated string");
}

// Skips any JSON value starting at *pos, or captures a scalar's raw text /
// unescaped string into `out` (nullopt for JSON null).
Status SkipOrCaptureValue(std::string_view s, size_t* pos,
                          std::optional<std::string>* out) {
  SkipWs(s, pos);
  if (*pos >= s.size()) return Status::ParseError("missing value");
  const char c = s[*pos];
  if (c == '"') {
    std::string text;
    PARPARAW_RETURN_NOT_OK(
        ParseJsonString(s, pos, out != nullptr ? &text : nullptr));
    if (out != nullptr) *out = std::move(text);
    return Status::OK();
  }
  if (c == '{' || c == '[') {
    // Structural skip with string awareness.
    int depth = 0;
    while (*pos < s.size()) {
      const char d = s[*pos];
      if (d == '"') {
        PARPARAW_RETURN_NOT_OK(ParseJsonString(s, pos, nullptr));
        continue;
      }
      if (d == '{' || d == '[') ++depth;
      if (d == '}' || d == ']') --depth;
      ++*pos;
      if (depth == 0) {
        if (out != nullptr) {
          // Nested values are surfaced as their raw text.
          return Status::NotImplemented(
              "nested values cannot be extracted as scalars");
        }
        return Status::OK();
      }
    }
    return Status::ParseError("unterminated object/array");
  }
  // Scalar literal: number, true, false, null.
  const size_t begin = *pos;
  while (*pos < s.size() && s[*pos] != ',' && s[*pos] != '}' &&
         s[*pos] != ']' && s[*pos] != ' ' && s[*pos] != '\t' &&
         s[*pos] != '\n' && s[*pos] != '\r') {
    ++*pos;
  }
  if (out != nullptr) {
    const std::string_view literal = s.substr(begin, *pos - begin);
    if (literal == "null") {
      *out = std::nullopt;
    } else {
      *out = std::string(literal);
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::optional<std::string>> ExtractJsonField(std::string_view object,
                                                    std::string_view key) {
  size_t pos = 0;
  SkipWs(object, &pos);
  if (pos >= object.size() || object[pos] != '{') {
    return Status::ParseError("record is not a JSON object");
  }
  ++pos;
  SkipWs(object, &pos);
  if (pos < object.size() && object[pos] == '}') {
    return std::optional<std::string>(std::nullopt);
  }
  while (pos < object.size()) {
    std::string name;
    PARPARAW_RETURN_NOT_OK(ParseJsonString(object, &pos, &name));
    SkipWs(object, &pos);
    if (pos >= object.size() || object[pos] != ':') {
      return Status::ParseError("expected ':'");
    }
    ++pos;
    if (name == key) {
      std::optional<std::string> value;
      PARPARAW_RETURN_NOT_OK(SkipOrCaptureValue(object, &pos, &value));
      // The object must still be well-formed after the value.
      SkipWs(object, &pos);
      if (pos >= object.size() ||
          (object[pos] != ',' && object[pos] != '}')) {
        return Status::ParseError("expected ',' or '}' after value");
      }
      return value;
    }
    PARPARAW_RETURN_NOT_OK(SkipOrCaptureValue(object, &pos, nullptr));
    SkipWs(object, &pos);
    if (pos < object.size() && object[pos] == ',') {
      ++pos;
      SkipWs(object, &pos);
      continue;
    }
    if (pos < object.size() && object[pos] == '}') {
      return std::optional<std::string>(std::nullopt);  // key absent
    }
    return Status::ParseError("expected ',' or '}'");
  }
  return Status::ParseError("unterminated object");
}

Result<ParseOutput> ParseJsonLines(std::string_view input,
                                   const std::vector<JsonField>& fields,
                                   ThreadPool* pool, size_t chunk_size) {
  // Step 1: record identification with the massively parallel pipeline.
  ParseOptions record_options;
  PARPARAW_ASSIGN_OR_RETURN(record_options.format, JsonLinesFormat());
  record_options.pool = pool;
  record_options.chunk_size = chunk_size;
  PARPARAW_ASSIGN_OR_RETURN(ParseOutput records,
                            Parser::Parse(input, record_options));
  Column empty_column(DataType::String());
  empty_column.Allocate(0);
  const Column& raw = records.table.columns.empty()
                          ? empty_column
                          : records.table.columns[0];
  const int64_t rows = records.table.num_rows;
  if (pool == nullptr) pool = ThreadPool::Default();

  // Step 2: shallow field extraction + conversion, parallel over rows.
  ParseOutput output;
  output.work = records.work;
  output.timings = records.timings;
  output.table.num_rows = rows;
  output.table.rejected.assign(rows, 0);
  for (const JsonField& field : fields) {
    output.table.schema.AddField(Field(field.key, field.type));
    Column column(field.type);
    column.Allocate(rows);
    output.table.columns.push_back(std::move(column));
  }
  // Strings need sequential appends; extract values first (parallel),
  // then materialise.
  std::vector<std::vector<std::optional<std::string>>> extracted(
      fields.size());
  for (auto& v : extracted) v.resize(rows);
  std::vector<uint8_t> record_bad(rows, 0);
  ParallelFor(pool, 0, rows, [&](int64_t b, int64_t e) {
    for (int64_t r = b; r < e; ++r) {
      const std::string_view object =
          raw.IsNull(r) ? std::string_view() : raw.StringValue(r);
      for (size_t f = 0; f < fields.size(); ++f) {
        auto value = ExtractJsonField(object, fields[f].key);
        if (!value.ok()) {
          record_bad[r] = 1;
          extracted[f][r] = std::nullopt;
        } else {
          extracted[f][r] = *std::move(value);
        }
      }
    }
  });

  for (size_t f = 0; f < fields.size(); ++f) {
    Column& column = output.table.columns[f];
    if (fields[f].type.id == TypeId::kString) {
      Column rebuilt(fields[f].type);
      for (int64_t r = 0; r < rows; ++r) {
        if (extracted[f][r].has_value()) {
          rebuilt.AppendString(*extracted[f][r]);
        } else {
          rebuilt.AppendNull();
        }
      }
      if (rows == 0) rebuilt.Allocate(0);
      column = std::move(rebuilt);
      continue;
    }
    const int width = FixedWidth(fields[f].type.id);
    uint8_t* slots = column.mutable_data()->data();
    for (int64_t r = 0; r < rows; ++r) {
      bool ok = false;
      if (extracted[f][r].has_value()) {
        ok = ParseSlot(fields[f].type, *extracted[f][r], slots + r * width);
        if (!ok) output.table.rejected[r] = 1;
      }
      if (ok) {
        column.SetValid(r);
      } else {
        column.SetNull(r);
      }
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    if (record_bad[r]) output.table.rejected[r] = 1;
  }
  return output;
}

}  // namespace parparaw
