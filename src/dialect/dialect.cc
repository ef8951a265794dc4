#include "dialect/dialect.h"

#include <mutex>
#include <string>
#include <utility>

#include "baseline/row_buffer.h"
#include "obs/obs.h"
#include "text/unicode.h"

namespace parparaw::dialect {

namespace {

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<DialectSpec>& Registry() {
  static std::vector<DialectSpec> registry;
  return registry;
}

}  // namespace

Result<CompiledDialect> Compile(const DialectSpec& spec, ThreadPool* pool,
                                obs::MetricsRegistry* metrics) {
  PARPARAW_RETURN_NOT_OK(spec.Validate());
  CompiledDialect out;
  out.spec = spec;
  PARPARAW_ASSIGN_OR_RETURN(Automaton wide, CompileDialect(spec));
  out.original_states = wide.num_states;
  PARPARAW_ASSIGN_OR_RETURN(out.automaton, Minimize(wide, pool));
  out.minimized_states = out.automaton.num_states;

  // Machine-checked proof that minimisation preserved the language and
  // every flag annotation. A failure here is a compiler bug, not bad user
  // input, hence Internal.
  const EquivalenceResult proof = CheckEquivalent(wide, out.automaton);
  if (!proof.equivalent) {
    return Status::Internal("dialect '" + spec.name +
                            "': minimised automaton diverges from the "
                            "compiled one: " + proof.detail);
  }

  if (out.automaton.num_states <= kMaxDfaStates) {
    Result<Format> packed = PackFormat(out.automaton, spec);
    if (packed.ok()) {
      out.format = std::move(packed).ValueOrDie();
      out.within_budget = true;
    } else if (packed.status().code() != StatusCode::kInvalidArgument) {
      return packed.status();
    }
    // kInvalidArgument: over the symbol budget — scalar fallback.
  }
  obs::AddCount(metrics, "dialect.compiled", 1);
  obs::SetGauge(metrics, "dialect.states", out.minimized_states);
  return out;
}

Result<std::optional<CompiledDialect>> ResolveParseDialect(
    ParseOptions* options) {
  if (!options->dialect.has_value()) {
    return std::optional<CompiledDialect>();
  }
  if (options->format.dfa.num_states() != 0) {
    return Status::Invalid(
        "ParseOptions sets both a format and a dialect; pick one (the "
        "dialect compiles into the format)");
  }
  PARPARAW_ASSIGN_OR_RETURN(
      CompiledDialect compiled,
      Compile(*options->dialect, options->pool, options->metrics));
  options->dialect.reset();
  if (compiled.within_budget) {
    options->format = compiled.format;
    return std::optional<CompiledDialect>();
  }
  obs::AddCount(options->metrics, "dialect.fallback", 1);
  return std::optional<CompiledDialect>(std::move(compiled));
}

Result<ParseOutput> FallbackParse(std::string_view input,
                                  const CompiledDialect& dialect,
                                  const ParseOptions& options) {
  ParseOptions resolved = options;
  resolved.dialect.reset();
  if (resolved.error_policy == robust::ErrorPolicy::kQuarantine) {
    return Status::Invalid(
        "dialect '" + dialect.spec.name +
        "' exceeds the SIMD register budget and parses on the scalar "
        "fallback, which does not support ErrorPolicy::kQuarantine");
  }

  std::string transcoded;
  if (resolved.encoding == TextEncoding::kUtf16Le) {
    PARPARAW_ASSIGN_OR_RETURN(transcoded,
                              TranscodeUtf16LeToUtf8(nullptr, input));
    input = transcoded;
    resolved.encoding = TextEncoding::kUtf8;
  }

  const uint8_t line_delimiter = dialect.spec.record_delimiter_final();
  size_t skipped_prefix = 0;
  int64_t skip_rows = resolved.skip_rows;
  while (skip_rows > 0 && !input.empty()) {
    const size_t pos = input.find(static_cast<char>(line_delimiter));
    if (pos == std::string_view::npos) {
      skipped_prefix += input.size();
      input = std::string_view();
      break;
    }
    input.remove_prefix(pos + 1);
    skipped_prefix += pos + 1;
    --skip_rows;
  }

  // The pipeline's UTF-8 chunking starts the stream at the first lead
  // byte (a leading continuation byte is outside every chunk and never
  // tagged); the scalar walk must agree byte for byte.
  if (resolved.encoding == TextEncoding::kUtf8 && !input.empty()) {
    const size_t aligned = AdjustChunkBeginUtf8(
        reinterpret_cast<const uint8_t*>(input.data()), input.size(), 0);
    input.remove_prefix(aligned);
    skipped_prefix += aligned;
  }

  obs::TraceSpan walk(resolved.tracer, "dialect.walk", "pipeline", nullptr,
                      nullptr, obs::Timing::kTimed,
                      static_cast<int64_t>(input.size()));
  ParseOutput output;
  output.work.input_bytes = static_cast<int64_t>(input.size());

  const Automaton& a = dialect.automaton;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(input.data());
  const size_t size = input.size();
  RecordBuffer records;
  int state = a.start;
  int64_t first_invalid = -1;
  // Offset where the current (possibly unterminated) record starts; only
  // meaningful while the automaton is mid-record.
  size_t record_start = 0;
  for (size_t i = 0; i < size; ++i) {
    const uint8_t byte = data[i];
    const uint8_t flags = a.FlagsFor(state, byte);
    const int next = a.Next(state, byte);
    if (flags & kSymbolRecordDelimiter) {
      records.EndField();
      records.EndRecord();
    } else if (flags & kSymbolFieldDelimiter) {
      // An inclusive boundary (no control bit) is the field's last value
      // byte as well as its terminator — the fixed-width shape.
      if ((flags & kSymbolControl) == 0) records.AppendFieldByte(byte);
      records.EndField();
    } else if (flags & kSymbolControl) {
      // Quote/escape/comment machinery: not part of any value.
    } else {
      records.AppendFieldByte(byte);
    }
    if (first_invalid < 0 && a.invalid >= 0 && next == a.invalid &&
        state != a.invalid) {
      first_invalid = static_cast<int64_t>(i);
    }
    state = next;
    if (!a.mid_record[state]) record_start = i + 1;
  }
  const bool ends_mid_record = a.mid_record[state] != 0;
  if (ends_mid_record) {
    if (resolved.exclude_trailing_record) {
      output.remainder_offset =
          static_cast<int64_t>(skipped_prefix + record_start);
    } else {
      records.EndField();
      records.EndRecord();
    }
  } else if (resolved.exclude_trailing_record) {
    output.remainder_offset = static_cast<int64_t>(skipped_prefix + size);
  }
  if (resolved.validate) {
    if (first_invalid >= 0) {
      return Status::ParseError("invalid symbol at byte offset " +
                                std::to_string(first_invalid));
    }
    if (!a.accepting[state]) {
      return Status::ParseError("input ends in non-accepting state '" +
                                a.names[state] + "'");
    }
  }
  output.timings.parse_ms = walk.Stop() * 1e3;

  obs::TraceSpan convert(resolved.tracer, "dialect.convert", "pipeline",
                         nullptr, nullptr, obs::Timing::kTimed);
  PARPARAW_ASSIGN_OR_RETURN(
      output.table, BuildTableFromRecords(records, resolved, &output));
  output.timings.convert_ms = convert.Stop() * 1e3;
  return output;
}

void RegisterDialect(const DialectSpec& spec) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (DialectSpec& existing : Registry()) {
    if (existing.name == spec.name) {
      existing = spec;
      return;
    }
  }
  Registry().push_back(spec);
}

std::vector<DialectSpec> RegisteredDialects() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry();
}

void ClearRegisteredDialects() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().clear();
}

}  // namespace parparaw::dialect
