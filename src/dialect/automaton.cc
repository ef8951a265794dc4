#include "dialect/automaton.h"

#include <algorithm>
#include <map>
#include <queue>
#include <utility>

#include "robust/failpoint.h"

namespace parparaw::dialect {

namespace {

constexpr uint8_t kFlagsRec = kSymbolRecordDelimiter | kSymbolControl;
constexpr uint8_t kFlagsFld = kSymbolFieldDelimiter | kSymbolControl;
constexpr uint8_t kFlagsCtl = kSymbolControl;
constexpr uint8_t kFlagsDat = kSymbolData;
/// Inclusive field boundary (fixed-width): the byte is the last byte of
/// its field AND part of the field's value.
constexpr uint8_t kFlagsFldInclusive = kSymbolFieldDelimiter;

/// Incremental builder for the wide automaton: states first, then a dense
/// default transition per state, then per-byte overrides.
class WideBuilder {
 public:
  int AddState(std::string state_name, bool is_accepting, bool is_mid) {
    a_.names.push_back(std::move(state_name));
    a_.accepting.push_back(is_accepting ? 1 : 0);
    a_.mid_record.push_back(is_mid ? 1 : 0);
    return a_.num_states++;
  }

  void AllocateTables() {
    a_.next.assign(static_cast<size_t>(a_.num_states) * 256, 0);
    a_.flags.assign(static_cast<size_t>(a_.num_states) * 256, 0);
  }

  void SetDefault(int from, int to, uint8_t flags) {
    const size_t base = static_cast<size_t>(from) * 256;
    for (size_t b = 0; b < 256; ++b) {
      a_.next[base + b] = to;
      a_.flags[base + b] = flags;
    }
  }

  void Set(int from, uint8_t byte, int to, uint8_t flags) {
    const size_t idx = static_cast<size_t>(from) * 256 + byte;
    a_.next[idx] = to;
    a_.flags[idx] = flags;
  }

  Automaton Finish(int start, int invalid) {
    a_.start = start;
    a_.invalid = invalid;
    return std::move(a_);
  }

 private:
  Automaton a_;
};

/// Adds the record-delimiter prefix chain for a multi-byte delimiter:
/// `entry` states transition on delimiter[0] into the chain; the final
/// byte lands in `eor` carrying `final_flags`. A broken prefix is invalid
/// input (strict matching — the single-pass flag assignment cannot
/// retract an already-consumed prefix byte).
int AddDelimiterChain(WideBuilder* b, const std::string& delimiter,
                      const char* prefix, bool chain_is_mid,
                      std::vector<int>* chain_states) {
  chain_states->clear();
  for (size_t i = 1; i < delimiter.size(); ++i) {
    chain_states->push_back(b->AddState(
        std::string(prefix) + std::to_string(i), /*is_accepting=*/false,
        chain_is_mid));
  }
  return chain_states->empty() ? -1 : (*chain_states)[0];
}

/// Wires a chain's internal transitions once all states (incl. eor/inv)
/// exist: chain_states[i] consumes delimiter[i + 1]; the last one emits
/// `final_flags` into `eor`, everything else in a chain state is invalid.
void WireDelimiterChain(WideBuilder* b, const std::string& delimiter,
                        const std::vector<int>& chain_states, int eor,
                        int inv, uint8_t final_flags) {
  for (size_t i = 0; i < chain_states.size(); ++i) {
    const int state = chain_states[i];
    b->SetDefault(state, inv, kFlagsCtl);
    const uint8_t expected = static_cast<uint8_t>(delimiter[i + 1]);
    const bool last = i + 1 == chain_states.size();
    b->Set(state, expected, last ? eor : chain_states[i + 1],
           last ? final_flags : kFlagsCtl);
  }
}

Automaton CompileFixedWidth(const DialectSpec& spec) {
  WideBuilder b;
  int64_t total = 0;
  for (int width : spec.fixed_widths) total += width;
  const int record_width = static_cast<int>(total);

  // One state per byte position inside the record; position 0 doubles as
  // the start/EOR state. A record ends with `eol` expecting the record
  // delimiter.
  std::vector<int> position(record_width);
  position[0] = b.AddState("EOR", /*is_accepting=*/true, /*is_mid=*/false);
  for (int p = 1; p < record_width; ++p) {
    position[p] = b.AddState("P" + std::to_string(p), /*is_accepting=*/false,
                             /*is_mid=*/true);
  }
  const int eol = b.AddState("EOL", /*is_accepting=*/true, /*is_mid=*/true);
  std::vector<int> chain;
  AddDelimiterChain(&b, spec.record_delimiter, "R", /*chain_is_mid=*/true,
                    &chain);
  const int inv = b.AddState("INV", /*is_accepting=*/false, /*is_mid=*/false);
  b.AllocateTables();

  // Field boundaries: the last byte of every non-trailing field is an
  // inclusive boundary — it belongs to the field's value AND ends it
  // (kSymbolFieldDelimiter without kSymbolControl). The trailing field
  // ends at the record delimiter like any delimited format.
  std::vector<uint8_t> position_flags(record_width, kFlagsDat);
  int offset = 0;
  for (size_t f = 0; f + 1 < spec.fixed_widths.size(); ++f) {
    offset += spec.fixed_widths[f];
    position_flags[offset - 1] = kFlagsFldInclusive;
  }
  for (int p = 0; p < record_width; ++p) {
    const int to = p + 1 < record_width ? position[p + 1] : eol;
    b.SetDefault(position[p], to, position_flags[p]);
    // The record delimiter arriving before every position is filled is a
    // framing error (a short record); treating it as data would silently
    // shift every later record's frame by one byte.
    b.Set(position[p], static_cast<uint8_t>(spec.record_delimiter[0]), inv,
          kFlagsCtl);
  }
  b.SetDefault(eol, inv, kFlagsCtl);
  b.Set(eol, static_cast<uint8_t>(spec.record_delimiter[0]),
        chain.empty() ? position[0] : chain[0],
        chain.empty() ? kFlagsRec : kFlagsCtl);
  WireDelimiterChain(&b, spec.record_delimiter, chain, position[0], inv,
                     kFlagsRec);
  b.SetDefault(inv, inv, kFlagsCtl);
  return b.Finish(position[0], inv);
}

Automaton CompileDelimited(const DialectSpec& spec) {
  const bool quoting = spec.quote != 0;
  const bool verbatim = quoting && spec.verbatim_quotes;
  const bool backslash =
      quoting && spec.escape_style == EscapeStyle::kBackslash;
  const bool comments = spec.comment != 0;
  const bool has_field = spec.field_delimiter != 0;
  const std::string& delim = spec.record_delimiter;
  const uint8_t d0 = static_cast<uint8_t>(delim[0]);
  const bool multi = delim.size() > 1;

  WideBuilder b;
  const int eor = b.AddState("EOR", true, false);
  const int fld = b.AddState("FLD", true, true);
  const int eof = has_field ? b.AddState("EOF", true, true) : -1;
  // Verbatim quoting keeps the quote bytes in the value and closes
  // directly back into FLD, so there is no post-closing-quote state.
  const int enc = quoting ? b.AddState("ENC", false, true) : -1;
  const int esc = quoting && !verbatim ? b.AddState("ESC", true, true) : -1;
  const int cmt = comments ? b.AddState("CMT", true, false) : -1;
  const int bsl = backslash ? b.AddState("BSL", false, true) : -1;

  // Contexts a record delimiter may start in decide the flags its final
  // byte carries: ending a record emits kSymbolRecordDelimiter; an empty
  // line under skip_empty_lines or a comment line ends silently.
  std::vector<int> emit_chain;
  std::vector<int> skip_chain;
  const bool needs_skip_chain =
      multi && (spec.skip_empty_lines || comments);
  if (multi) {
    AddDelimiterChain(&b, delim, "R", /*chain_is_mid=*/true, &emit_chain);
  }
  if (needs_skip_chain) {
    AddDelimiterChain(&b, delim, "S", /*chain_is_mid=*/false, &skip_chain);
  }
  const int inv = b.AddState("INV", false, false);
  b.AllocateTables();

  // Where consuming delimiter[0] leads from an emitting / silent context,
  // and the flags it carries there.
  const int emit_to = multi ? emit_chain[0] : eor;
  const uint8_t emit_flags = multi ? kFlagsCtl : kFlagsRec;
  const int skip_to = needs_skip_chain ? skip_chain[0] : eor;
  const uint8_t skip_flags = kFlagsCtl;

  // EOR: start of a record.
  b.SetDefault(eor, fld, kFlagsDat);
  if (spec.skip_empty_lines) {
    b.Set(eor, d0, skip_to, skip_flags);
  } else {
    b.Set(eor, d0, emit_to, emit_flags);
  }
  if (has_field) b.Set(eor, spec.field_delimiter, eof, kFlagsFld);
  if (quoting) b.Set(eor, spec.quote, enc, verbatim ? kFlagsDat : kFlagsCtl);
  if (comments) b.Set(eor, spec.comment, cmt, kFlagsCtl);

  // FLD: inside an unquoted field.
  b.SetDefault(fld, fld, kFlagsDat);
  b.Set(fld, d0, emit_to, emit_flags);
  if (has_field) b.Set(fld, spec.field_delimiter, eof, kFlagsFld);
  if (quoting) {
    if (verbatim) {
      b.Set(fld, spec.quote, enc, kFlagsDat);
    } else if (spec.strict_quotes) {
      b.Set(fld, spec.quote, inv, kFlagsCtl);
    } else {
      b.Set(fld, spec.quote, fld, kFlagsDat);
    }
  }

  // EOF: just consumed a field delimiter.
  if (has_field) {
    b.SetDefault(eof, fld, kFlagsDat);
    b.Set(eof, d0, emit_to, emit_flags);
    b.Set(eof, spec.field_delimiter, eof, kFlagsFld);
    if (quoting) {
      b.Set(eof, spec.quote, enc, verbatim ? kFlagsDat : kFlagsCtl);
    }
  }

  // ENC: inside a quoted field — everything is data, including every byte
  // of the record delimiter.
  if (quoting) {
    b.SetDefault(enc, enc, kFlagsDat);
    if (verbatim) {
      b.Set(enc, spec.quote, fld, kFlagsDat);
    } else {
      b.Set(enc, spec.quote, esc, kFlagsCtl);
    }
    if (backslash) b.Set(enc, spec.escape_char, bsl,
                         verbatim ? kFlagsDat : kFlagsCtl);
  }

  // ESC: just saw a quote inside a quoted field — a doubled quote is a
  // literal quote, a delimiter closes the field, anything else is garbage
  // after the closing quote.
  if (esc >= 0) {
    b.SetDefault(esc, inv, kFlagsCtl);
    b.Set(esc, spec.quote, enc, kFlagsDat);
    b.Set(esc, d0, emit_to, emit_flags);
    if (has_field) b.Set(esc, spec.field_delimiter, eof, kFlagsFld);
  }

  // BSL: after the escape character inside a quoted field — the next byte
  // is taken literally.
  if (backslash) {
    b.SetDefault(bsl, enc, kFlagsDat);
  }

  // CMT: a comment line — everything up to the record delimiter is
  // consumed silently, and the delimiter itself emits no record.
  if (comments) {
    b.SetDefault(cmt, cmt, kFlagsCtl);
    b.Set(cmt, d0, skip_to, skip_flags);
  }

  b.SetDefault(inv, inv, kFlagsCtl);
  if (multi) {
    WireDelimiterChain(&b, delim, emit_chain, eor, inv, kFlagsRec);
  }
  if (needs_skip_chain) {
    WireDelimiterChain(&b, delim, skip_chain, eor, inv, kFlagsCtl);
  }
  return b.Finish(eor, inv);
}

/// Byte-equivalence classes: bytes whose (next, flags) columns agree in
/// every state behave identically and share a class — the Table 1 symbol
/// grouping generalised to arbitrary automata. Returns class id per byte
/// and one representative byte per class; classes are ordered by first
/// occurrence so the numbering is deterministic.
struct ByteClasses {
  std::array<int, 256> of_byte;
  std::vector<uint8_t> representative;
};

ByteClasses ComputeByteClasses(const Automaton& a) {
  ByteClasses classes;
  std::map<std::string, int> seen;
  for (int byte = 0; byte < 256; ++byte) {
    std::string key;
    key.reserve(static_cast<size_t>(a.num_states) * 5);
    for (int s = 0; s < a.num_states; ++s) {
      const size_t idx = static_cast<size_t>(s) * 256 + byte;
      const int next = a.next[idx];
      key.push_back(static_cast<char>(next & 0xFF));
      key.push_back(static_cast<char>((next >> 8) & 0xFF));
      key.push_back(static_cast<char>((next >> 16) & 0xFF));
      key.push_back(static_cast<char>((next >> 24) & 0xFF));
      key.push_back(static_cast<char>(a.flags[idx]));
    }
    auto [it, inserted] =
        seen.emplace(std::move(key), static_cast<int>(classes.representative.size()));
    if (inserted) classes.representative.push_back(static_cast<uint8_t>(byte));
    classes.of_byte[byte] = it->second;
  }
  return classes;
}

/// Drops states unreachable from the start state (e.g. the INV trap of a
/// dialect whose every byte is legal), keeping original ordering.
Automaton PruneUnreachable(const Automaton& a) {
  std::vector<uint8_t> reachable(a.num_states, 0);
  std::queue<int> frontier;
  reachable[a.start] = 1;
  frontier.push(a.start);
  while (!frontier.empty()) {
    const int s = frontier.front();
    frontier.pop();
    for (int byte = 0; byte < 256; ++byte) {
      const int to = a.Next(s, static_cast<uint8_t>(byte));
      if (!reachable[to]) {
        reachable[to] = 1;
        frontier.push(to);
      }
    }
  }
  std::vector<int> remap(a.num_states, -1);
  int kept = 0;
  for (int s = 0; s < a.num_states; ++s) {
    if (reachable[s]) remap[s] = kept++;
  }
  if (kept == a.num_states) return a;

  Automaton out;
  out.num_states = kept;
  out.start = remap[a.start];
  out.invalid = a.invalid >= 0 ? remap[a.invalid] : -1;
  out.names.resize(kept);
  out.accepting.resize(kept);
  out.mid_record.resize(kept);
  out.next.resize(static_cast<size_t>(kept) * 256);
  out.flags.resize(static_cast<size_t>(kept) * 256);
  for (int s = 0; s < a.num_states; ++s) {
    if (remap[s] < 0) continue;
    const int t = remap[s];
    out.names[t] = a.names[s];
    out.accepting[t] = a.accepting[s];
    out.mid_record[t] = a.mid_record[s];
    for (int byte = 0; byte < 256; ++byte) {
      const size_t src = static_cast<size_t>(s) * 256 + byte;
      const size_t dst = static_cast<size_t>(t) * 256 + byte;
      out.next[dst] = remap[a.next[src]];
      out.flags[dst] = a.flags[src];
    }
  }
  return out;
}

}  // namespace

int Automaton::Run(int state, const uint8_t* data, size_t size) const {
  int s = state;
  for (size_t i = 0; i < size; ++i) s = Next(s, data[i]);
  return s;
}

Result<Automaton> CompileDialect(const DialectSpec& spec) {
  PARPARAW_FAILPOINT("dialect.compile");
  PARPARAW_RETURN_NOT_OK(spec.Validate());
  if (!spec.fixed_widths.empty()) return CompileFixedWidth(spec);
  return CompileDelimited(spec);
}

Result<Automaton> Minimize(const Automaton& automaton, ThreadPool* pool) {
  PARPARAW_FAILPOINT("dialect.minimise");
  if (automaton.num_states <= 0) {
    return Status::Invalid("cannot minimise an empty automaton");
  }
  const Automaton a = PruneUnreachable(automaton);
  const ByteClasses classes = ComputeByteClasses(a);
  const int num_classes = static_cast<int>(classes.representative.size());
  const int n = a.num_states;
  if (pool == nullptr) pool = ThreadPool::Default();

  // Initial partition: acceptance, trailing-record semantics, and the flag
  // row over the compressed alphabet. Flags are per-transition outputs
  // (Mealy), so states with different rows can never merge and belong to
  // different blocks from round zero.
  std::vector<int> block(n, 0);
  std::vector<std::string> keys(n);
  const auto renumber = [&]() -> int {
    std::map<std::string, int> ids;
    for (int s = 0; s < n; ++s) {
      auto [it, inserted] =
          ids.emplace(keys[s], static_cast<int>(ids.size()));
      (void)inserted;
      block[s] = it->second;
    }
    return static_cast<int>(ids.size());
  };

  PARPARAW_RETURN_NOT_OK(ParallelForEach(pool, 0, n, [&](int64_t s) {
    std::string key;
    key.reserve(2 + num_classes);
    key.push_back(a.accepting[s] ? 'A' : 'a');
    key.push_back(a.mid_record[s] ? 'M' : 'm');
    for (int c = 0; c < num_classes; ++c) {
      key.push_back(static_cast<char>(
          a.FlagsFor(static_cast<int>(s), classes.representative[c])));
    }
    keys[s] = std::move(key);
  }));
  int num_blocks = renumber();

  // Refinement to a fixpoint: each round recomputes every state's
  // signature — own block plus successor block per byte class — in
  // parallel (the Martens & Wijs partition-refinement shape), then
  // renumbers. At most n rounds; each round strictly grows the partition
  // or terminates.
  while (true) {
    PARPARAW_RETURN_NOT_OK(ParallelForEach(pool, 0, n, [&](int64_t s) {
      std::string key;
      key.reserve((num_classes + 1) * 4);
      const auto append_int = [&key](int value) {
        key.push_back(static_cast<char>(value & 0xFF));
        key.push_back(static_cast<char>((value >> 8) & 0xFF));
        key.push_back(static_cast<char>((value >> 16) & 0xFF));
      };
      append_int(block[s]);
      for (int c = 0; c < num_classes; ++c) {
        append_int(block[a.Next(static_cast<int>(s),
                                classes.representative[c])]);
      }
      keys[s] = std::move(key);
    }));
    const int next_blocks = renumber();
    if (next_blocks == num_blocks) break;
    num_blocks = next_blocks;
  }

  // Quotient automaton: one state per block, numbered by first occurrence
  // (so the start state's block keeps a stable, low index).
  std::vector<int> order(num_blocks, -1);
  std::vector<int> state_of_block(num_blocks, -1);
  int next_id = 0;
  for (int s = 0; s < n; ++s) {
    if (order[block[s]] < 0) {
      order[block[s]] = next_id++;
      state_of_block[order[block[s]]] = s;
    }
  }
  Automaton out;
  out.num_states = num_blocks;
  out.start = order[block[a.start]];
  out.invalid = a.invalid >= 0 ? order[block[a.invalid]] : -1;
  out.names.resize(num_blocks);
  out.accepting.resize(num_blocks);
  out.mid_record.resize(num_blocks);
  out.next.resize(static_cast<size_t>(num_blocks) * 256);
  out.flags.resize(static_cast<size_t>(num_blocks) * 256);
  for (int t = 0; t < num_blocks; ++t) {
    const int rep = state_of_block[t];
    out.names[t] = a.names[rep];
    out.accepting[t] = a.accepting[rep];
    out.mid_record[t] = a.mid_record[rep];
    for (int byte = 0; byte < 256; ++byte) {
      const size_t src = static_cast<size_t>(rep) * 256 + byte;
      const size_t dst = static_cast<size_t>(t) * 256 + byte;
      out.next[dst] = order[block[a.next[src]]];
      out.flags[dst] = a.flags[src];
    }
  }
  return out;
}

EquivalenceResult CheckEquivalent(const Automaton& a, const Automaton& b) {
  EquivalenceResult result;
  if (a.num_states == 0 || b.num_states == 0) {
    result.equivalent = false;
    result.detail = "cannot compare an empty automaton";
    return result;
  }
  // BFS over the product of reachable state pairs; parent links rebuild
  // the shortest witness input reaching any mismatch.
  struct Visit {
    int sa;
    int sb;
    int parent;
    uint8_t byte;
  };
  std::vector<Visit> visits;
  std::vector<uint8_t> seen(
      static_cast<size_t>(a.num_states) * b.num_states, 0);
  const auto witness_to = [&](int visit_index) {
    std::string path;
    for (int v = visit_index; v > 0; v = visits[v].parent) {
      path.push_back(static_cast<char>(visits[v].byte));
    }
    std::reverse(path.begin(), path.end());
    return path;
  };
  visits.push_back({a.start, b.start, -1, 0});
  seen[static_cast<size_t>(a.start) * b.num_states + b.start] = 1;
  for (size_t head = 0; head < visits.size(); ++head) {
    const Visit visit = visits[head];
    const int sa = visit.sa;
    const int sb = visit.sb;
    const std::string here =
        "'" + a.names[sa] + "' vs '" + b.names[sb] + "'";
    if ((a.accepting[sa] != 0) != (b.accepting[sb] != 0)) {
      result.equivalent = false;
      result.witness = witness_to(static_cast<int>(head));
      result.detail = "acceptance differs at states " + here;
      return result;
    }
    if ((a.mid_record[sa] != 0) != (b.mid_record[sb] != 0)) {
      result.equivalent = false;
      result.witness = witness_to(static_cast<int>(head));
      result.detail = "trailing-record (mid-record) semantics differ at "
                      "states " + here;
      return result;
    }
    for (int byte = 0; byte < 256; ++byte) {
      const uint8_t fa = a.FlagsFor(sa, static_cast<uint8_t>(byte));
      const uint8_t fb = b.FlagsFor(sb, static_cast<uint8_t>(byte));
      if (fa != fb) {
        result.equivalent = false;
        result.witness =
            witness_to(static_cast<int>(head)) + static_cast<char>(byte);
        result.detail = "symbol flags differ at states " + here +
                        " on byte " + std::to_string(byte) + ": " +
                        std::to_string(fa) + " vs " + std::to_string(fb);
        return result;
      }
      const int na = a.Next(sa, static_cast<uint8_t>(byte));
      const int nb = b.Next(sb, static_cast<uint8_t>(byte));
      const size_t pair = static_cast<size_t>(na) * b.num_states + nb;
      if (!seen[pair]) {
        seen[pair] = 1;
        visits.push_back({na, nb, static_cast<int>(head),
                          static_cast<uint8_t>(byte)});
      }
    }
  }
  return result;
}

Automaton FromFormat(const Format& format) {
  const Dfa& dfa = format.dfa;
  Automaton a;
  a.num_states = dfa.num_states();
  a.start = dfa.start_state();
  a.invalid = dfa.invalid_state();
  a.names.resize(a.num_states);
  a.accepting.resize(a.num_states);
  a.mid_record.resize(a.num_states);
  a.next.resize(static_cast<size_t>(a.num_states) * 256);
  a.flags.resize(static_cast<size_t>(a.num_states) * 256);
  for (int s = 0; s < a.num_states; ++s) {
    a.names[s] = dfa.state_name(s);
    a.accepting[s] = dfa.IsAccepting(s) ? 1 : 0;
    a.mid_record[s] = format.IsMidRecordState(s) ? 1 : 0;
    for (int byte = 0; byte < 256; ++byte) {
      const int group = dfa.SymbolGroup(static_cast<uint8_t>(byte));
      const size_t idx = static_cast<size_t>(s) * 256 + byte;
      a.next[idx] = dfa.NextState(s, group);
      a.flags[idx] = dfa.Flags(s, group);
    }
  }
  return a;
}

Result<Format> PackFormat(const Automaton& automaton,
                          const DialectSpec& spec) {
  const ByteClasses classes = ComputeByteClasses(automaton);
  const int num_classes = static_cast<int>(classes.representative.size());

  // The most populous class becomes the catch-all "*" row; every byte of
  // every other class is registered as an explicit symbol.
  std::array<int, 256> class_sizes{};
  for (int byte = 0; byte < 256; ++byte) ++class_sizes[classes.of_byte[byte]];
  int catch_all = 0;
  for (int c = 1; c < num_classes; ++c) {
    if (class_sizes[c] > class_sizes[catch_all]) catch_all = c;
  }

  DfaBuilder builder;
  for (int s = 0; s < automaton.num_states; ++s) {
    builder.AddState(automaton.names[s], automaton.accepting[s] != 0);
  }
  builder.SetStartState(automaton.start);
  if (automaton.invalid >= 0) builder.SetInvalidState(automaton.invalid);

  std::vector<int> group_of_class(num_classes, -1);
  for (int byte = 0; byte < 256; ++byte) {
    const int c = classes.of_byte[byte];
    if (c == catch_all) continue;
    if (group_of_class[c] < 0) {
      group_of_class[c] = builder.AddSymbol(static_cast<uint8_t>(byte));
    } else {
      builder.AddSymbolToGroup(static_cast<uint8_t>(byte),
                               group_of_class[c]);
    }
  }
  for (int s = 0; s < automaton.num_states; ++s) {
    for (int c = 0; c < num_classes; ++c) {
      const uint8_t rep = classes.representative[c];
      if (c == catch_all) {
        builder.SetDefaultTransition(s, automaton.Next(s, rep),
                                     automaton.FlagsFor(s, rep));
      } else {
        builder.SetTransition(s, group_of_class[c], automaton.Next(s, rep),
                              automaton.FlagsFor(s, rep));
      }
    }
  }
  PARPARAW_ASSIGN_OR_RETURN(Dfa dfa, builder.Build());

  Format format;
  format.dfa = std::move(dfa);
  format.record_delimiter = spec.record_delimiter_final();
  format.field_delimiter = spec.field_delimiter != 0
                               ? spec.field_delimiter
                               : spec.record_delimiter_final();
  for (int s = 0; s < automaton.num_states; ++s) {
    if (automaton.mid_record[s]) format.MarkMidRecordState(s);
  }
  format.name = spec.name;
  return format;
}

}  // namespace parparaw::dialect
