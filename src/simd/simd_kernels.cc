#include "simd/simd_kernels.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "simd/kernel_common.h"

namespace parparaw::simd {

namespace {

/// Composes two 16-entry transition tables: out[s] = b[a[s]].
void ComposeTables(const uint8_t a[16], const uint8_t b[16], uint8_t out[16]) {
  for (int s = 0; s < 16; ++s) out[s] = b[a[s]];
}

/// Reads mask word w for a reader of its bits `keep` while neighbouring
/// ranges may still be merging theirs: a shared word (keep is not all
/// ones) is loaded through std::atomic_ref.
SymbolMasks LoadMasks(const SymbolMasks* masks, size_t w, uint64_t keep) {
  if (keep == ~uint64_t{0}) return masks[w];
  const auto load = [](const uint64_t& word) {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(word))
        .load(std::memory_order_relaxed);
  };
  return SymbolMasks{load(masks[w].record), load(masks[w].field),
                     load(masks[w].control)};
}

}  // namespace

KernelPlan BuildKernelPlan(const Dfa& dfa) {
  KernelPlan plan;
  plan.num_states = dfa.num_states();
  plan.invalid_state = dfa.invalid_state();
  plan.start_state = dfa.start_state();
  plan.catchall_group = dfa.num_symbol_groups() - 1;

  // Trap-masking is only sound when the invalid state is absorbing; the
  // builder marks it by convention but does not enforce it, so verify.
  if (plan.invalid_state >= 0) {
    bool absorbing = true;
    for (int g = 0; g < dfa.num_symbol_groups(); ++g) {
      if (dfa.NextState(plan.invalid_state, g) != plan.invalid_state) {
        absorbing = false;
        break;
      }
    }
    if (absorbing) plan.trap_state = static_cast<uint8_t>(plan.invalid_state);
  }

  for (int b = 0; b < 256; ++b) {
    const int group = dfa.SymbolGroup(static_cast<uint8_t>(b));
    plan.group_of_byte[b] = static_cast<uint8_t>(group);
    if (group != plan.catchall_group &&
        plan.num_specials < kMaxDfaSymbols) {
      plan.special_symbols[plan.num_specials++] = static_cast<uint8_t>(b);
    }
  }

  for (int g = 0; g < dfa.num_symbol_groups(); ++g) {
    for (int s = 0; s < 16; ++s) {
      // Entries past num_states stay zero; they are never used as lookup
      // indices (lanes only ever hold live states) but keep the table
      // total.
      plan.group_tables[g][s] =
          s < plan.num_states ? static_cast<uint8_t>(dfa.NextState(s, g)) : 0;
    }
  }

  // Catch-all transition powers for the whole-block fast path.
  uint8_t pow[16];
  std::memcpy(pow, plan.group_tables[plan.catchall_group], 16);
  for (int doubling = 0; doubling < 4; ++doubling) {  // T^2, T^4, T^8, T^16
    ComposeTables(pow, pow, pow);
  }
  std::memcpy(plan.catchall_pow16, pow, 16);
  ComposeTables(pow, pow, pow);  // T^32
  std::memcpy(plan.catchall_pow32, pow, 16);

  for (int s = 0; s < plan.num_states; ++s) {
    for (int b = 0; b < 256; ++b) {
      const int group = plan.group_of_byte[b];
      plan.next_flat[(s << 8) | b] =
          static_cast<uint8_t>(dfa.NextState(s, group));
      plan.flags_flat[(s << 8) | b] = dfa.Flags(s, group);
    }
    plan.state_skippable[s] =
        dfa.NextState(s, plan.catchall_group) == s &&
        dfa.Flags(s, plan.catchall_group) == 0;
  }
  return plan;
}

namespace internal {

ChunkKernelResult ChunkKernelSwar(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out) {
  ChunkKernelResult result;
  alignas(16) uint8_t lanes[16];
  InitIdentityLanes(plan, lanes);

  // Multi-state phase: advance all lanes per byte until they converge.
  size_t i = begin;
  while (i < end && !LanesConverged(plan, lanes)) {
    const uint8_t* table = plan.group_tables[plan.group_of_byte[data[i]]];
    for (int l = 0; l < 16; ++l) lanes[l] = table[lanes[l]];
    ++i;
  }

  if (!LanesConverged(plan, lanes)) {
    result.vector = LanesToVector(plan, lanes);
    return result;
  }

  // Converged: the suffix is entry-state-independent (up to trapped
  // entries), so fuse the bitmap pass — single-state simulation writing
  // the masks, with SWAR word probes skipping runs of plain data symbols
  // in skippable states.
  result.spec_offset = static_cast<int64_t>(i);
  result.spec_state = lanes[plan.start_state];
  uint8_t state = lanes[plan.start_state];
  MaskWriter out(masks_out, i, end);
  while (i < end) {
    if (plan.state_skippable[state] && i + 8 <= end) {
      const uint64_t hits = SpecialMaskSwar(plan, data + i);
      if (hits == 0) {
        i += 8;  // bits stay zero, state unchanged
        continue;
      }
      i += CleanPrefixSwar(hits);  // jump to the first special symbol
    }
    FusedStepByte(plan, data, i, &out, &state, &result.first_invalid);
    ++i;
  }
  out.Finish();
  result.vector = ConvergedVector(plan, lanes, state);
  return result;
}

}  // namespace internal

ChunkKernelFn GetChunkKernel(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return nullptr;
    case KernelLevel::kSwar:
      return internal::ChunkKernelSwar;
    case KernelLevel::kSse42:
#ifdef PARPARAW_HAVE_SSE42_KERNEL
      return internal::ChunkKernelSse42;
#else
      return internal::ChunkKernelSwar;
#endif
    case KernelLevel::kAvx2:
#ifdef PARPARAW_HAVE_AVX2_KERNEL
      return internal::ChunkKernelAvx2;
#else
      return internal::ChunkKernelSwar;
#endif
    case KernelLevel::kNeon:
#ifdef PARPARAW_HAVE_NEON_KERNEL
      return internal::ChunkKernelNeon;
#else
      return internal::ChunkKernelSwar;
#endif
  }
  return internal::ChunkKernelSwar;
}

FlagWalkResult WalkEmitFlags(const KernelPlan& plan, const uint8_t* data,
                             size_t begin, size_t end, uint8_t entry_state,
                             SymbolMasks* masks_out) {
  FlagWalkResult result;
  MaskWriter out(masks_out, begin, end);
  uint8_t state = entry_state;
  size_t i = begin;
  while (i < end) {
    if (plan.state_skippable[state] && i + 8 <= end) {
      const uint64_t hits = internal::SpecialMaskSwar(plan, data + i);
      if (hits == 0) {
        i += 8;
        continue;
      }
      i += internal::CleanPrefixSwar(hits);
    }
    const unsigned idx =
        (static_cast<unsigned>(state) << 8) | static_cast<unsigned>(data[i]);
    const uint8_t flags = plan.flags_flat[idx];
    out.Set(i, flags);
    if (flags & kSymbolRecordDelimiter) {
      ++result.records;
      result.fields_since_record = 0;
      result.saw_record_delimiter = true;
    } else if (flags & kSymbolFieldDelimiter) {
      ++result.fields_since_record;
    }
    const uint8_t next = plan.next_flat[idx];
    if (plan.invalid_state >= 0 && next == plan.invalid_state &&
        state != plan.invalid_state && result.first_invalid < 0) {
      result.first_invalid = static_cast<int64_t>(i);
    }
    state = next;
    ++i;
  }
  out.Finish();
  result.end_state = state;
  return result;
}

FlagWalkResult CountEmittedFlags(const SymbolMasks* masks, size_t begin,
                                 size_t end) {
  // A record bit outranks a field bit on the same byte, as in the walk.
  FlagWalkResult result;
  ForEachMaskWord(begin, end, [&](size_t w, uint64_t keep) {
    const SymbolMasks m = LoadMasks(masks, w, keep);
    const uint64_t records = m.record & keep;
    uint64_t fields = m.field & ~m.record & keep;
    if (records != 0) {
      result.records += static_cast<uint32_t>(std::popcount(records));
      result.saw_record_delimiter = true;
      result.fields_since_record = 0;
      // Only the field bits above the word's last record bit remain open.
      const int last = 63 - std::countl_zero(records);
      fields &= ~BitRange(0, static_cast<unsigned>(last) + 1);
    }
    result.fields_since_record += static_cast<uint32_t>(std::popcount(fields));
  });
  return result;
}

}  // namespace parparaw::simd
