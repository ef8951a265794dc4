#include "simd/simd_kernels.h"

#include <atomic>
#include <bit>

#include "simd/kernel_common.h"

namespace parparaw::simd {

namespace {

/// Composes two 16-entry transition tables: out[s] = b[a[s]].
void ComposeTables(const uint8_t a[16], const uint8_t b[16], uint8_t out[16]) {
  for (int s = 0; s < 16; ++s) out[s] = b[a[s]];
}

/// True when state s has a uniform run over the group set `groups` (bit g
/// for group g; see UniformRun): every state reachable from s on those
/// groups moves and flags each of them as s does.
bool RunIsUniform(const Dfa& dfa, int s, uint32_t groups) {
  bool reached[kMaxDfaStates] = {};
  int queue[kMaxDfaStates];
  int size = 0;
  reached[s] = true;
  queue[size++] = s;
  for (int head = 0; head < size; ++head) {
    const int r = queue[head];
    for (uint32_t g = groups; g != 0; g &= g - 1) {
      const int group = std::countr_zero(g);
      if (dfa.NextState(r, group) != dfa.NextState(s, group) ||
          dfa.Flags(r, group) != dfa.Flags(s, group)) {
        return false;
      }
      const int next = dfa.NextState(r, group);
      if (!reached[next]) {
        reached[next] = true;
        queue[size++] = next;
      }
    }
  }
  return true;
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
      plan.special_groups[plan.num_specials] = static_cast<uint8_t>(group);
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

  // Catch-all powers for the runs of data symbols between specials.
  for (int s = 0; s < 16; ++s) {
    plan.catchall_pow[0][s] = static_cast<uint8_t>(s);
  }
  for (int k = 1; k <= 64; ++k) {
    ComposeTables(plan.catchall_pow[k - 1],
                  plan.group_tables[plan.catchall_group], plan.catchall_pow[k]);
  }

  for (int s = 0; s < plan.num_states; ++s) {
    for (int b = 0; b < 256; ++b) {
      const int group = plan.group_of_byte[b];
      plan.next_flat[(s << 8) | b] =
          static_cast<uint8_t>(dfa.NextState(s, group));
      plan.flags_flat[(s << 8) | b] = dfa.Flags(s, group);
    }
  }

  // Uniform runs: grow each state's group set greedily, in group order.
  // Only a state that stays put on data gets one: a state that data moves
  // (EOF, ESC) would mostly run zero bytes, and steps its one byte into a
  // state that has a run for less.
  const uint32_t catchall = uint32_t{1} << plan.catchall_group;
  for (int s = 0; s < plan.num_states; ++s) {
    plan.uniform_run[s] = -1;
    if (dfa.NextState(s, plan.catchall_group) != s ||
        !RunIsUniform(dfa, s, catchall)) {
      continue;
    }
    uint32_t groups = catchall;
    for (int g = 0; g < plan.catchall_group; ++g) {
      if (RunIsUniform(dfa, s, groups | uint32_t{1} << g)) {
        groups |= uint32_t{1} << g;
      }
    }
    UniformRun run;
    run.stops = (catchall - 1) & ~groups;
    for (int g = 0; g <= plan.catchall_group; ++g) {
      if ((groups >> g & 1) == 0) continue;
      const uint32_t bit = uint32_t{1} << g;
      const uint8_t flags = dfa.Flags(s, g);
      if (flags & kSymbolRecordDelimiter) run.record |= bit;
      if (flags & kSymbolFieldDelimiter) run.field |= bit;
      if (flags & kSymbolControl) run.control |= bit;
      if (dfa.NextState(s, g) == plan.invalid_state) run.invalid |= bit;
    }
    int r = 0;
    while (r < plan.num_runs && !(plan.runs[r] == run)) ++r;
    if (r == plan.num_runs) plan.runs[plan.num_runs++] = run;
    plan.uniform_run[s] = static_cast<int8_t>(r);
  }
  return plan;
}

void MergeMaskWord(SymbolMasks* word, uint64_t own, const SymbolMasks& bits) {
  const auto merge = [own](uint64_t& mask, uint64_t set) {
    std::atomic_ref<uint64_t> ref(mask);
    uint64_t old = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(old, (old & ~own) | set,
                                      std::memory_order_relaxed)) {
    }
  };
  merge(word->record, bits.record);
  merge(word->field, bits.field);
  merge(word->control, bits.control);
}

namespace internal {

ChunkKernelResult ChunkKernelSwar(const KernelPlan& plan, const uint8_t* data,
                                  size_t begin, size_t end,
                                  SymbolMasks* masks_out) {
  return ChunkKernelImpl<SwarClassifier, SwarLaneOps>(plan, data, begin, end,
                                                      masks_out);
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

FlagWalkFn GetFlagWalk(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
    case KernelLevel::kSwar:
      return WalkEmitFlags;
    case KernelLevel::kSse42:
#ifdef PARPARAW_HAVE_SSE42_KERNEL
      return internal::WalkEmitFlagsSse42;
#else
      return WalkEmitFlags;
#endif
    case KernelLevel::kAvx2:
#ifdef PARPARAW_HAVE_AVX2_KERNEL
      return internal::WalkEmitFlagsAvx2;
#else
      return WalkEmitFlags;
#endif
    case KernelLevel::kNeon:
#ifdef PARPARAW_HAVE_NEON_KERNEL
      return internal::WalkEmitFlagsNeon;
#else
      return WalkEmitFlags;
#endif
  }
  return WalkEmitFlags;
}

FlagWalkResult WalkEmitFlags(const KernelPlan& plan, const uint8_t* data,
                             size_t begin, size_t end, uint8_t entry_state,
                             SymbolMasks* masks_out) {
  return internal::WalkEmitFlagsImpl<internal::SwarClassifier>(
      plan, data, begin, end, entry_state, masks_out);
}

FlagWalkResult CountEmittedFlags(const SymbolMasks* masks, size_t begin,
                                 size_t end) {
  FlagWalkResult result;
  ForEachMaskWord(begin, end, [&](size_t w, uint64_t keep) {
    const SymbolMasks m = LoadMasks(masks, w, keep);
    internal::CountMaskWord(m.record & keep, m.field & keep, &result);
  });
  return result;
}

}  // namespace parparaw::simd
