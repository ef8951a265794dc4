#ifndef PARPARAW_PARALLEL_RADIX_SORT_H_
#define PARPARAW_PARALLEL_RADIX_SORT_H_

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.h"
#include "util/status.h"

namespace parparaw {

/// \brief Options for the stable LSD radix sort.
struct RadixSortOptions {
  /// Bits consumed per partitioning pass (§3.3: "the radix sort iterates
  /// over the bits of the column-tags, performing a stable partitioning pass
  /// on the sequence of bits considered with a given pass").
  int bits_per_pass = 8;
  /// Number of low key bits that are significant; passes stop once all
  /// significant bits are consumed. 0 means derive from the maximum key.
  /// Values above 32 are clamped to 32: keys are uint32_t, and a larger
  /// request would drive the pass loop to shifts >= 32 (undefined
  /// behaviour on a 32-bit operand).
  int significant_bits = 0;
};

/// \brief Stable LSD radix sort of 32-bit keys; fills `permutation` with the
/// stable sorted order (permutation[i] = index of the i-th smallest key).
///
/// Each pass performs the paper's three partitioning sub-steps: (1) per-tile
/// histogram, (2) exclusive prefix sum over the histogram counts, and
/// (3) stable scatter. Payloads (symbols and record-tags in the paper) are
/// moved by applying the permutation, see ApplyPermutation below.
void StableRadixSortPermutation(ThreadPool* pool,
                                const std::vector<uint32_t>& keys,
                                std::vector<uint32_t>* permutation,
                                const RadixSortOptions& options = {});

/// \brief Stable radix sort that also reorders `keys` in place and returns
/// the per-key-value counts (the histogram the paper reuses to find the CSS
/// offsets). `num_partitions` is an exclusive upper bound on key values;
/// a key outside [0, num_partitions) violates the tagging step's invariant
/// and yields an Internal error (leaving `keys` unreordered) rather than a
/// silently short histogram that would desynchronize every CSS offset
/// derived from it.
Status StableRadixSortWithHistogram(ThreadPool* pool,
                                    std::vector<uint32_t>* keys,
                                    std::vector<uint32_t>* permutation,
                                    uint32_t num_partitions,
                                    std::vector<uint64_t>* histogram,
                                    const RadixSortOptions& options = {});

/// \brief Gathers `in` through `permutation`: out[i] = in[permutation[i]].
/// Either vector may use its own allocator (the parse scratch buffers grow
/// without a zero fill; every output element is written here).
template <typename T, typename InAlloc, typename OutAlloc>
void ApplyPermutation(ThreadPool* pool, const std::vector<uint32_t>& permutation,
                      const std::vector<T, InAlloc>& in,
                      std::vector<T, OutAlloc>* out) {
  out->resize(permutation.size());
  T* out_data = out->data();
  const T* in_data = in.data();
  const uint32_t* perm = permutation.data();
  ParallelFor(pool, 0, static_cast<int64_t>(permutation.size()),
              [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i) out_data[i] = in_data[perm[i]];
              });
}

}  // namespace parparaw

#endif  // PARPARAW_PARALLEL_RADIX_SORT_H_
