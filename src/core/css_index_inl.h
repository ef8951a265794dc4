#ifndef PARPARAW_CORE_CSS_INDEX_INL_H_
#define PARPARAW_CORE_CSS_INDEX_INL_H_

#include <algorithm>

#include "parallel/scan.h"

namespace parparaw {

template <typename Pred>
void CollectPositions(ThreadPool* pool, int64_t n, Pred pred,
                      std::vector<int64_t>* positions) {
  if (n <= 0) {
    positions->clear();
    return;
  }
  const int num_workers = pool ? pool->num_threads() : 1;
  const int64_t num_tiles =
      std::max<int64_t>(1, std::min<int64_t>(num_workers * 4, n / 4096 + 1));
  const int64_t tile = (n + num_tiles - 1) / num_tiles;
  std::vector<int64_t> counts(num_tiles, 0);
  ParallelForEach(pool, 0, num_tiles, [&](int64_t t) {
    const int64_t b = t * tile;
    const int64_t e = std::min(b + tile, n);
    int64_t count = 0;
    for (int64_t i = b; i < e; ++i) count += pred(i) ? 1 : 0;
    counts[t] = count;
  });
  std::vector<int64_t> offsets(num_tiles, 0);
  const int64_t total =
      ExclusivePrefixSum(pool, counts.data(), offsets.data(), num_tiles);
  positions->resize(total);
  ParallelForEach(pool, 0, num_tiles, [&](int64_t t) {
    const int64_t b = t * tile;
    const int64_t e = std::min(b + tile, n);
    int64_t k = offsets[t];
    for (int64_t i = b; i < e; ++i) {
      if (pred(i)) (*positions)[k++] = i;
    }
  });
}

}  // namespace parparaw

#endif  // PARPARAW_CORE_CSS_INDEX_INL_H_
