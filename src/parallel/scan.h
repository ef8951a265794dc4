#ifndef PARPARAW_PARALLEL_SCAN_H_
#define PARPARAW_PARALLEL_SCAN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "parallel/thread_pool.h"

namespace parparaw {

/// Parallel prefix-scan primitives.
///
/// The prefix scan is the fundamental building block of ParPaRaw (§2/§3): it
/// resolves each chunk's DFA entry state (composite operator over
/// state-transition vectors), the record offsets (prefix sum of per-chunk
/// record counts), the column offsets (relative/absolute offset operator),
/// and the CSS index (prefix sum of field lengths). All scans here accept an
/// arbitrary associative — not necessarily commutative — binary operator.
///
/// InclusiveScan is a single-pass chained scan with decoupled look-back
/// after Merrill & Garland [28], the algorithm the paper's GPU
/// implementation uses. Each tile publishes its local aggregate, then
/// resolves its exclusive prefix by inspecting predecessor descriptors
/// (aggregate-available / prefix-available), so the input is read once. It
/// is in-place capable (`out` may alias `in`) and relies on operator
/// associativity only.

namespace internal {

/// Sequential inclusive scan of `n >= 1` elements.
template <typename T, typename Op>
void SequentialInclusiveScan(const T* in, T* out, int64_t n, Op op) {
  T running = in[0];
  out[0] = running;
  for (int64_t i = 1; i < n; ++i) {
    running = op(running, in[i]);
    out[i] = running;
  }
}

}  // namespace internal

/// \brief Inclusive scan, single-pass with decoupled look-back
/// (Merrill & Garland): out[i] = op(in[0], ..., in[i]).
///
/// `op` must be associative. `identity` is the operator's identity element.
/// `out` may alias `in`. `n == 0` is a no-op. A null `pool` scans
/// sequentially.
///
/// Forward progress on a *shared* pool: a tile's look-back spin-waits on
/// its predecessors' descriptors, so a naive static assignment (tile ->
/// task up front) can livelock — every worker occupied by a tile whose
/// predecessor is still sitting in a queue behind unrelated work (two
/// concurrent parparawd parses are enough). Instead, tiles are claimed
/// dynamically off an atomic cursor from inside the running tasks:
/// claims are monotonic, a task finishes its tile before claiming the
/// next, so every predecessor a spin can wait on is already *running* on
/// some thread (or done), never merely queued. The earliest claimed
/// unfinished tile therefore always has all predecessors resolved and
/// completes, and by induction so does everything after it — even when
/// only one of the submitted tasks ever gets a worker, that task alone
/// claims and finishes all tiles in order without spinning at all.
template <typename T, typename Op>
void InclusiveScan(ThreadPool* pool, const T* in, T* out, int64_t n, Op op,
                   T identity) {
  if (n <= 0) return;
  const int num_workers = pool ? pool->num_threads() : 1;
  const int64_t kMinTile = 1024;
  int64_t num_tiles = std::min<int64_t>(num_workers * 4, (n + kMinTile - 1) / kMinTile);
  if (num_tiles <= 1 || pool == nullptr) {
    internal::SequentialInclusiveScan(in, out, n, op);
    return;
  }
  const int64_t tile = (n + num_tiles - 1) / num_tiles;
  num_tiles = (n + tile - 1) / tile;

  enum class TileStatus : int { kInvalid = 0, kAggregate = 1, kPrefix = 2 };
  struct TileDescriptor {
    std::atomic<int> status{static_cast<int>(TileStatus::kInvalid)};
    T aggregate;
    T inclusive_prefix;
  };
  std::vector<TileDescriptor> descriptors(num_tiles);
  std::atomic<int64_t> next_tile{0};

  const auto process_tile = [&](int64_t t) {
    const int64_t b = t * tile;
    const int64_t e = std::min<int64_t>(b + tile, n);
    TileDescriptor& desc = descriptors[t];
    // Local inclusive scan into the output (single pass over the input).
    internal::SequentialInclusiveScan(in + b, out + b, e - b, op);
    desc.aggregate = out[e - 1];
    if (t == 0) {
      desc.inclusive_prefix = desc.aggregate;
      desc.status.store(static_cast<int>(TileStatus::kPrefix),
                        std::memory_order_release);
      return;
    }
    desc.status.store(static_cast<int>(TileStatus::kAggregate),
                      std::memory_order_release);
    // Decoupled look-back: walk predecessors, accumulating aggregates until
    // a tile with a resolved inclusive prefix is found. The spin below is
    // safe because the predecessor was claimed before this tile, so a
    // running task is actively driving it to completion (see above).
    T exclusive = identity;
    bool have_exclusive = false;
    for (int64_t p = t - 1; p >= 0; --p) {
      TileDescriptor& pred = descriptors[p];
      int status;
      while ((status = pred.status.load(std::memory_order_acquire)) ==
             static_cast<int>(TileStatus::kInvalid)) {
        std::this_thread::yield();
      }
      if (status == static_cast<int>(TileStatus::kPrefix)) {
        exclusive = have_exclusive ? op(pred.inclusive_prefix, exclusive)
                                   : pred.inclusive_prefix;
        have_exclusive = true;
        break;
      }
      exclusive =
          have_exclusive ? op(pred.aggregate, exclusive) : pred.aggregate;
      have_exclusive = true;
    }
    // Fix up the local scan with the resolved exclusive prefix and publish
    // this tile's inclusive prefix.
    for (int64_t i = b; i < e; ++i) out[i] = op(exclusive, out[i]);
    desc.inclusive_prefix = out[e - 1];
    desc.status.store(static_cast<int>(TileStatus::kPrefix),
                      std::memory_order_release);
  };

  // One claim-loop task per potential runner (workers + the caller, which
  // executes tasks itself under ParallelFor's caller-runs contract).
  // Any subset of them suffices for completion; extras just steal tiles.
  const int64_t num_tasks = std::min<int64_t>(num_tiles, num_workers + 1);
  ParallelForEach(pool, 0, num_tasks, [&](int64_t) {
    int64_t t;
    while ((t = next_tile.fetch_add(1, std::memory_order_relaxed)) <
           num_tiles) {
      process_tile(t);
    }
  });
}

/// \brief Exclusive scan: out[i] = op(in[0], ..., in[i-1]), out[0] =
/// identity. `out` must not alias `in` unless T is trivially copyable (a
/// temporary holds the shifted value either way; aliasing is supported).
template <typename T, typename Op>
void ExclusiveScan(ThreadPool* pool, const T* in, T* out, int64_t n, Op op,
                   T identity) {
  if (n <= 0) return;
  // Inclusive scan into a temporary, then shift right by one.
  std::vector<T> inclusive(n, identity);
  InclusiveScan(pool, in, inclusive.data(), n, op, identity);
  out[0] = identity;
  for (int64_t i = 1; i < n; ++i) out[i] = std::move(inclusive[i - 1]);
}

/// \brief Exclusive prefix sum convenience wrapper. Returns the grand total.
template <typename T>
T ExclusivePrefixSum(ThreadPool* pool, const T* in, T* out, int64_t n) {
  if (n <= 0) return T{};
  T last_in = in[n - 1];  // Read before scanning: out may alias in.
  ExclusiveScan(pool, in, out, n, [](T a, T b) { return a + b; }, T{});
  return out[n - 1] + last_in;
}

/// \brief Parallel reduction with an associative operator. Returns identity
/// for an empty input.
template <typename T, typename Op>
T Reduce(ThreadPool* pool, const T* in, int64_t n, Op op, T identity) {
  if (n <= 0) return identity;
  const int num_workers = pool ? pool->num_threads() : 1;
  if (num_workers <= 1 || n < 4096) {
    T acc = in[0];
    for (int64_t i = 1; i < n; ++i) acc = op(acc, in[i]);
    return acc;
  }
  const int64_t num_tiles = num_workers;
  const int64_t tile = (n + num_tiles - 1) / num_tiles;
  std::vector<T> partial(num_tiles, identity);
  ParallelForEach(pool, 0, num_tiles, [&](int64_t t) {
    const int64_t b = t * tile;
    const int64_t e = std::min<int64_t>(b + tile, n);
    if (b >= e) return;
    T acc = in[b];
    for (int64_t i = b + 1; i < e; ++i) acc = op(acc, in[i]);
    partial[t] = acc;
  });
  T acc = identity;
  bool first = true;
  for (int64_t t = 0; t < num_tiles; ++t) {
    const int64_t b = t * tile;
    if (b >= n) break;
    acc = first ? partial[t] : op(acc, partial[t]);
    first = false;
  }
  return acc;
}

}  // namespace parparaw

#endif  // PARPARAW_PARALLEL_SCAN_H_
