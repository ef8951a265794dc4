#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>

#include "parallel/radix_sort.h"
#include "parallel/scan.h"
#include "parallel/thread_pool.h"

namespace parparaw {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 0, 1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForNullPoolIsSequential) {
  int64_t sum = 0;
  ParallelForEach(nullptr, 0, 10, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

class ScanTest : public ::testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{4};
};

TEST_P(ScanTest, InclusiveSumMatchesSequential) {
  const int n = GetParam();
  std::mt19937_64 rng(n);
  std::vector<int64_t> in(n);
  for (auto& v : in) v = static_cast<int64_t>(rng() % 100);
  std::vector<int64_t> expected(n);
  std::partial_sum(in.begin(), in.end(), expected.begin());

  std::vector<int64_t> out(n);
  InclusiveScan(&pool_, in.data(), out.data(), n,
                [](int64_t a, int64_t b) { return a + b; }, int64_t{0});
  EXPECT_EQ(out, expected);
}

TEST_P(ScanTest, ExclusiveSumMatchesSequential) {
  const int n = GetParam();
  std::mt19937_64 rng(n * 7);
  std::vector<int64_t> in(n);
  for (auto& v : in) v = static_cast<int64_t>(rng() % 100);
  std::vector<int64_t> out(n);
  const int64_t total = ExclusivePrefixSum(&pool_, in.data(), out.data(), n);
  int64_t running = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], running) << "at " << i;
    running += in[i];
  }
  EXPECT_EQ(total, running);
}

TEST_P(ScanTest, NonCommutativeOperatorPreservesOrder) {
  // String concatenation is associative but not commutative; a scan that
  // reorders operands would corrupt the result.
  const int n = std::min(GetParam(), 3000);
  std::vector<std::string> in(n);
  for (int i = 0; i < n; ++i) in[i] = std::string(1, 'a' + (i % 26));
  std::vector<std::string> out(n);
  InclusiveScan(&pool_, in.data(), out.data(), n,
                [](const std::string& a, const std::string& b) { return a + b; },
                std::string());
  std::string expected;
  for (int i = 0; i < n; ++i) {
    expected += in[i];
    ASSERT_EQ(out[i], expected) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(0, 1, 2, 7, 1000, 1024, 4097,
                                           50000));

TEST(ScanTest, InPlaceAliasing) {
  ThreadPool pool(4);
  std::vector<int64_t> data(5000, 1);
  InclusiveScan(&pool, data.data(), data.data(),
                static_cast<int64_t>(data.size()),
                [](int64_t a, int64_t b) { return a + b; }, int64_t{0});
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], static_cast<int64_t>(i + 1));
  }
}

TEST(ReduceTest, MatchesSequential) {
  ThreadPool pool(4);
  std::vector<int64_t> in(100000);
  std::mt19937_64 rng(3);
  for (auto& v : in) v = static_cast<int64_t>(rng() % 1000);
  const int64_t expected = std::accumulate(in.begin(), in.end(), int64_t{0});
  const int64_t got =
      Reduce(&pool, in.data(), static_cast<int64_t>(in.size()),
             [](int64_t a, int64_t b) { return a + b; }, int64_t{0});
  EXPECT_EQ(got, expected);
}

TEST(ReduceTest, EmptyReturnsIdentity) {
  ThreadPool pool(2);
  const int64_t got = Reduce(&pool, static_cast<int64_t*>(nullptr), 0,
                             [](int64_t a, int64_t b) { return a + b; },
                             int64_t{-99});
  EXPECT_EQ(got, -99);
}

TEST(ReduceTest, MaxOperator) {
  ThreadPool pool(4);
  std::vector<int64_t> in(50000);
  std::mt19937_64 rng(11);
  int64_t expected = 0;
  for (auto& v : in) {
    v = static_cast<int64_t>(rng() % 1000000);
    expected = std::max(expected, v);
  }
  const int64_t got =
      Reduce(&pool, in.data(), static_cast<int64_t>(in.size()),
             [](int64_t a, int64_t b) { return std::max(a, b); }, int64_t{0});
  EXPECT_EQ(got, expected);
}

class RadixSortTest : public ::testing::TestWithParam<int> {
 protected:
  ThreadPool pool_{4};
};

TEST_P(RadixSortTest, SortsAndIsStable) {
  const int n = GetParam();
  std::mt19937_64 rng(n + 1);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = static_cast<uint32_t>(rng() % 17);
  std::vector<uint32_t> perm;
  StableRadixSortPermutation(&pool_, keys, &perm);
  ASSERT_EQ(perm.size(), keys.size());
  // Sorted and stable: equal keys keep ascending original indices.
  for (int i = 1; i < n; ++i) {
    const uint32_t prev = keys[perm[i - 1]];
    const uint32_t cur = keys[perm[i]];
    ASSERT_LE(prev, cur);
    if (prev == cur) {
      ASSERT_LT(perm[i - 1], perm[i]);
    }
  }
  // Permutation is a bijection.
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t p : perm) {
    ASSERT_LT(p, static_cast<uint32_t>(n));
    ASSERT_FALSE(seen[p]);
    seen[p] = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortTest,
                         ::testing::Values(0, 1, 2, 100, 4096, 100000));

TEST(RadixSortTest, HistogramMatchesCounts) {
  ThreadPool pool(4);
  std::vector<uint32_t> keys = {3, 1, 4, 1, 5, 2, 6, 5, 3, 5};
  std::vector<uint32_t> perm;
  std::vector<uint64_t> histogram;
  ASSERT_TRUE(
      StableRadixSortWithHistogram(&pool, &keys, &perm, 7, &histogram).ok());
  ASSERT_EQ(histogram.size(), 7u);
  EXPECT_EQ(histogram[0], 0u);
  EXPECT_EQ(histogram[1], 2u);
  EXPECT_EQ(histogram[5], 3u);
  // Keys are now sorted.
  for (size_t i = 1; i < keys.size(); ++i) EXPECT_LE(keys[i - 1], keys[i]);
}

// Regression: a key at or beyond num_partitions used to be silently skipped
// in the histogram, desynchronizing every CSS offset derived from it. It is
// an internal-invariant violation and must fail loudly.
TEST(RadixSortTest, OutOfDomainKeyIsAnInternalError) {
  ThreadPool pool(4);
  std::vector<uint32_t> keys = {3, 1, 9, 2};  // 9 >= num_partitions
  std::vector<uint32_t> perm;
  std::vector<uint64_t> histogram;
  const Status st =
      StableRadixSortWithHistogram(&pool, &keys, &perm, 7, &histogram);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("9"), std::string::npos) << st.message();
  // The keys were left untouched (no partial reorder).
  EXPECT_EQ(keys, (std::vector<uint32_t>{3, 1, 9, 2}));
}

// Regression: significant_bits > 32 used to drive the pass loop to
// `key >> shift` with shift >= 32 — undefined behaviour on uint32_t (the
// UBSan build catches the shift). The request is clamped to the key width.
TEST(RadixSortTest, SignificantBitsAbove32AreClamped) {
  ThreadPool pool(4);
  std::mt19937_64 rng(40);
  std::vector<uint32_t> keys(4096);
  for (auto& k : keys) k = static_cast<uint32_t>(rng());
  RadixSortOptions options;
  options.significant_bits = 40;
  std::vector<uint32_t> perm;
  StableRadixSortPermutation(&pool, keys, &perm, options);
  ASSERT_EQ(perm.size(), keys.size());
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LE(keys[perm[i - 1]], keys[perm[i]]);
  }
}

TEST(RadixSortTest, WideBitsPerPass) {
  ThreadPool pool(4);
  std::mt19937_64 rng(9);
  std::vector<uint32_t> keys(10000);
  for (auto& k : keys) k = static_cast<uint32_t>(rng());
  for (int bits : {1, 4, 8, 11, 16}) {
    RadixSortOptions options;
    options.bits_per_pass = bits;
    options.significant_bits = 32;
    std::vector<uint32_t> perm;
    StableRadixSortPermutation(&pool, keys, &perm, options);
    for (size_t i = 1; i < keys.size(); ++i) {
      ASSERT_LE(keys[perm[i - 1]], keys[perm[i]]) << "bits=" << bits;
    }
  }
}

TEST(RadixSortTest, ApplyPermutationGathers) {
  ThreadPool pool(2);
  std::vector<uint32_t> perm = {2, 0, 1};
  std::vector<char> in = {'a', 'b', 'c'};
  std::vector<char> out;
  ApplyPermutation(&pool, perm, in, &out);
  EXPECT_EQ(out, (std::vector<char>{'c', 'a', 'b'}));
}

}  // namespace
}  // namespace parparaw
