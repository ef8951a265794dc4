#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pipeline_state.h"
#include "robust/resource_guard.h"
#include "util/huge_pages.h"

// ScratchAllocator's mapping path (core/pipeline_state.h): a scratch buffer
// of at least 2 MiB gets an anonymous mapping of its own, 2 MiB-aligned and
// advised for huge pages. ASan builds keep std::allocator for every scratch
// buffer, so these tests skip there.

namespace parparaw {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kMappingPath = false;
#else
constexpr bool kMappingPath = true;
#endif

constexpr size_t kEightMiB = size_t{8} << 20;

/// The "THPeligible" value of the /proc/self/smaps entry holding `p`, or -1
/// when there is none.
int ThpEligible(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const uintptr_t address = reinterpret_cast<uintptr_t>(p);
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    unsigned long long begin = 0;
    unsigned long long end = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx ", &begin, &end) == 2) {
      inside = begin <= address && address < end;
      continue;
    }
    int eligible = 0;
    if (inside && std::sscanf(line.c_str(), "THPeligible: %d", &eligible) == 1) {
      return eligible;
    }
  }
  return -1;
}

TEST(ScratchAllocatorTest, LargeBufferIsAlignedMapping) {
  if (!kMappingPath) GTEST_SKIP() << "ASan builds keep std::allocator";
  ScratchVector<uint8_t> buffer(kEightMiB);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) %
                huge_pages::kHugePageBytes,
            0u);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131 + (i >> 20));
  }
  for (size_t i = 0; i < buffer.size(); ++i) {
    ASSERT_EQ(buffer[i], static_cast<uint8_t>(i * 131 + (i >> 20))) << i;
  }
}

TEST(ScratchAllocatorTest, LargeBufferIsThpEligible) {
  if (!kMappingPath) GTEST_SKIP() << "ASan builds keep std::allocator";
  std::ifstream enabled_file("/sys/kernel/mm/transparent_hugepage/enabled");
  std::stringstream enabled;
  enabled << enabled_file.rdbuf();
  if (!enabled_file || enabled.str().find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are off";
  }
  ScratchVector<uint8_t> buffer(kEightMiB);
  EXPECT_EQ(ThpEligible(buffer.data()), 1);
}

TEST(ScratchAllocatorTest, UnmappableSizeIsResourceExhausted) {
  if (!kMappingPath) GTEST_SKIP() << "ASan aborts on oversized allocations";
  ScratchVector<uint8_t> buffer;
  const Status st =
      robust::GuardedResize("alloc.gather", &buffer, size_t{1} << 50);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_TRUE(buffer.empty());
}

}  // namespace
}  // namespace parparaw
