#ifndef PARPARAW_UTIL_HUGE_PAGES_H_
#define PARPARAW_UTIL_HUGE_PAGES_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>

/// \brief Transparent huge pages for the parse path's large buffers.
///
/// A fresh buffer costs a page fault per 4 KiB page on its first write; a
/// 2 MiB huge page takes one fault where base pages take 512. Two ways in:
///   * Map/Unmap give a buffer an anonymous mapping of its own, 2 MiB-aligned
///     and advised before anything writes it (ScratchAllocator,
///     core/pipeline_state.h).
///   * Assign advises a std::allocator buffer in place, when it is large
///     enough that glibc maps it by itself (kAdviseInPlaceBytes).
/// The advice is best effort. Under THP `never`, or on a kernel without
/// THP, a buffer keeps base pages and nothing else changes. Under
/// `defrag=madvise` a fault in an advised range may compact memory first.
namespace parparaw::huge_pages {

/// The PMD huge-page size on x86-64 and on 4 KiB-granule arm64.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// std::allocator buffers larger than this are advised in place. glibc's
/// dynamic mmap threshold climbs to the size of the last freed mapping, but
/// no higher than 32 MiB (mallopt(3)), so every larger request gets a
/// mapping of its own and the advice dies with the buffer. A smaller buffer
/// may come from an arena, where the advice would outlive it.
inline constexpr size_t kAdviseInPlaceBytes = size_t{32} << 20;

/// Asks for huge pages on the whole huge pages inside [p, p + bytes), so a
/// buffer's tail never pulls in a 2 MiB page it only partly uses. The
/// result of madvise is ignored (see above).
inline void Advise(void* p, size_t bytes) {
#ifdef MADV_HUGEPAGE
  const uintptr_t begin = reinterpret_cast<uintptr_t>(p);
  const uintptr_t first = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const uintptr_t last = (begin + bytes) & ~(kHugePageBytes - 1);
  if (first < last) {
    madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

/// A fresh anonymous mapping of at least `bytes`, 2 MiB-aligned and advised.
/// Throws std::bad_alloc when the kernel refuses it.
inline void* Map(size_t bytes) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t length = (bytes + page - 1) & ~(page - 1);
  const size_t padded = length + kHugePageBytes;
  if (length < bytes || padded < length) throw std::bad_alloc();
  void* raw = mmap(nullptr, padded, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  // Trim the padding on both sides of the aligned range.
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  if (aligned > base) munmap(raw, aligned - base);
  const uintptr_t tail = aligned + length;
  if (base + padded > tail) {
    munmap(reinterpret_cast<void*>(tail), base + padded - tail);
  }
  void* p = reinterpret_cast<void*>(aligned);
  Advise(p, bytes);
  return p;
}

/// Releases a Map(bytes) mapping.
inline void Unmap(void* p, size_t bytes) noexcept { munmap(p, bytes); }

/// `buffer->assign(count, value)` for a std::vector or std::string on
/// std::allocator, except that fresh storage larger than kAdviseInPlaceBytes
/// is advised before the fill first writes it.
template <typename Buffer, typename Value>
void Assign(Buffer* buffer, size_t count, const Value& value) {
  if (count > buffer->capacity()) {
    buffer->clear();
    buffer->reserve(count);
    const size_t bytes = count * sizeof(*buffer->data());
    if (bytes > kAdviseInPlaceBytes) Advise(buffer->data(), bytes);
  }
  buffer->assign(count, value);
}

}  // namespace parparaw::huge_pages

#endif  // PARPARAW_UTIL_HUGE_PAGES_H_
