// Heap accounting of the benchmark binary: replacements of the global
// operator new and delete that count the bytes the program holds, so a
// repetition's peak memory can be read without the allocator's or the
// kernel's bookkeeping in it (see PeakMemory in common.hpp).
//
// Every C++ allocation of the process goes through these: the program's
// libraries are linked into this binary. Memory taken with malloc directly
// is not counted.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::atomic<std::int64_t> live_bytes{0};
std::atomic<std::int64_t> peak_bytes{0};

void count(void* p) {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now =
      live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = peak_bytes.load(std::memory_order_relaxed);
  while (now > peak && !peak_bytes.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  count(p);
  return p;
}

void* allocate(std::size_t n, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  count(p);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

void reset_heap_peak() {
  peak_bytes.store(live_bytes.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

double heap_peak_mib() {
  return static_cast<double>(peak_bytes.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench

// The nothrow forms of the standard library call these.
void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return allocate(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, a);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
