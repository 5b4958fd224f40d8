#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace perfbench {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local int t_alloc_pause = 0;

}  // namespace perfbench

namespace {

void count() {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed) &&
      perfbench::t_alloc_pause == 0)
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
}

std::size_t round_up(std::size_t size, std::size_t al) {
  return (size + al - 1) & ~(al - 1);
}

}  // namespace

void* operator new(std::size_t size) {
  count();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t al) {
  count();
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, round_up(size == 0 ? 1 : size, a)))
    return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  count();
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, round_up(size == 0 ? 1 : size, a));
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return operator new(size, nt);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t& nt) noexcept {
  return operator new(size, al, nt);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
