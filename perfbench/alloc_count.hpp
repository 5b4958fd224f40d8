// Global operator-new counter of the benchmark binary. Counting is off by
// default so untraced runs pay one relaxed load per allocation; the traced
// run switches it on around the slices it attributes. The benchmark's own
// bookkeeping inside a counted region runs under an `alloc_pause`, so only
// the program's allocations are counted.
#pragma once

#include <atomic>
#include <cstdint>

namespace perfbench {

extern std::atomic<bool> g_count_allocs;
extern std::atomic<std::uint64_t> g_allocs;
/// Non-zero while the calling thread is inside an `alloc_pause`.
extern thread_local int t_alloc_pause;

/// Stops counting the calling thread's allocations for its lifetime.
struct alloc_pause {
  alloc_pause() { ++t_alloc_pause; }
  ~alloc_pause() { --t_alloc_pause; }
  alloc_pause(const alloc_pause&) = delete;
  alloc_pause& operator=(const alloc_pause&) = delete;
};

}  // namespace perfbench
