// Allocation discipline of the simulated kernel (DESIGN.md, "Simulated
// kernel: allocation discipline"): with tracing off, a frame crossing
// net_mngt, the NIC interrupt and the processor allocates nothing once the
// run is warm, and an EDF task activation allocates only its shard and
// instance records.
//
// This executable replaces the global operator new with a counting one
// (every test is its own executable), so the counts below are every heap
// allocation the library makes inside the measured windows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/system.hpp"
#include "sched/edf.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void count() {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
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
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
// Matching deletes, so a sanitizer's allocator never sees malloc'd memory
// handed to its own operator delete.
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

namespace hades::core {
namespace {

using namespace hades::literals;

constexpr int ping_channel = 7;

/// Counts the allocations made between construction and `stop()`.
class alloc_window {
 public:
  alloc_window() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~alloc_window() { stop(); }
  std::uint64_t stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
  }
};

/// Default kernel costs (net_mngt CPU per message, NIC and clock
/// interrupts), tracing off: the configuration every benchmark runs.
system::config untraced() {
  system::config cfg;
  cfg.tracing = false;
  return cfg;
}

/// Frames bounce between nodes 0 and 1 forever: node 0 answers with a
/// unicast, node 1 with a broadcast (send_all), so both net_mngt paths, the
/// NIC interrupt and the channel demux run on every frame.
void start_ping_pong(system& sys) {
  sys.net(0).on_channel(ping_channel, [&sys](const sim::message& m) {
    sys.net(0).send(1, ping_channel, m.payload, 64);
  });
  sys.net(1).on_channel(ping_channel, [&sys](const sim::message& m) {
    sys.net(1).send_all(ping_channel, m.payload, 64);
  });
  sys.net(0).send(1, ping_channel, sim::wire_payload(std::uint64_t{42}), 64);
}

std::uint64_t frames(system& sys) {
  return sys.net(0).received() + sys.net(1).received();
}

TEST(KernelAllocTest, SteadyStateFramesAllocateNothing) {
  system sys(2, untraced());
  start_ping_pong(sys);
  sys.run_for(20_ms);  // warm-up: pools, rings and run queues reach size

  const std::uint64_t before = frames(sys);
  alloc_window w;
  sys.run_for(200_ms);
  const std::uint64_t allocs = w.stop();
  const std::uint64_t moved = frames(sys) - before;

  EXPECT_GT(moved, 1000u);
  EXPECT_EQ(allocs, 0u) << "over " << moved << " frames";
}

/// Per activation of the task below, the only allocations left are its
/// instance and shard records, 12 in all: on the home node the instance map
/// entry and one pending-shard set entry per involved node (3); on each of
/// the two nodes the shard map entry, its EU map entry, the kernel thread's
/// table entry and the dispatcher's thread-lookup entry (8); the consumer
/// EU's satisfied-precedence set entry (1). None of them depends on how
/// many frames, interrupts or notifications the instance causes. The half
/// allocation of slack covers amortized growth of the response-time sample
/// vector.
constexpr double max_allocs_per_activation = 12.5;

TEST(KernelAllocTest, PeriodicEdfActivationStaysUnderBound) {
  system sys(2, untraced());
  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  sys.attach_policy(1, std::make_shared<sched::edf_policy>());
  // Two EUs on two nodes joined by a remote precedence: every instance
  // creates a shard on each node, sends a create_shard, a precedence and a
  // shard_complete token, and produces Atv/Trm notifications on both nodes.
  task_builder b("sensor_fusion");
  b.deadline(2_ms).law(arrival_law::periodic(2_ms));
  const auto a = b.add_code_eu("sample", 0, 100_us);
  const auto c = b.add_code_eu("fuse", 1, 100_us);
  b.precede(a, c, 64);
  const task_id t = sys.register_task(b.build());
  start_ping_pong(sys);
  sys.run_for(20_ms);

  const std::uint64_t act0 = sys.stats_for(t).activations;
  const std::uint64_t frames0 = frames(sys);
  alloc_window w;
  sys.run_for(200_ms);
  const std::uint64_t allocs = w.stop();
  const std::uint64_t activations = sys.stats_for(t).activations - act0;

  ASSERT_EQ(activations, 100u);
  // At most the instance activated at the window's last instant is open.
  EXPECT_GE(sys.stats_for(t).completions + 1, sys.stats_for(t).activations);
  EXPECT_GT(frames(sys) - frames0, 1000u);
  const double per_activation =
      static_cast<double>(allocs) / static_cast<double>(activations);
  EXPECT_LE(per_activation, max_allocs_per_activation)
      << allocs << " allocations over " << activations << " activations";
}

}  // namespace
}  // namespace hades::core
