// The UDP loopback transport (DESIGN.md, "Realtime backend"), driven in one
// process: two realtime node groups of a 4-node deployment (nodes 0-1 in
// group 0, nodes 2-3 in group 1), each with its own engine, network and
// transport on 127.0.0.1. Covers the transport's thread budget (none: the
// engine's run loop reads the socket), a datagram waking a loop parked on a
// far timer, the performance-fault path (delayed frames are engine timers),
// a delayed frame outliving its transport, and the socket on a failed bind.
#include "rt/socket_transport.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"
#include "util/error.hpp"

namespace hades {
namespace {

using namespace hades::literals;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kGroups = 2;

std::size_t count_entries(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator(dir)) ++n;
  return n;
}

/// Threads of this process once the count holds still for 10 ms: a joined
/// thread can stay listed in /proc for a moment while the kernel finishes
/// its exit.
std::size_t settled_thread_count() {
  std::size_t n = count_entries("/proc/self/task");
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::size_t m = count_entries("/proc/self/task");
    if (m == n) break;
    n = m;
  }
  return n;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint16_t random_base_port() {
  static std::mt19937 rng(static_cast<std::uint32_t>(::getpid()) ^
                          static_cast<std::uint32_t>(steady_now_ns()));
  return static_cast<std::uint16_t>(20000 + rng() % 40000);
}

struct delivery {
  node_id src = invalid_node;
  int seq = 0;
  time_point sent_at;
  time_point delivered_at;
};

/// One node group: its engine, network, monitor and transport. `got` is
/// written by handlers on the thread running this group's engine.
struct group {
  std::unique_ptr<runtime> rt;
  std::unique_ptr<sim::network> net;
  core::monitor mon;
  std::unique_ptr<rt::socket_transport> tx;
  std::vector<delivery> got;
};

std::array<std::unique_ptr<group>, kGroups> make_groups(std::int64_t epoch_ns) {
  std::array<std::unique_ptr<group>, kGroups> gs;
  for (std::uint32_t gi = 0; gi < kGroups; ++gi) {
    auto g = std::make_unique<group>();
    runtime::options o;
    o.backend = "realtime";
    o.process_index = gi;
    o.process_count = kGroups;
    o.node_count = kNodes;
    o.epoch_ns = epoch_ns;
    g->rt = runtime::make(o);
    g->net = std::make_unique<sim::network>(*g->rt, sim::network::params{});
    g->net->reserve_nodes(kNodes);
    for (node_id n = 0; n < kNodes; ++n) {
      if (n * kGroups / kNodes != gi) continue;
      g->net->attach(n, [gp = g.get()](const sim::message& m) {
        gp->got.push_back(
            {m.src, *m.payload.get<int>(), m.sent_at, gp->rt->now()});
      });
    }
    gs[gi] = std::move(g);
  }
  return gs;
}

rt::socket_transport_params transport_params(std::uint32_t gi,
                                              std::uint16_t port) {
  rt::socket_transport_params tp;
  tp.process_index = gi;
  tp.process_count = kGroups;
  tp.node_count = kNodes;
  tp.base_port = port;
  tp.delta_max = 50_ms;  // Δ accounting is not under test here
  return tp;
}

/// Give every group a started transport on a random base port, retrying
/// (as perfbench does) when a port is already taken. Returns the port.
std::uint16_t start_transports(std::array<std::unique_ptr<group>, kGroups>& gs,
                               duration perf_extra) {
  for (int attempt = 0;; ++attempt) {
    const std::uint16_t port = random_base_port();
    try {
      for (std::uint32_t gi = 0; gi < kGroups; ++gi) {
        group& g = *gs[gi];
        g.tx = std::make_unique<rt::socket_transport>(
            *g.rt, *g.net, g.mon, transport_params(gi, port));
        if (perf_extra > duration::zero())
          g.tx->set_performance_fault_at(time_point::zero(), 1.0, perf_extra);
        g.tx->start();
      }
      return port;
    } catch (const hades::error&) {
      for (auto& g : gs) g->tx.reset();
      if (attempt >= 7) throw;
    }
  }
}

TEST(SocketTransportTest, StartAddsNoThread) {
  auto gs = make_groups(steady_now_ns());
  // A sanitizer runtime may start a helper thread with the first thread
  // the process creates; make sure it is already counted.
  std::thread([] {}).join();
  const std::size_t before = settled_thread_count();
  start_transports(gs, duration::zero());
  // The engine's run loop reads the socket; delayed frames and the
  // hold-back expiry ride the engine's timers.
  EXPECT_EQ(settled_thread_count(), before + 0);
  for (auto& g : gs) g->tx->stop();
  EXPECT_EQ(settled_thread_count(), before);
}

TEST(SocketTransportTest, DatagramWakesALoopParkedOnAFarTimer) {
  auto gs = make_groups(steady_now_ns());
  start_transports(gs, duration::zero());
  group& from = *gs[0];
  group& to = *gs[1];
  // The receiving loop's only event is 50 ms out; the frame leaves 10 ms
  // in. Read only when that timer fires, it would arrive ~40 ms late.
  const time_point t0 = to.rt->now();
  bool timer_fired = false;
  to.rt->at(t0 + 50_ms, [&timer_fired] { timer_fired = true; });
  from.rt->at(t0 + 10_ms, [&from] {
    from.net->unicast(0, 2, 0, sim::wire_payload(int{1}));
  });
  std::thread sender([&] { from.rt->run_until(t0 + 15_ms); });
  to.rt->run_until(t0 + 60_ms);
  sender.join();

  ASSERT_TRUE(timer_fired);
  ASSERT_EQ(to.got.size(), 1u);
  const delivery& d = to.got[0];
  EXPECT_LE(d.delivered_at - d.sent_at, rt::socket_transport_params{}.holdback)
      << "the frame waited for the parked timer";
}

TEST(SocketTransportTest, FailedBindThrowsAndClosesTheSocket) {
  auto gs = make_groups(steady_now_ns());
  const std::uint16_t port = start_transports(gs, duration::zero());
  group& g = *gs[0];
  // A second transport for group 0, on the port group 0 already holds.
  rt::socket_transport clash(*g.rt, *g.net, g.mon, transport_params(0, port));
  const std::size_t fds = count_entries("/proc/self/fd");
  EXPECT_THROW(clash.start(), hades::error);
  EXPECT_EQ(count_entries("/proc/self/fd"), fds);
}

TEST(SocketTransportTest, PerformanceFaultDelaysEveryFrameAndLosesNone) {
  constexpr int kFrames = 40;
  constexpr duration kExtra = 2_ms;
  // Virtual zero a little ahead, so set-up finishes before the first send.
  auto gs = make_groups(steady_now_ns() + 20'000'000);
  start_transports(gs, kExtra);
  // Both directions: node 0 -> node 2 (group 0 to 1), node 3 -> node 1.
  const std::array<std::pair<node_id, node_id>, 2> links{{{0, 2}, {3, 1}}};
  for (const auto& [src, dst] : links) {
    group& g = *gs[src * kGroups / kNodes];
    for (int k = 0; k < kFrames; ++k)
      g.rt->at(time_point::at(1_ms + 200_us * k), [&g, src, dst, k] {
        g.net->unicast(src, dst, 0, sim::wire_payload(int{k}));
      });
  }
  // Ample slack under load; relative, as a slow set-up can pass 1 ms.
  const time_point end = gs[0]->rt->now() + 100_ms;
  std::thread peer([&] { gs[1]->rt->run_until(end); });
  gs[0]->rt->run_until(end);
  peer.join();

  for (const auto& [src, dst] : links) {
    const group& to = *gs[dst * kGroups / kNodes];
    std::vector<int> seqs;
    for (const delivery& d : to.got) {
      if (d.src != src) continue;
      seqs.push_back(d.seq);
      EXPECT_GE(d.delivered_at, d.sent_at + kExtra)
          << "frame " << d.seq << " from node " << src << " arrived early";
    }
    std::vector<int> in_order(kFrames);
    for (int k = 0; k < kFrames; ++k) in_order[k] = k;
    EXPECT_EQ(seqs, in_order) << "link " << src << " -> " << dst;
  }
  for (const auto& g : gs) {
    const auto st = g->tx->stats();
    EXPECT_EQ(st.sent, static_cast<std::uint64_t>(kFrames));
    EXPECT_EQ(st.delayed, st.sent);
    EXPECT_EQ(st.received, static_cast<std::uint64_t>(kFrames));
    EXPECT_EQ(st.gaps_declared, 0u);
  }
}

TEST(SocketTransportTest, DelayedFrameOutlivingItsTransportIsNeverSent) {
  auto gs = make_groups(steady_now_ns());
  start_transports(gs, 5_ms);
  group& g = *gs[0];
  const time_point t0 = g.rt->now() + 20_ms;
  g.rt->at(t0, [&g] { g.net->unicast(0, 2, 0, sim::wire_payload(int{7})); });
  g.rt->run_until(t0 + 1_ms);
  ASSERT_EQ(g.tx->stats().delayed, 1u);
  ASSERT_FALSE(g.rt->empty());  // the delayed send, due at t0 + 5 ms

  g.tx.reset();
  g.rt->run_until(g.rt->now() + 10_ms);  // past the frame's date
  EXPECT_TRUE(g.rt->empty());
  // The peer's loop reads whatever reached its socket.
  gs[1]->rt->run_until(gs[1]->rt->now() + 5_ms);
  EXPECT_EQ(gs[1]->tx->stats().received, 0u);
}

}  // namespace
}  // namespace hades
