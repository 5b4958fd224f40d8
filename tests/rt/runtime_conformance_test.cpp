// Runtime conformance battery (DESIGN.md, "Runtime factory & injector
// API"): every backend `runtime::make` builds — sim, sharded, realtime —
// must honour the same observable contract, because services
// and scenarios are written against `hades::runtime` and get re-run
// unchanged on all of them. Each test runs once per backend via the
// parameterised fixture; dates are milliseconds past a safety base so the
// real-clock backend (whose `now()` advances on its own) sees them in the
// future, while the simulated backends are unaffected.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/runtime.hpp"
#include "util/error.hpp"

namespace hades {
namespace {

using namespace hades::literals;

constexpr std::size_t conf_nodes = 8;

runtime::options options_for(const std::string& backend) {
  runtime::options o;
  o.backend = backend;
  o.node_count = conf_nodes;
  if (backend == "sharded") {
    o.shards = 2;
    o.workers = 0;  // serial rounds: callbacks stay on the calling thread
    o.lookahead = duration::microseconds(10);
  }
  return o;
}

class RuntimeConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { rt_ = runtime::make(options_for(GetParam())); }

  /// Dates must land ahead of the realtime backend's moving clock; 50ms
  /// absorbs test-process startup jitter without slowing the sim backends
  /// (which execute virtual time instantly).
  [[nodiscard]] time_point base() const { return rt_->now() + 50_ms; }

  std::unique_ptr<runtime> rt_;
};

TEST_P(RuntimeConformance, TimerDateOrderingAndSameDateFifo) {
  // A fresh runtime holds nothing.
  ASSERT_NE(rt_, nullptr);
  EXPECT_TRUE(rt_->empty());
  EXPECT_EQ(rt_->pending(), 0u);
  const time_point t0 = base();
  std::vector<int> order;
  rt_->at(t0 + 2_ms, [&] { order.push_back(3); });
  rt_->at(t0 + 1_ms, [&] { order.push_back(1); });  // same date, added first
  rt_->at(t0 + 1_ms, [&] { order.push_back(2); });  // ... fires second
  rt_->run_until(t0 + 3_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(RuntimeConformance, CancelPreventsAndIsIdempotent) {
  const time_point t0 = base();
  int fired = 0;
  const auto keep = rt_->at(t0 + 1_ms, [&] { ++fired; });
  const auto drop = rt_->at(t0 + 1_ms, [&] { ADD_FAILURE(); });
  rt_->cancel(drop);
  rt_->cancel(drop);                // double cancel: no-op
  rt_->cancel(sim::invalid_event);  // invalid id: no-op
  rt_->run_until(t0 + 2_ms);
  EXPECT_EQ(fired, 1);
  // Cancel after fire: the id is stale, later events are untouched.
  rt_->cancel(keep);
  int late = 0;
  rt_->at(rt_->now() + 1_ms, [&] { ++late; });
  rt_->run_until(rt_->now() + 2_ms);
  EXPECT_EQ(late, 1);
}

TEST_P(RuntimeConformance, PeriodicAtNodeFiresOnGridUntilBound) {
  // The one periodic primitive: firing k is dated first + k*period (no
  // drift, however late a firing runs) on the shard owning the node, and
  // the chain stops before `until` — here exactly on the grid, so the
  // bound itself is excluded.
  const time_point first = base() + 1_ms;
  const duration period = 1_ms;
  const node_id n = conf_nodes - 1;
  std::vector<std::pair<time_point, std::uint32_t>> fired;
  rt_->periodic_at_node(
      n, first, period,
      [&] { fired.emplace_back(rt_->now(), rt_->executing_shard()); },
      first + period * 4);
  rt_->run_until(first + period * 8);
  ASSERT_EQ(fired.size(), 4u);
  for (std::size_t k = 0; k < fired.size(); ++k) {
    const time_point due = first + period * static_cast<std::int64_t>(k);
    // A real-clock callback reads its actual firing instant, never early.
    if (GetParam() == "realtime")
      EXPECT_GE(fired[k].first, due) << "firing " << k;
    else
      EXPECT_EQ(fired[k].first, due) << "firing " << k;
    EXPECT_EQ(fired[k].second, rt_->shard_of(n));
  }
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, InfiniteTimersNeverArm) {
  EXPECT_EQ(rt_->after(duration::infinity(), [] { ADD_FAILURE(); }),
            sim::invalid_event);
  rt_->periodic_at_node(0, base() + 1_ms, duration::infinity(),
                        [] { ADD_FAILURE(); });
  rt_->periodic_at_node(0, time_point::infinity(), 1_ms,
                        [] { ADD_FAILURE(); });
  EXPECT_TRUE(rt_->empty());
  EXPECT_EQ(rt_->pending(), 0u);
}

TEST_P(RuntimeConformance, NonPositivePeriodIsRejected) {
  // A zero period would re-arm at one date forever and hang run().
  EXPECT_THROW(rt_->periodic_at_node(0, base() + 1_ms, duration::zero(),
                                     [] { ADD_FAILURE(); }),
               hades::error);
  EXPECT_THROW(rt_->periodic_at_node(0, base() + 1_ms, -1_ms,
                                     [] { ADD_FAILURE(); }),
               hades::error);
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, OnlyTheRealtimeBackendWatchesFds) {
  if (GetParam() == "realtime") {
    EXPECT_NO_THROW(rt_->watch_fd(-1, nullptr));  // removing no hook: no-op
  } else {
    EXPECT_THROW(rt_->watch_fd(0, [] { ADD_FAILURE(); }), hades::error);
  }
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, InEventContextOnlyInsideCallbacks) {
  EXPECT_FALSE(rt_->in_event_context());
  bool inside = false;
  rt_->at(base() + 1_ms, [&] { inside = rt_->in_event_context(); });
  rt_->run_until(base() + 2_ms);
  EXPECT_TRUE(inside);
  EXPECT_FALSE(rt_->in_event_context());
}

TEST_P(RuntimeConformance, AtNodeExecutesOnOwningShard) {
  // Cross-shard dates must respect the backend's lookahead; ms-scale dates
  // clear every configured lookahead here. With one process / zero workers
  // each at_node callback must observe the owning shard as executing.
  const time_point t0 = base();
  std::vector<std::pair<node_id, std::uint32_t>> seen;
  const node_id probes[] = {0, static_cast<node_id>(conf_nodes - 1)};
  for (node_id n : probes)
    rt_->at_node(n, t0 + 1_ms,
                 [&seen, this, n] { seen.emplace_back(n, rt_->executing_shard()); });
  rt_->run_until(t0 + 2_ms);
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& [n, shard] : seen) EXPECT_EQ(shard, rt_->shard_of(n));
  EXPECT_GE(rt_->shard_count(), 1u);
}

TEST_P(RuntimeConformance, RunUntilDrainsTransitiveWork) {
  // The draining guarantee: events scheduled by events dated <= t also run
  // before run_until(t) returns, and the clock settles at (or, for a
  // real-clock backend, past) t.
  const time_point t0 = base();
  std::vector<int> order;
  rt_->at(t0 + 1_ms, [&] {
    order.push_back(1);
    rt_->at(t0 + 2_ms, [&] { order.push_back(2); });
  });
  rt_->run_until(t0 + 3_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GE(rt_->now(), t0 + 3_ms);
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, RunMaxEventsOvershootsAtMostOneAtom) {
  const time_point t0 = base();
  int fired = 0;
  for (int i = 1; i <= 5; ++i)
    rt_->at(t0 + 1_ms * i, [&] { ++fired; });
  const std::size_t first = rt_->run(3);
  // May overshoot by the backend's atom of progress but never stops early.
  EXPECT_GE(first, 3u);
  EXPECT_LE(first, 5u);
  EXPECT_EQ(first, static_cast<std::size_t>(fired));
  const std::size_t rest = rt_->run();
  EXPECT_EQ(first + rest, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, ExecutedCountsAcrossRuns) {
  const time_point t0 = base();
  for (int i = 0; i < 3; ++i)
    rt_->at(t0 + 1_ms + 10_us * i, [] {});
  rt_->run_until(t0 + 2_ms);
  EXPECT_EQ(rt_->executed(), 3u);
  rt_->at(rt_->now() + 1_ms, [] {});
  rt_->run_until(rt_->now() + 2_ms);
  EXPECT_EQ(rt_->executed(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, RuntimeConformance,
    ::testing::Values("sim", "sharded", "realtime"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

/// A connected pair of datagram sockets, closed on scope exit.
struct socket_pair {
  int fd[2] = {-1, -1};
  socket_pair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_DGRAM, 0, fd), 0);
  }
  ~socket_pair() {
    for (int f : fd)
      if (f >= 0) ::close(f);
  }
};

TEST(RealtimeEngine, LateBacklogDoesNotStarveTheWatchedFd) {
  // Twenty events share one date, and the first overruns it by 5 ms, so the
  // other nineteen are all late: the loop runs them back to back without
  // waiting. The first also makes the watched socket readable; the loop
  // must read it before the next late event, not after the backlog.
  auto rt = runtime::make(options_for("realtime"));
  socket_pair sp;
  constexpr int backlog = 20;
  int fired = 0;
  int fired_at_read = -1;
  rt->watch_fd(sp.fd[0], [&] {
    char b[8];
    while (::recv(sp.fd[0], b, sizeof b, MSG_DONTWAIT) > 0) {
    }
    if (fired_at_read < 0) fired_at_read = fired;
  });
  const time_point t0 = rt->now() + 5_ms;
  rt->at(t0, [&] {
    ++fired;
    const char b = 'x';
    EXPECT_EQ(::send(sp.fd[1], &b, 1, 0), 1);
    while (rt->now() < t0 + 5_ms) {
    }
  });
  for (int i = 1; i < backlog; ++i) rt->at(t0, [&] { ++fired; });
  rt->run_until(t0 + 6_ms);
  EXPECT_EQ(fired, backlog);
  EXPECT_EQ(fired_at_read, 1) << "the socket waited for the late backlog";
  rt->watch_fd(-1, nullptr);
}

TEST(RealtimeEngine, ForeignThreadSchedulingDuringRunUntilThrows) {
  // One thread per realtime process: while a loop runs, a scheduling call
  // from any other thread is a race on the event core, and it is refused.
  auto rt = runtime::make(options_for("realtime"));
  std::atomic<bool> in_loop{false};
  std::atomic<int> outcome{0};  // 1 = refused, 2 = accepted
  const time_point t0 = rt->now() + 5_ms;
  rt->at(t0, [&] {
    in_loop = true;
    // Hold the loop inside this callback until the foreign call is over.
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (outcome.load() == 0 && std::chrono::steady_clock::now() < give_up) {
    }
  });
  std::thread foreign([&] {
    while (!in_loop.load()) std::this_thread::yield();
    try {
      rt->at(t0 + 1_s, [] { ADD_FAILURE(); });
      outcome = 2;
    } catch (const hades::invariant_violation&) {
      outcome = 1;
    }
  });
  rt->run_until(t0 + 1_ms);
  foreign.join();
  EXPECT_EQ(outcome.load(), 1);
  EXPECT_TRUE(rt->empty());
  // With no loop running, any thread may schedule (set-up, inspection).
  std::thread([&] { rt->at(rt->now() + 1_ms, [] {}); }).join();
  EXPECT_EQ(rt->pending(), 1u);
}

TEST(RealtimeEngine, LateNestedEventStillDrainsBeforeRunUntilBound) {
  // The draining guarantee on the late path, forced deterministically: the
  // first callback overruns past the run_until bound before arming a
  // nested event whose nominal date (t0+2ms) is already behind the wall
  // clock. That event must keep its nominal date and fire inside
  // run_until(t0+3ms) — re-keying it to the (later) wall clock would push
  // it past the bound and leave it pending.
  auto rt = runtime::make(options_for("realtime"));
  const time_point t0 = rt->now() + 5_ms;
  std::vector<int> order;
  rt->at(t0 + 1_ms, [&] {
    order.push_back(1);
    while (rt->now() < t0 + 4_ms) {
    }
    rt->at(t0 + 2_ms, [&] { order.push_back(2); });
  });
  rt->run_until(t0 + 3_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(rt->empty());
}

TEST(RuntimeFactory, UnknownBackendThrows) {
  runtime::options o;
  o.backend = "no-such-backend";
  EXPECT_THROW((void)runtime::make(o), hades::error);
}

}  // namespace
}  // namespace hades
