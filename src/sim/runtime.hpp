// The HADES runtime abstraction (see DESIGN.md, "Runtime layer").
//
// Every component that schedules work — dispatchers, processors, the
// net_mngt task, the simulated LAN, and the timer-driven services — programs
// against this interface instead of a concrete event engine. Three backends
// implement it — the discrete-event `sim::engine`, the sharded
// multi-engine `sim::sharded_engine` and the wall-clock `rt` engine — and
// any of them slots in without touching src/core or src/services. Those
// layers must include this header only, never `sim/engine.hpp` (enforced by
// CI and by the `runtime_layer_include_hygiene` ctest; the interface
// contract itself is covered by tests/rt/runtime_conformance_test.cpp).
//
// Semantics every backend must honour:
//   * time is monotonically non-decreasing and starts at zero,
//   * events at the same instant fire in scheduling (FIFO) order,
//   * `cancel` is O(1), idempotent, and safe on fired or invalid ids,
//   * every event is one-shot; periodic work is a `periodic_at_node` chain
//     of one-shot events at first, first+p, first+2p, ... (no drift).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/error.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades {

class runtime {
 public:
  /// Backend-neutral construction parameters (the runtime factory API).
  /// `runtime::make` builds the backend `backend` names — "sim" (single
  /// pooled event engine), "sharded" (multi-engine conservative rounds),
  /// "realtime" (steady_clock timers, optionally one OS process per node
  /// group) — so composition layers select a backend by name and never
  /// spell a concrete engine type.
  struct options {
    std::string backend = "sim";
    std::size_t node_count = 0;  // nodes the topology queries cover

    // --- sharded backend ---------------------------------------------------
    /// Node groups, each with its own event core (<= 64). 0 = 2; clamped
    /// to `node_count` when that is set.
    std::size_t shards = 0;
    /// Worker threads advancing shards concurrently. 0 = serial
    /// deterministic rounds on the calling thread. Worker mode requires
    /// every event handler to touch only state owned by its executing shard
    /// (DESIGN.md, "Shard confinement").
    std::size_t workers = 0;
    /// Conservative lookahead: lower bound on every cross-shard scheduling
    /// delay (the network's delta_min for system runs). Must be >= 1ns.
    duration lookahead = duration::microseconds(10);
    /// node -> shard (sharded) or node -> owning process (realtime).
    /// Empty = `sim::contiguous_blocks` over `node_count`. A node past the
    /// map's end lives on shard `n % shards` (sharded) or in process 0
    /// (realtime).
    std::vector<std::uint32_t> node_shard;

    // --- realtime backend --------------------------------------------------
    /// Shared steady_clock epoch (nanoseconds since the clock's arbitrary
    /// zero) that virtual time 0 maps to; 0 = construction instant. A
    /// multi-process run passes one epoch to every process so their virtual
    /// clocks agree.
    std::int64_t epoch_ns = 0;
    /// Real seconds per virtual second (>1 = slow motion for tight plans).
    double time_scale = 1.0;
    /// This process's index among `process_count` cooperating processes.
    /// Nodes mapped elsewhere by `node_shard` are foreign: `at_node` on
    /// them is dropped (their owner runs the equivalent chain).
    std::uint32_t process_index = 0;
    std::size_t process_count = 1;
  };

  /// Construct the backend `o.backend` names: "sim", "sharded" or
  /// "realtime". Throws on any other name.
  static std::unique_ptr<runtime> make(const options& o);

  virtual ~runtime() = default;
  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  /// Current time. Monotonically non-decreasing.
  [[nodiscard]] virtual time_point now() const = 0;

  /// Schedule `fn` to run at absolute time `t` (must be >= now()).
  virtual sim::event_id at(time_point t, sim::event_fn fn) = 0;

  /// `at` with a placement hint: the event belongs to node `dst` (it will
  /// read or mutate that node's state when it fires). The single-engine
  /// backend ignores the hint; the sharded backend routes the event to the
  /// shard owning `dst`, enqueuing it at the shard boundary when the caller
  /// is executing on a different shard. Cross-shard events must respect the
  /// backend's lookahead (`t >= now() + lookahead`) and are fire-and-forget:
  /// the returned id may be `invalid_event` (not individually cancellable).
  virtual sim::event_id at_node(node_id dst, time_point t, sim::event_fn fn) {
    (void)dst;
    return at(t, std::move(fn));
  }

  /// Schedule `fn` to run after `d` has elapsed. An infinite delay never
  /// fires.
  sim::event_id after(duration d, sim::event_fn fn) {
    if (d.is_infinite()) return sim::invalid_event;
    return at(now() + d, std::move(fn));
  }

  /// Drift-free per-node periodic chain: runs `fn` at `first`,
  /// `first + period`, ... while the date stays below `until`. Built on
  /// `at_node`, so on the sharded backend every firing executes on the
  /// shard owning `n` — the anchoring rule timer-driven services follow to
  /// keep a node's sends in send-date order across backends (DESIGN.md,
  /// "Scenario layer"). The chain is not cancellable: gate inside `fn`
  /// (e.g. on `system::crashed`). An infinite period arms nothing (a
  /// disabled timer), matching `after`. A zero or negative period would
  /// re-arm at one date forever and is rejected with `hades::error`.
  void periodic_at_node(node_id n, time_point first, duration period,
                        std::function<void()> fn,
                        time_point until = time_point::infinity()) {
    validate(period > duration::zero(),
             "runtime::periodic_at_node: period must be positive");
    if (first >= until || period.is_infinite()) return;
    periodic_link(n, first, period,
                  std::make_shared<std::function<void()>>(std::move(fn)),
                  until);
  }

  /// Cancel a previously scheduled event. Safe with invalid_event, with an
  /// already-fired id, and when called twice.
  virtual void cancel(sim::event_id id) = 0;

  /// Readiness hook for one fd: the run loop calls `on_ready` between
  /// events whenever `fd` is readable (it must drain the fd). A new call
  /// replaces the hook; a negative `fd` removes it. Only the realtime
  /// backend waits on fds; the simulated ones throw `hades::error`.
  virtual void watch_fd(int /*fd*/, std::function<void()> /*on_ready*/) {
    throw error("runtime::watch_fd: only the realtime backend waits on fds");
  }

  // --- shard topology (DESIGN.md, "Shard confinement") ----------------------
  // The small query surface components need to keep their state
  // shard-confined: which shard owns a node, how many shards exist, and
  // which shard the current thread is executing. Single-engine backends are
  // one shard; `executing_shard()` returns 0 outside event execution.
  [[nodiscard]] virtual std::uint32_t shard_of(node_id n) const {
    (void)n;
    return 0;
  }
  [[nodiscard]] virtual std::size_t shard_count() const { return 1; }
  [[nodiscard]] virtual std::uint32_t executing_shard() const { return 0; }
  /// Worker threads concurrently advancing shards (0 = all events run on
  /// the calling thread). Components with serial-only structural paths
  /// (e.g. `sim::network` handler-table growth) gate on this.
  [[nodiscard]] virtual std::size_t worker_count() const { return 0; }
  /// True while the calling thread is inside one of this runtime's event
  /// callbacks. Combined with `worker_count() > 0` it identifies the
  /// contexts where structural mutation of shared state would race.
  [[nodiscard]] virtual bool in_event_context() const { return false; }

  // --- execution control ----------------------------------------------------
  // The draining guarantee, identical on every backend (and asserted by the
  // conformance suite, tests/rt/runtime_conformance_test.cpp):
  //   * `run_until(t)` returns only once every event dated <= t — including
  //     events those events scheduled — has executed, and `now() == t`
  //     afterwards. `t` must be >= now(). A real-clock backend additionally
  //     waits for the wall clock to pass t before returning.
  //   * `run(max_events)` returns only when the queue is empty or at least
  //     `max_events` events have executed. It may overshoot `max_events` by
  //     a sharded round (the sharded backend's atom of progress) but never
  //     stops early with work pending.
  //   * `step()` executes the next pending event and returns true, or
  //     returns false when idle; a real-clock backend blocks until the
  //     event's date.

  /// Run the next pending event, if any. Returns false when idle.
  virtual bool step() = 0;

  /// Run all events with timestamp <= t; afterwards now() == t.
  /// Returns the number of events executed.
  virtual std::size_t run_until(time_point t) = 0;

  /// Run until the event queue drains (or >= `max_events` executed; the
  /// sharded backend stops at round granularity, see above).
  virtual std::size_t run(std::size_t max_events = 100'000'000) = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t pending() const = 0;
  [[nodiscard]] virtual std::uint64_t executed() const = 0;

 private:
  /// One link of a `periodic_at_node` chain. The callable is allocated once
  /// per chain and shared by pointer, so each link's closure fits the event
  /// core's inline buffer and a firing allocates nothing.
  void periodic_link(node_id n, time_point first, duration period,
                     std::shared_ptr<std::function<void()>> fn,
                     time_point until) {
    if (first >= until) return;
    at_node(n, first, [this, n, first, period, until,
                       fn = std::move(fn)]() mutable {
      (*fn)();
      periodic_link(n, first + period, period, std::move(fn), until);
    });
  }

 protected:
  runtime() = default;
};

namespace sim {
/// Factory for the discrete-event simulation backend (`sim::engine`),
/// usable without including sim/engine.hpp.
std::unique_ptr<runtime> make_engine();

/// The default node -> group map every built-in multi-group backend and
/// the socket transport share: contiguous balanced blocks, node n of
/// `node_count` in group `n * groups / node_count`. Workloads place
/// communicating tasks on neighbouring node ids, so blocks minimize
/// cross-group traffic — and the sharded/realtime backends agree on
/// placement, which the sim-vs-real harness relies on.
std::vector<std::uint32_t> contiguous_blocks(std::size_t node_count,
                                             std::size_t groups);

/// Factory for the sharded multi-engine backend (`sim::sharded_engine`,
/// DESIGN.md "Sharded backend"), usable without including
/// sim/sharded_engine.hpp. Reads the sharded fields of `o` (node_count,
/// shards, workers, lookahead, node_shard).
std::unique_ptr<runtime> make_sharded_engine(const runtime::options& o);
}  // namespace sim

}  // namespace hades
