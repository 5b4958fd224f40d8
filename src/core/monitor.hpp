// Monitoring service (paper section 3.2.1).
//
// The dispatcher monitors thread execution to detect: (i) deadline
// violations; (ii) violations of the arrival law of task activation
// requests; (iii) early thread termination and orphan thread execution;
// (iv) deadlocks; and (v) network omission failures, observed through
// remote precedence constraints that fail to arrive by the latest start
// time of their consumer. The paper notes no existing real-time
// environment implemented all of these — this module does. The fault
// detector additionally feeds node-suspicion events into the same stream,
// so mode policies can react to partitions as well as crashes.
//
// The monitor itself is an event sink with query helpers; the detectors
// live in the dispatcher/system, which know the execution state.
//
// Shard confinement (DESIGN.md): once bound to a runtime the monitor keeps
// one event partition per shard; `record` appends only to the partition of
// the executing shard, so worker threads never share a vector. Readers see
// one merged stream ordered by {time, shard, per-shard sequence} — the
// cross-shard inbox key, making the merged order independent of worker
// interleaving. Two subscription flavours exist:
//   * `subscribe` — synchronous, runs on the recording shard. The listener
//     must only touch state owned by that shard (or the monitor must only
//     be used in serial runs).
//   * `subscribe_at_node` — the listener is re-invoked on the shard owning
//     `home`, at `record date + delay`, via `runtime::at_node`. With a
//     `delay` no smaller than the backend's lookahead this is legal from
//     any shard, and because the delay is a constant the redelivery date is
//     identical on every backend — what keeps mode switching bit-identical
//     across shard and worker counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/runtime.hpp"
#include "sim/shard_log.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::core {

enum class monitor_event_kind {
  deadline_miss,
  arrival_law_violation,
  early_termination,
  orphan_killed,
  latest_start_violation,
  network_omission_suspected,
  deadlock_suspected,
  instance_rejected,
  node_crash,
  node_recover,
  node_suspected,    // fault detector: observer started suspecting `node`
  node_unsuspected,  // fault detector: observer heard `node` again
};

[[nodiscard]] constexpr const char* to_string(monitor_event_kind k) {
  switch (k) {
    case monitor_event_kind::deadline_miss: return "deadline-miss";
    case monitor_event_kind::arrival_law_violation: return "arrival-law-violation";
    case monitor_event_kind::early_termination: return "early-termination";
    case monitor_event_kind::orphan_killed: return "orphan-killed";
    case monitor_event_kind::latest_start_violation: return "latest-start-violation";
    case monitor_event_kind::network_omission_suspected: return "network-omission-suspected";
    case monitor_event_kind::deadlock_suspected: return "deadlock-suspected";
    case monitor_event_kind::instance_rejected: return "instance-rejected";
    case monitor_event_kind::node_crash: return "node-crash";
    case monitor_event_kind::node_recover: return "node-recover";
    case monitor_event_kind::node_suspected: return "node-suspected";
    case monitor_event_kind::node_unsuspected: return "node-unsuspected";
  }
  return "?";
}

struct monitor_event {
  monitor_event_kind kind = monitor_event_kind::deadline_miss;
  time_point at;
  node_id node = invalid_node;
  task_id task = invalid_task;
  instance_number instance = 0;
  std::string subject;
  std::string detail;
};

class monitor {
 public:
  using listener = std::function<void(const monitor_event&)>;

  monitor() = default;

  /// Attach to a runtime: grows one partition per shard, routes `record` by
  /// the executing shard, and enables `subscribe_at_node` redelivery. The
  /// owning `core::system` calls this from its constructor.
  void bind(hades::runtime& rt) {
    rt_ = &rt;
    log_.bind(rt);
  }

  void record(monitor_event e);

  /// Subscribe to every future event, synchronously on the recording shard
  /// (shard-local listeners and serial-mode services).
  void subscribe(listener l) { listeners_.push_back(std::move(l)); }

  /// Subscribe with deterministic cross-shard redelivery: the listener runs
  /// on the shard owning `home`, at the event date + `delay`. `delay` must
  /// be >= the backend's cross-shard lookahead (the network's delta_min for
  /// system runs); it is applied on every backend so redelivery dates are
  /// backend-independent. Without a bound runtime the listener fires
  /// synchronously.
  void subscribe_at_node(node_id home, duration delay, listener l) {
    routed_.push_back({home, delay, std::move(l)});
  }

  /// Multi-process runtimes: a routed listener whose home node lives in
  /// another OS process cannot be re-invoked through `at_node` (closures do
  /// not cross address spaces — the realtime backend silently drops foreign
  /// `at_node`s). A forwarder intercepts those redeliveries: `record` offers
  /// it each (event, home, delay) triple once per distinct home; returning
  /// true means "home is foreign, I shipped the event" (the owning process
  /// re-injects it via `deliver_forwarded`), false falls through to the
  /// local `at_node` path. Null (every sim run) changes nothing.
  using forward_fn =
      std::function<bool(const monitor_event&, node_id home, duration delay)>;
  void set_forwarder(forward_fn f) { forwarder_ = std::move(f); }

  /// Re-deliver an event forwarded from another process to the routed
  /// listeners subscribed at `home` (which this process owns). The event is
  /// NOT re-recorded — its originating process already logged it — so merged
  /// streams concatenated across processes stay duplicate-free. The socket
  /// transport calls it between events, outside event context.
  void deliver_forwarded(const monitor_event& e, node_id home);

  /// Merged event stream, ordered by {time, shard, per-shard sequence}.
  /// Rebuilt lazily; do not call while worker threads are recording.
  [[nodiscard]] const std::vector<monitor_event>& events() const {
    return log_.merged();
  }

  [[nodiscard]] std::vector<monitor_event> of_kind(monitor_event_kind k) const {
    std::vector<monitor_event> out;
    for (const auto& e : events())
      if (e.kind == k) out.push_back(e);
    return out;
  }
  [[nodiscard]] std::size_t count(monitor_event_kind k) const {
    std::size_t n = 0;
    log_.for_each([&](const monitor_event& e) {
      if (e.kind == k) ++n;
    });
    return n;
  }
  [[nodiscard]] std::size_t count_for_task(monitor_event_kind k,
                                           task_id t) const {
    std::size_t n = 0;
    log_.for_each([&](const monitor_event& e) {
      if (e.kind == k && e.task == t) ++n;
    });
    return n;
  }
  void clear() { log_.clear(); }

  [[nodiscard]] std::string render() const;

 private:
  struct time_of {
    time_point operator()(const monitor_event& e) const { return e.at; }
  };
  struct routed_listener {
    node_id home = 0;
    duration delay = duration::zero();
    listener fn;
  };

  hades::runtime* rt_ = nullptr;
  sim::shard_log<monitor_event, time_of> log_;
  std::vector<listener> listeners_;
  std::vector<routed_listener> routed_;
  forward_fn forwarder_;  // null outside multi-process realtime runs
};

}  // namespace hades::core
