// Simulated LAN with bounded delay and the paper's network fault model.
//
// The paper assumes an ATM LAN whose communication failures are omissions
// (messages lost) and performance failures (messages delivered late,
// section 2.1). The simulator implements exactly those semantics: delivery
// latency is drawn uniformly from [delta_min, delta_max] plus a per-byte
// transfer cost; faults can be injected probabilistically per link or
// scripted deterministically ("drop the next k messages from a to b").
// Per-link FIFO order is preserved, as on an ATM virtual circuit.
//
// Every stochastic draw (latency jitter, omission, lateness) comes from a
// per-source-node stream derived from the seed, never from a shared global
// stream: a node's wire behaviour depends only on its own send history, so
// the same workload produces bit-identical deliveries on the single-engine
// and sharded runtime backends (DESIGN.md, "Sharded backend"). Deliveries
// are scheduled with `runtime::at_node(dst, ...)` so the sharded backend
// can route each one to the shard owning the destination.
//
// Wire fast path (DESIGN.md, "Wire fast path"): a steady-state fault-free
// send costs zero heap allocations and zero lock acquisitions. Payloads are
// `wire_payload`s (slab-pooled, refcount-shared across broadcast fan-out —
// never `std::any`'s per-copy heap box). Per-source destination-keyed state
// (FIFO floor, per-link omission rate, scripted drop bursts, directional
// link-down timeline) lives in one open-addressed `sparse_node_map` slot
// per destination *actually sent to* — sized by the topology's neighbour
// set, not by N, so 10k-node runs with clustered/tree topologies keep wire
// state near-linear system-wide instead of the O(N²) a dense
// [source][destination] layout costs (DESIGN.md, "Scalable topology
// layer"). One probe per send replaces four vector indexings; after the
// first send to a destination the slot exists and the path allocates
// nothing. Timeline lookups binary-search their sorted entries
// (`std::upper_bound`), so long pre-registered fault plans do not tax every
// send.
//
// Shard confinement (DESIGN.md): all per-link send-side state lives in one
// `source_state` per node, touched only at send time, i.e. on the shard
// owning the sender (every send a node performs executes on its own shard —
// the anchoring rule of DESIGN.md). Wire counters are atomics. The
// remaining globally-read fault state (node up/down, partitions, the global
// omission/performance rates) is an *immutable snapshot* published through
// one atomic pointer: every mutator copies the current snapshot, applies
// its time-indexed edit, and publishes the copy, so the hot path performs a
// single lock-free acquire-load instead of taking a reader/writer lock
// twice. Reads stay date-keyed — a send at date t reads the state
// configured for date t, never the state as of whichever wall-clock order
// the shards happened to execute the mutation in — which is what lets the
// scenario layer replay a fault plan bit-identically across shard AND
// worker counts (`scenario::apply` pre-registers a plan's whole global wire
// truth before the run; runtime re-registrations are same-date idempotent).
//
// Call `reserve_nodes` before a worker-threaded run (the owning
// `core::system` does): source slots and the handler table then pre-exist
// and the hot path performs no structural mutation of *shared* containers.
// Per-destination slots inside a source's sparse map still grow on first
// contact, but that growth is confined to the shard owning the source (the
// only shard that ever touches its send state), so it is legal under
// worker threads — unlike growing the shared handler table. Structural
// mutation of shared state — `attach`, `detach`, lazy source-slot growth —
// is serial-only and *enforced*: doing it from inside event execution
// while the backend runs worker threads throws instead of racing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "scenario/fault_injector.hpp"
#include "sim/runtime.hpp"
#include "sim/wire_payload.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sparse_map.hpp"
#include "util/timeline.hpp"
#include "util/types.hpp"

namespace hades::sim {

/// One frame on the wire. Payloads are type-erased pooled values (the
/// simulation is in-process; services down-cast on their own channel with
/// `payload.get<T>()`). Copying a message shares the payload by refcount.
struct message {
  node_id src = invalid_node;
  node_id dst = invalid_node;
  int channel = 0;
  wire_payload payload;
  std::size_t size_bytes = 0;
  std::uint64_t id = 0;  // unique per source: (src + 1) << 40 | per-src seq
  time_point sent_at;
};

/// The simulated LAN implements the scenario layer's `fault_injector`
/// surface (the date-taking setters below), so a declarative plan drives it
/// and the realtime socket shim through one interface.
class network : public scenario::fault_injector {
 public:
  struct params {
    duration delta_min = duration::microseconds(10);
    duration delta_max = duration::microseconds(50);
    duration per_byte = duration::nanoseconds(8);  // ~1 Gbit/s
  };

  using handler = std::function<void(const message&)>;

  network(runtime& rt, params p, std::uint64_t seed = 42)
      : rt_(&rt), params_(p), seed_(seed) {
    validate(p.delta_min <= p.delta_max, "network: delta_min > delta_max");
    validate(!p.delta_max.is_infinite(), "network: delta_max must be finite");
    publish_initial();
  }
  ~network();
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  /// Pre-create per-source slots and the handler table for nodes [0, n).
  /// Required before a worker-threaded run (shared-structure growth is
  /// single-threaded-only and enforced as such); `core::system` calls it
  /// with its node count. Destination slots inside each source's sparse map
  /// are *not* pre-created — they grow on first contact, on the source's
  /// own shard.
  void reserve_nodes(std::size_t n) {
    if (n > fanout_) fanout_ = n;
    while (sources_.size() < n) new_source();
    if (handlers_.size() < fanout_) {
      handlers_.resize(fanout_);
      delivered_by_dst_.resize(fanout_);
    }
  }

  /// Attach a node's receive handler. A node without a handler silently
  /// drops inbound traffic (models a crashed or absent node). Structural:
  /// serial-only once worker threads run (see header).
  void attach(node_id n, handler h) {
    assert_structural("attach");
    ensure_source(n);
    if (handlers_.size() <= n) {
      handlers_.resize(static_cast<std::size_t>(n) + 1);
      delivered_by_dst_.resize(handlers_.size());
    }
    handlers_[n] = std::move(h);
  }
  void detach(node_id n) {
    assert_structural("detach");
    if (n < handlers_.size()) handlers_[n] = nullptr;
  }
  [[nodiscard]] bool attached(node_id n) const {
    return n < handlers_.size() && handlers_[n] != nullptr;
  }
  /// Call `f(node)` for every attached node in ascending order, without
  /// materializing the list (the per-broadcast path of net_mngt).
  template <typename F>
  void for_each_attached(F&& f) const {
    for (node_id n = 0; n < handlers_.size(); ++n)
      if (handlers_[n]) f(n);
  }

  /// Send one message. Returns the message id (even when the frame is
  /// dropped at submit time).
  std::uint64_t unicast(node_id src, node_id dst, int channel,
                        wire_payload payload, std::size_t size_bytes = 64);

  /// Send to every attached node except the sender, sharing one pooled
  /// payload across the whole fan-out (refcount, not copies). Returns the
  /// number of frames submitted; the zero-allocation broadcast path.
  std::size_t fan_out(node_id src, int channel, const wire_payload& payload,
                      std::size_t size_bytes = 64);

  /// `fan_out` variant collecting per-destination message ids (allocates
  /// the id vector; tests and diagnostics only).
  std::vector<std::uint64_t> broadcast(node_id src, int channel,
                                       const wire_payload& payload,
                                       std::size_t size_bytes = 64);

  // --- fault injection -------------------------------------------------
  // The globally-read toggles (node-down, partition, omission rate,
  // performance faults) each have a date-taking variant programming the
  // state ahead of time. The scenario injector uses those to register a
  // whole plan's wire state *before* the run: reads are date-keyed, so
  // pre-registration changes nothing semantically, but it removes every
  // write-vs-read race a worker-threaded round could otherwise hit when a
  // relay send lands within one lookahead of a toggle. Each mutation
  // publishes a fresh immutable snapshot (see header comment).

  /// Probability that any message is lost (global omission rate). Takes
  /// effect from the current date onward (time-indexed toggle).
  void set_omission_rate(double p) { set_omission_rate_at(rt_->now(), p); }
  /// Program the omission rate to change at future date `t`.
  void set_omission_rate_at(time_point t, double p) override;
  /// Per-link omission probability, overrides the global rate. Send-side
  /// state: call from the source's shard (the injector anchors on it).
  void set_link_omission(node_id src, node_id dst, double p) {
    source(src).dst[dst].link_omission = p;
  }
  /// Deterministically drop the next `count` messages src -> dst.
  /// `channel >= 0` restricts the burst to that channel (so a scripted
  /// heartbeat burst cannot eat unrelated traffic on the same link); a
  /// channel-scoped burst is consumed before any `any_channel` burst on the
  /// same link.
  void drop_next(node_id src, node_id dst, int count, int channel = any_channel);
  /// Take one *direction* of a link down / up: frames src -> dst are dropped
  /// at submit time from this date onward, the reverse direction is
  /// untouched (asymmetric partitions are sets of these). Time-indexed: a
  /// frame is judged against the state at its own send date. Send-side
  /// state: call from the source's shard.
  void set_link_down(node_id src, node_id dst, bool down);
  /// Performance failures: with probability p, add `extra` delay. Takes
  /// effect from the current date onward (time-indexed toggle).
  void set_performance_fault(double p, duration extra) {
    set_performance_fault_at(rt_->now(), p, extra);
  }
  /// Program a performance-fault window edge at future date `t`.
  void set_performance_fault_at(time_point t, double p, duration extra) override;

  /// Take a whole node off the wire (both directions): outbound frames are
  /// dropped at submit time and inbound frames at delivery time, so a
  /// crashed node neither sends nor receives — `core::system::crash_node`
  /// drives this, making crashes symmetric at the wire. Time-indexed: a
  /// frame is judged against the node state at its own send/delivery date.
  void set_node_down(node_id n, bool down) {
    set_node_down_at(rt_->now(), n, down);
  }
  /// Program a node's wire silence to toggle at future date `t`. Same-date
  /// re-registration (the scheduled crash action repeating the injector's
  /// pre-registered entry) is idempotent.
  void set_node_down_at(time_point t, node_id n, bool down) override;
  [[nodiscard]] bool node_down(node_id n) const {
    return snapshot().node_down_at(n, rt_->now());
  }

  /// Partition the LAN into isolated groups: frames whose endpoints are in
  /// different groups are dropped at submit time. Nodes not listed in any
  /// group stay connected to everyone. `heal_partition` reconnects all.
  void partition(const std::vector<std::vector<node_id>>& groups) {
    partition_at(rt_->now(), groups);
  }
  void heal_partition() { heal_partition_at(rt_->now()); }
  /// Program a partition / heal at future date `t`.
  void partition_at(time_point t,
                    const std::vector<std::vector<node_id>>& groups) override;
  void heal_partition_at(time_point t) override;

  // --- remote transport (realtime backend) ------------------------------
  /// Hook consulted first in the send path. Returning true means the frame's
  /// destination is owned by another OS process and the transport took it
  /// (fault decisions for such frames belong to the socket-layer shim, which
  /// consumes the same plan); false falls through to the local wire.
  /// Null (the default, every sim run) costs one branch.
  void set_remote_hook(std::function<bool(const message&)> hook) {
    remote_hook_ = std::move(hook);
  }
  /// Inject a frame that arrived from a remote transport: schedules the
  /// destination's handler on its owning shard at the current date, with the
  /// same delivery-date node-down check local frames get. The socket
  /// transport calls it from the engine's readiness hook, between events.
  void deliver_remote(message m);

  // --- observability ---------------------------------------------------
  struct counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t late = 0;
  };
  /// Snapshot of the wire counters. Send-side events (sent, submit-time
  /// drops, lateness) are counted per source — shard-confined plain
  /// increments, summed here — and only delivery-side events touch an
  /// atomic; totals are worker-count independent either way. Read between
  /// runs (the round barrier orders the per-source counts).
  [[nodiscard]] counters stats() const {
    counters c{0, 0, dropped_inflight_.load(std::memory_order_relaxed), 0};
    for (const auto& s : sources_) {
      c.sent += s->sent;
      c.dropped += s->dropped;
      c.late += s->late;
    }
    for (const dst_counter& d : delivered_by_dst_) c.delivered += d.delivered;
    return c;
  }
  [[nodiscard]] const params& config() const { return params_; }

  /// Bytes of send-side destination-keyed state across all sources — the
  /// scaling benches' check that wire state tracks the neighbour set, not
  /// N² (read between runs; walks per-source maps).
  [[nodiscard]] std::size_t send_state_bytes() const {
    std::size_t b = 0;
    for (const auto& s : sources_)
      b += sizeof(source_state) + s->dst.capacity_bytes();
    return b;
  }

  /// Worst-case fault-free delivery latency for a message of `size` bytes.
  [[nodiscard]] duration worst_case_latency(std::size_t size_bytes) const {
    return params_.delta_max + params_.per_byte * static_cast<std::int64_t>(size_bytes);
  }

  /// Observer invoked on every delivery (tracing). Runs on the destination
  /// node's shard; must be shard-confined for worker-threaded runs.
  void set_delivery_observer(std::function<void(const message&)> obs) {
    observer_ = std::move(obs);
  }

  /// Sentinel for drop_next: the burst applies to any channel.
  static constexpr int any_channel = -1;

 private:
  struct perf_fault {
    double rate = 0.0;
    duration extra = duration::zero();
  };

  /// Immutable globally-read fault state. Mutators copy-edit-publish under
  /// `publish_mu_`; the hot path reads the current snapshot through one
  /// atomic acquire-load and never blocks. Retired snapshots are kept until
  /// network destruction, so a reader can never dangle (writes are bounded:
  /// plan pre-registration plus rare runtime re-registrations).
  struct global_state {
    std::vector<util::timeline<bool>> node_down;  // node-indexed
    // node -> group in force; no_group means unrestricted. Empty vector =
    // no partition.
    util::timeline<std::vector<std::uint32_t>> partition;
    util::timeline<double> omission_rate;
    util::timeline<perf_fault> perf_fault_tl;

    [[nodiscard]] bool node_down_at(node_id n, time_point t) const {
      if (n >= node_down.size()) return false;
      const bool* v = node_down[n].at(t);
      return v != nullptr && *v;
    }
    [[nodiscard]] bool partitioned_at(node_id a, node_id b, time_point t) const;
  };

  static constexpr std::uint32_t no_group = 0xFFFFFFFFu;

  struct drop_burst {
    int channel = 0;  // any_channel = every channel
    int remaining = 0;
  };

  /// Everything this source keeps about one destination: the FIFO floor and
  /// the per-link fault program. One sparse-map slot per destination ever
  /// sent to (or fault-programmed) — the neighbour set, not N.
  struct dst_state {
    time_point last_delivery;        // FIFO floor on this link
    double link_omission = -1.0;     // <0 = unset, fall back to global rate
    std::vector<drop_burst> scripted_drops;
    util::timeline<bool> link_down;  // src -> dst, dated
  };

  /// Send-side state of one node, owned by the shard owning the node: only
  /// events executing there (the node's sends, injector actions anchored on
  /// the node) may touch it. Destination-keyed state is a sparse map keyed
  /// by the destinations this source talks to; slot growth happens on the
  /// owning shard and is therefore worker-safe (see header).
  struct source_state {
    explicit source_state(rng r) : stream(std::move(r)) {}
    rng stream;
    std::uint64_t next_seq = 0;
    std::uint64_t sent = 0;     // frames submitted by this source
    std::uint64_t dropped = 0;  // frames dropped at submit time
    std::uint64_t late = 0;     // frames hit by a performance fault
    util::sparse_node_map<dst_state> dst;
  };

  void new_source();
  void ensure_source(node_id n) {
    // Source-slot creation grows the shared sources_ vector: structural.
    if (n >= sources_.size()) {
      assert_structural("source-slot growth");
      while (sources_.size() <= n) new_source();
    }
  }
  source_state& source(node_id n) {
    ensure_source(n);
    return *sources_[n];
  }

  /// Structural mutation of shared wire containers (handler table, source
  /// slots, fan-out width) is serial-only: from inside event execution of a
  /// worker-threaded backend it would race with concurrent sends on other
  /// shards, so it throws instead. `reserve_nodes` pre-sizes everything.
  void assert_structural(const char* what) const {
    if (rt_->worker_count() > 0 && rt_->in_event_context())
      throw error(std::string("network: ") + what +
                  " from inside event execution with workers > 0; structural "
                  "wire mutation is serial-only — pre-size with reserve_nodes "
                  "before the run (see network.hpp)");
  }

  [[nodiscard]] const global_state& snapshot() const {
    return *global_.load(std::memory_order_acquire);
  }
  /// Copy the current snapshot, apply `edit`, publish the copy, retire the
  /// predecessor. Serialized by `publish_mu_`; never blocks readers.
  template <typename Edit>
  void mutate_global(Edit&& edit);
  void publish_initial();

  duration sample_latency(source_state& s, std::size_t size_bytes,
                          const global_state& g, time_point now, bool& late);
  /// The delivery-time half of the wire: node-down check, counters,
  /// observer, handler. Shared by locally scheduled deliveries and frames
  /// injected by `deliver_remote`.
  void deliver_now(const message& m);
  bool should_drop(source_state& s, dst_state& ds, node_id src, node_id dst,
                   int channel, const global_state& g, time_point now);
  /// The send fast path. `fan_out`/`broadcast` hoist the snapshot load, the
  /// clock read, and the source lookup out of their per-destination loop.
  std::uint64_t submit(source_state& s, const global_state& g, time_point now,
                       node_id src, node_id dst, int channel,
                       wire_payload payload, std::size_t size_bytes);

  runtime* rt_;
  params params_;
  std::uint64_t seed_;
  std::size_t fanout_ = 0;  // width of destination-indexed vectors
  std::vector<std::unique_ptr<source_state>> sources_;
  std::vector<handler> handlers_;  // node-indexed; null = not attached
  /// Delivery counter of one destination, padded so worker threads
  /// delivering on different shards never share a cache line.
  struct alignas(64) dst_counter {
    std::uint64_t delivered = 0;
  };
  std::vector<dst_counter> delivered_by_dst_;  // node-indexed, like handlers_

  std::atomic<const global_state*> global_{nullptr};
  std::mutex publish_mu_;  // serializes mutators, never taken by readers
  std::vector<std::unique_ptr<const global_state>> retired_;

  // In-flight drops (destination crashed or detached before delivery) stay
  // atomic: the edge is rare and not worth a padded per-node counter.
  std::atomic<std::uint64_t> dropped_inflight_{0};
  std::function<void(const message&)> observer_;
  std::function<bool(const message&)> remote_hook_;  // null on sim backends
};

}  // namespace hades::sim
