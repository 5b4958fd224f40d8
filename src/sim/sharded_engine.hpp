// Sharded multi-engine backend of hades::runtime (DESIGN.md, "Sharded
// backend"): the scale-out counterpart of the single pooled `sim::engine`.
//
// Nodes are partitioned into shards, each shard owning its own pooled event
// core (`sim::engine` slabs + 4-ary heap). Time advances in conservative
// rounds: with `m` the earliest pending event anywhere and `L` the
// configured lookahead (a lower bound on every cross-shard scheduling
// delay — the network's minimum link delay), every event strictly below the
// horizon `m + L` is independent across shards and safe to run, because any
// event it creates on another shard lands at or beyond the horizon. Within
// a round, shards advance either serially on the calling thread
// (`workers == 0`, always safe) or concurrently on a worker pool
// (`workers > 0`, requires shard-confined event handlers).
//
// Cross-shard events (`at_node` targeting a foreign shard) are appended to
// a plain outbox vector, one per (origin, target) pair. Only the thread
// executing the origin shard writes it during a round; the coordinator
// drains it between rounds. The round barrier (the `pool_mu_` hand-off that
// ends every round and starts the next) already orders both sides, so the
// outbox needs no atomics and no capacity bound. Drained events are
// injected into the target cores at the round boundary sorted by the
// deterministic key {time, origin shard, origin sequence} — so the merged
// execution trace is independent of thread interleaving and, for workloads
// whose same-instant events are shard-local, identical to the single-engine
// run (see DESIGN.md for the exact determinism argument). When a single
// origin contributed to a target, the sort is skipped: within one outbox,
// same-instant events are already in sequence order, which is exactly the
// stable order the sort would produce, and distinct-instant events are
// ordered by the target core's heap regardless of injection order.
//
// Contract deviations from the single engine, all confined to cross-shard
// use: `at_node` across shards requires `t >= now() + lookahead`, returns
// `invalid_event` (fire-and-forget), and `cancel` of a foreign shard's id
// is only safe between rounds (i.e. from outside event execution) when
// workers are enabled.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/runtime.hpp"

namespace hades::sim {

class sharded_engine final : public runtime {
 public:
  /// Reads the sharded fields of `o`: `shards` (0 = 2, clamped to a
  /// non-zero `node_count`), `workers`, `lookahead` and `node_shard`
  /// (empty = `contiguous_blocks` over `node_count`).
  explicit sharded_engine(const runtime::options& o);
  ~sharded_engine() override;

  // --- runtime interface ---------------------------------------------------
  [[nodiscard]] time_point now() const override;
  event_id at(time_point t, event_fn fn) override;
  event_id at_node(node_id dst, time_point t, event_fn fn) override;
  void cancel(event_id id) override;

  bool step() override;
  std::size_t run_until(time_point t) override;
  std::size_t run(std::size_t max_events = 100'000'000) override;

  [[nodiscard]] bool empty() const override;
  [[nodiscard]] std::size_t pending() const override;
  [[nodiscard]] std::uint64_t executed() const override;

  // --- shard observability ---------------------------------------------------
  [[nodiscard]] std::uint32_t shard_of(node_id n) const override;
  [[nodiscard]] std::size_t shard_count() const override {
    return shards_.size();
  }
  /// The shard whose event core the calling thread is executing (0 when
  /// called from outside event execution) — what shard-confined components
  /// index their per-shard partitions with.
  [[nodiscard]] std::uint32_t executing_shard() const override {
    return current_shard();
  }
  [[nodiscard]] std::size_t worker_count() const override {
    return workers_.size();
  }
  [[nodiscard]] bool in_event_context() const override { return in_callback(); }
  [[nodiscard]] duration lookahead() const { return lookahead_; }

  struct shard_stats {
    std::uint64_t rounds = 0;        // conservative synchronization windows
    std::uint64_t cross_events = 0;  // events routed through an outbox
    /// Cross-event pushes that had to grow their outbox — the only time the
    /// hand-off allocates. Drains keep each outbox's capacity, so this
    /// stops rising once every (origin, target) pair has seen its peak.
    std::uint64_t spilled = 0;
    /// Target drains where exactly one origin contributed, letting the
    /// deterministic merge skip its sort (see drain_outboxes).
    std::uint64_t single_source_drains = 0;
    /// Events executed per shard — the max/mean ratio is the load balance,
    /// and sum/max bounds the achievable parallel speedup (critical path).
    std::vector<std::uint64_t> executed_per_shard;
  };
  [[nodiscard]] shard_stats stats() const;

 private:
  // Events crossing a shard boundary carry a deterministic merge key:
  // outboxes are drained sorted by {t, origin shard, origin seq}, so the
  // injection order — and hence the target core's FIFO tie-break — never
  // depends on thread interleaving.
  struct cross_event {
    time_point t;
    std::uint32_t origin_shard;
    std::uint64_t origin_seq;
    event_fn fn;
  };

  struct shard {
    engine core;
    std::uint64_t xmit_seq = 0;  // outgoing cross-event counter (owner-only)
    std::uint64_t ran = 0;       // events executed (owner-only during rounds)
    std::uint64_t grown = 0;     // outbox growths (owner-only during rounds)
    // Outgoing cross-shard events, indexed by target shard, in origin-seq
    // order. Written by this shard's executing thread during a round,
    // drained by the coordinator between rounds (see drain_outboxes).
    std::vector<std::vector<cross_event>> outbox;
  };

  // Shard ids are the inner engine's {slot+1, gen} id tagged with the shard
  // index in the top bits. 6 tag bits cap the backend at 64 shards and each
  // shard at 2^26 pooled slots (~67M concurrently pending events).
  static constexpr int shard_shift = 58;
  static event_id tag(std::uint32_t s, event_id inner);
  [[nodiscard]] std::uint32_t current_shard() const;
  [[nodiscard]] bool in_callback() const;

  void drain_outboxes();
  [[nodiscard]] time_point next_time_all();
  std::size_t run_shard(std::uint32_t s, time_point bound);
  std::size_t round(time_point bound);  // serial or parallel per `workers_`
  std::size_t run_rounds(time_point limit, std::size_t max_events);
  void worker_main();

  duration lookahead_;
  std::vector<std::uint32_t> node_shard_;
  std::vector<std::unique_ptr<shard>> shards_;
  std::uint64_t rounds_ = 0;
  std::uint64_t cross_events_ = 0;
  std::uint64_t single_source_drains_ = 0;
  std::vector<cross_event> drain_scratch_;  // coordinator-only, reused

  // Worker pool (empty in serial mode). Rounds are dispatched by ticket:
  // workers claim shard indices until the round is exhausted, the last
  // completion wakes the coordinator.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t round_ticket_ = 0;
  time_point round_bound_;
  std::size_t next_claim_ = 0;
  std::size_t unfinished_ = 0;
  std::size_t round_executed_ = 0;
  bool stop_ = false;
};

}  // namespace hades::sim
