#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <limits>

namespace hades::sim {

namespace {

// Which shard (of which sharded_engine) the current thread is executing.
// Set around every run of a shard's events; callbacks scheduling follow-up
// work are routed to the shard that is running them.
struct exec_ctx {
  const void* owner = nullptr;
  std::uint32_t shard = 0;
};
thread_local exec_ctx tls_ctx;

}  // namespace

std::vector<std::uint32_t> contiguous_blocks(std::size_t node_count,
                                             std::size_t groups) {
  std::vector<std::uint32_t> map(node_count);
  for (std::size_t n = 0; n < node_count; ++n)
    map[n] = static_cast<std::uint32_t>(n * groups / node_count);
  return map;
}

sharded_engine::sharded_engine(const runtime::options& o)
    : lookahead_(o.lookahead) {
  std::size_t shards = o.shards != 0 ? o.shards : 2;
  if (o.node_count > 0) shards = std::min(shards, o.node_count);
  node_shard_ = !o.node_shard.empty() ? o.node_shard
                                      : contiguous_blocks(o.node_count, shards);
  validate(shards >= 1 && shards <= 64,
           "sharded_engine: shard count must be in [1, 64]");
  validate(!lookahead_.is_infinite() &&
               lookahead_ >= duration::nanoseconds(1),
           "sharded_engine: lookahead must be finite and >= 1ns");
  for (std::uint32_t s : node_shard_)
    validate(s < shards, "sharded_engine: node mapped to unknown shard");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<shard>());
    shards_.back()->outbox.resize(shards);
  }
  const std::size_t workers = std::min(o.workers, shards);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { worker_main(); });
}

sharded_engine::~sharded_engine() {
  {
    std::lock_guard lk(pool_mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::uint32_t sharded_engine::shard_of(node_id n) const {
  if (n < node_shard_.size()) return node_shard_[n];
  return static_cast<std::uint32_t>(n % shards_.size());
}

event_id sharded_engine::tag(std::uint32_t s, event_id inner) {
  if (inner == invalid_event) return inner;
  require(inner.value >> shard_shift == 0,
          "sharded_engine: per-shard event pool exceeds the id tag space");
  return event_id{inner.value | (static_cast<std::uint64_t>(s) << shard_shift)};
}

std::uint32_t sharded_engine::current_shard() const {
  return tls_ctx.owner == this ? tls_ctx.shard : 0;
}

bool sharded_engine::in_callback() const { return tls_ctx.owner == this; }

// --- scheduling --------------------------------------------------------------

time_point sharded_engine::now() const {
  if (in_callback()) return shards_[tls_ctx.shard]->core.now();
  // Between rounds every core sits at the same date; during a round the
  // conservative minimum is the global virtual time.
  time_point m = shards_[0]->core.now();
  for (std::size_t s = 1; s < shards_.size(); ++s)
    m = std::min(m, shards_[s]->core.now());
  return m;
}

event_id sharded_engine::at(time_point t, event_fn fn) {
  const std::uint32_t s = current_shard();
  return tag(s, shards_[s]->core.at(t, std::move(fn)));
}

event_id sharded_engine::at_node(node_id dst, time_point t, event_fn fn) {
  const std::uint32_t target = shard_of(dst);
  if (!in_callback() || target == current_shard())
    return tag(target, shards_[target]->core.at(t, std::move(fn)));
  // Cross-shard: append to the origin's outbox for the target (owner-only;
  // see drain_outboxes for the other side). The lookahead requirement is
  // what makes the conservative horizon sound — an event below the horizon
  // can only create work at or beyond it.
  shard& from = *shards_[current_shard()];
  require(t >= from.core.now() + lookahead_,
          "sharded_engine::at_node: cross-shard event below the lookahead");
  std::vector<cross_event>& box = from.outbox[target];
  if (box.size() == box.capacity()) ++from.grown;
  box.push_back(
      cross_event{t, current_shard(), from.xmit_seq++, std::move(fn)});
  return invalid_event;  // cross-shard events are fire-and-forget
}

void sharded_engine::cancel(event_id id) {
  if (id == invalid_event) return;
  const auto s = static_cast<std::uint32_t>(id.value >> shard_shift);
  if (s >= shards_.size()) return;
  shards_[s]->core.cancel(
      event_id{id.value & ((std::uint64_t{1} << shard_shift) - 1)});
}

// --- conservative rounds -----------------------------------------------------

// Round-boundary injection, on the coordinating thread between rounds. The
// round barrier orders every outbox write before this read: a worker's
// pushes precede its `pool_mu_`-guarded completion, which the coordinator
// waits on, and the next round's ticket is published under the same mutex
// after the drain (serial rounds share one thread). Each target merges the
// per-origin batches destined for it, sorted by the deterministic key; a
// drain fed by a single origin skips the sort — outbox order is already
// origin-seq order, which is the stable order the sort would produce for
// same-instant events, and the target core's heap orders distinct instants
// anyway. Clearing keeps each outbox's capacity for the next round.
void sharded_engine::drain_outboxes() {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shard& sh = *shards_[s];
    drain_scratch_.clear();
    std::size_t sources = 0;
    for (auto& from : shards_) {
      std::vector<cross_event>& box = from->outbox[s];
      if (box.empty()) continue;
      ++sources;
      std::move(box.begin(), box.end(), std::back_inserter(drain_scratch_));
      box.clear();
    }
    if (drain_scratch_.empty()) continue;
    if (sources > 1) {
      // The deterministic merge: injection order (and so the core's FIFO
      // tie-break among same-instant arrivals) never depends on which
      // thread pushed first.
      std::sort(drain_scratch_.begin(), drain_scratch_.end(),
                [](const cross_event& a, const cross_event& b) {
                  if (a.t != b.t) return a.t < b.t;
                  if (a.origin_shard != b.origin_shard)
                    return a.origin_shard < b.origin_shard;
                  return a.origin_seq < b.origin_seq;
                });
    } else {
      ++single_source_drains_;
    }
    cross_events_ += drain_scratch_.size();
    for (auto& ce : drain_scratch_) sh.core.at(ce.t, std::move(ce.fn));
  }
}

time_point sharded_engine::next_time_all() {
  time_point m = time_point::infinity();
  for (auto& sp : shards_) m = std::min(m, sp->core.peek_time());
  return m;
}

std::size_t sharded_engine::run_shard(std::uint32_t s, time_point bound) {
  shard& sh = *shards_[s];
  const exec_ctx prev = tls_ctx;
  tls_ctx = {this, s};
  const std::size_t n = sh.core.run_until(bound);
  tls_ctx = prev;
  sh.ran += n;
  return n;
}

std::size_t sharded_engine::round(time_point bound) {
  ++rounds_;
  if (workers_.empty()) {
    std::size_t n = 0;
    for (std::uint32_t s = 0; s < shards_.size(); ++s)
      n += run_shard(s, bound);
    return n;
  }
  std::unique_lock lk(pool_mu_);
  round_bound_ = bound;
  next_claim_ = 0;
  unfinished_ = shards_.size();
  round_executed_ = 0;
  ++round_ticket_;
  cv_work_.notify_all();
  cv_done_.wait(lk, [this] { return unfinished_ == 0; });
  return round_executed_;
}

void sharded_engine::worker_main() {
  std::uint64_t seen_ticket = 0;
  std::unique_lock lk(pool_mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || round_ticket_ != seen_ticket; });
    if (stop_) return;
    seen_ticket = round_ticket_;
    const time_point bound = round_bound_;
    while (next_claim_ < shards_.size()) {
      const auto s = static_cast<std::uint32_t>(next_claim_++);
      lk.unlock();
      const std::size_t n = run_shard(s, bound);
      lk.lock();
      round_executed_ += n;
      if (--unfinished_ == 0) cv_done_.notify_one();
    }
  }
}

std::size_t sharded_engine::run_rounds(time_point limit,
                                       std::size_t max_events) {
  std::size_t total = 0;
  while (total < max_events) {
    drain_outboxes();
    const time_point m = next_time_all();
    if (m.is_infinite() || m > limit) break;
    // Everything strictly below m + lookahead is safe; run_until is
    // inclusive, so the bound is one tick short of the horizon. max_events
    // is enforced at round granularity (a round is the atom of progress).
    time_point bound = (m + lookahead_) - duration::nanoseconds(1);
    if (limit < bound) bound = limit;
    total += round(bound);
  }
  return total;
}

// --- execution ---------------------------------------------------------------

bool sharded_engine::step() {
  drain_outboxes();
  std::uint32_t best = 0;
  time_point bt = time_point::infinity();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const time_point t = shards_[s]->core.peek_time();
    if (t < bt) {
      bt = t;
      best = s;
    }
  }
  if (bt.is_infinite()) return false;
  shard& sh = *shards_[best];
  const exec_ctx prev = tls_ctx;
  tls_ctx = {this, best};
  const std::uint64_t before = sh.core.executed();
  sh.core.step();
  tls_ctx = prev;
  sh.ran += sh.core.executed() - before;
  return true;
}

std::size_t sharded_engine::run_until(time_point t) {
  const std::size_t n =
      run_rounds(t, std::numeric_limits<std::size_t>::max());
  if (!t.is_infinite())
    for (auto& sp : shards_) sp->core.run_until(t);  // advance idle clocks
  return n;
}

std::size_t sharded_engine::run(std::size_t max_events) {
  return run_rounds(time_point::infinity(), max_events);
}

bool sharded_engine::empty() const {
  // Like the cores themselves, these queries are meaningful from outside
  // event execution (between rounds), where producers are quiescent.
  for (const auto& sp : shards_) {
    if (!sp->core.empty()) return false;
    for (const auto& box : sp->outbox)
      if (!box.empty()) return false;
  }
  return true;
}

std::size_t sharded_engine::pending() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    n += sp->core.pending();
    for (const auto& box : sp->outbox) n += box.size();
  }
  return n;
}

std::uint64_t sharded_engine::executed() const {
  std::uint64_t n = 0;
  for (const auto& sp : shards_) n += sp->core.executed();
  return n;
}

sharded_engine::shard_stats sharded_engine::stats() const {
  shard_stats st;
  st.rounds = rounds_;
  st.cross_events = cross_events_;
  st.single_source_drains = single_source_drains_;
  st.executed_per_shard.reserve(shards_.size());
  for (const auto& sp : shards_) {
    st.executed_per_shard.push_back(sp->ran);
    st.spilled += sp->grown;
  }
  return st;
}

std::unique_ptr<runtime> make_sharded_engine(const runtime::options& o) {
  return std::make_unique<sharded_engine>(o);
}

}  // namespace hades::sim
