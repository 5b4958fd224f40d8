#include "sim/network.hpp"

namespace hades::sim {

network::~network() = default;

void network::new_source() {
  const auto n = static_cast<std::uint64_t>(sources_.size());
  // Seeds depend only on the source index, so growing the node set never
  // disturbs an existing source's stream (rng stability across
  // reserve_nodes growth).
  sources_.push_back(std::make_unique<source_state>(
      rng(seed_ ^ (0x9E3779B97F4A7C15ull * (n + 1)))));
}

void network::publish_initial() {
  auto first = std::make_unique<global_state>();
  global_.store(first.get(), std::memory_order_release);
  retired_.push_back(std::move(first));
}

template <typename Edit>
void network::mutate_global(Edit&& edit) {
  std::lock_guard lk(publish_mu_);
  auto next = std::make_unique<global_state>(
      *global_.load(std::memory_order_relaxed));
  edit(*next);
  const global_state* ptr = next.get();
  // Predecessors stay alive while any reader could hold one: a reader only
  // keeps the pointer within a single event callback, so outside event
  // execution (the injector pre-registering a plan from the driver thread,
  // tests programming faults between runs — the overwhelmingly common
  // case) no reader exists and the retired list collapses to nothing,
  // keeping an E-edge plan's pre-registration at O(E) live snapshots...
  // well, exactly one. Mutations from inside events (crash_node actions)
  // retain their predecessors until the next outside-execution mutation or
  // network destruction — bounded by the plan's action count.
  if (!rt_->in_event_context()) retired_.clear();
  retired_.push_back(std::move(next));
  global_.store(ptr, std::memory_order_release);
}

void network::set_omission_rate_at(time_point t, double p) {
  mutate_global([&](global_state& g) { g.omission_rate.set(t, p); });
}

void network::set_performance_fault_at(time_point t, double p, duration extra) {
  mutate_global([&](global_state& g) { g.perf_fault_tl.set(t, {p, extra}); });
}

void network::set_node_down_at(time_point t, node_id n, bool down) {
  mutate_global([&](global_state& g) {
    if (g.node_down.size() <= n)
      g.node_down.resize(static_cast<std::size_t>(n) + 1);
    g.node_down[n].set(t, down);
  });
}

void network::heal_partition_at(time_point t) {
  mutate_global([&](global_state& g) { g.partition.set(t, {}); });
}

void network::partition_at(time_point t,
                           const std::vector<std::vector<node_id>>& groups) {
  std::vector<std::uint32_t> assign;
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (node_id n : groups[g]) {
      if (n >= assign.size()) assign.resize(n + 1, no_group);
      assign[n] = static_cast<std::uint32_t>(g);
    }
  mutate_global(
      [&](global_state& g) { g.partition.set(t, std::move(assign)); });
}

bool network::global_state::partitioned_at(node_id a, node_id b,
                                           time_point t) const {
  const std::vector<std::uint32_t>* groups = partition.at(t);
  if (groups == nullptr || groups->empty()) return false;
  const std::uint32_t ga = a < groups->size() ? (*groups)[a] : no_group;
  const std::uint32_t gb = b < groups->size() ? (*groups)[b] : no_group;
  return ga != no_group && gb != no_group && ga != gb;
}

void network::set_link_down(node_id src, node_id dst, bool down) {
  source(src).dst[dst].link_down.set(rt_->now(), down);
}

void network::drop_next(node_id src, node_id dst, int count, int channel) {
  auto& bursts = source(src).dst[dst].scripted_drops;
  for (auto& b : bursts)
    if (b.channel == channel) {
      b.remaining += count;
      return;
    }
  bursts.push_back({channel, count});
}

bool network::should_drop(source_state& s, dst_state& ds, node_id src,
                          node_id dst, int channel, const global_state& g,
                          time_point t) {
  // Deterministic (draw-free) drop causes first, so a dropped frame never
  // perturbs the per-source rng stream.
  if (g.node_down_at(src, t) || g.node_down_at(dst, t)) return true;
  if (g.partitioned_at(src, dst, t)) return true;
  if (!ds.link_down.empty()) {
    const bool* down = ds.link_down.at(t);
    if (down != nullptr && *down) return true;
  }
  if (auto& bursts = ds.scripted_drops; !bursts.empty()) {
    // Channel-scoped bursts are consumed before an any_channel burst on the
    // same link, regardless of registration order.
    for (const int key : {channel, any_channel})
      for (auto& b : bursts)
        if (b.channel == key && b.remaining > 0) {
          --b.remaining;
          return true;
        }
  }
  double p = ds.link_omission;
  if (p < 0.0) {
    const double* global = g.omission_rate.at(t);
    p = global != nullptr ? *global : 0.0;
  }
  return p > 0.0 && s.stream.chance(p);
}

duration network::sample_latency(source_state& s, std::size_t size_bytes,
                                 const global_state& g, time_point now,
                                 bool& late) {
  const std::int64_t jitter_span =
      (params_.delta_max - params_.delta_min).count();
  duration lat =
      params_.delta_min +
      duration::nanoseconds(
          jitter_span > 0 ? s.stream.uniform_int(0, jitter_span) : 0) +
      params_.per_byte * static_cast<std::int64_t>(size_bytes);
  perf_fault pf;
  if (const perf_fault* p = g.perf_fault_tl.at(now); p != nullptr) pf = *p;
  late = pf.rate > 0.0 && s.stream.chance(pf.rate);
  if (late) lat += pf.extra;
  return lat;
}

std::uint64_t network::submit(source_state& s, const global_state& g,
                              time_point now, node_id src, node_id dst,
                              int channel, wire_payload payload,
                              std::size_t size_bytes) {
  message m;
  m.src = src;
  m.dst = dst;
  m.channel = channel;
  m.payload = std::move(payload);
  m.size_bytes = size_bytes;
  // Per-source ids keep the counter shard-confined while staying unique
  // system-wide (40 bits of per-source sequence).
  m.id = ((static_cast<std::uint64_t>(src) + 1) << 40) | ++s.next_seq;
  m.sent_at = now;
  ++s.sent;

  // Frames for destinations owned by another OS process leave through the
  // remote transport; the socket-layer shim owns their fault decisions (it
  // consumes the same scenario plan), so none of the local drop/latency
  // machinery below runs for them.
  if (remote_hook_ && remote_hook_(m)) return m.id;

  // One probe serves the drop checks and the FIFO floor. First contact with
  // a destination creates its slot — on this source's shard, so legal under
  // worker threads; afterwards the path allocates nothing.
  dst_state& ds = s.dst[dst];
  if (should_drop(s, ds, src, dst, channel, g, now)) {
    ++s.dropped;
    return m.id;
  }

  bool late = false;
  const duration lat = sample_latency(s, size_bytes, g, now, late);
  if (late) ++s.late;

  time_point deliver_at = now + lat;
  // ATM virtual circuits are FIFO: never deliver before an earlier frame on
  // the same link.
  if (deliver_at < ds.last_delivery) deliver_at = ds.last_delivery;
  ds.last_delivery = deliver_at;

  const std::uint64_t id = m.id;
  rt_->at_node(dst, deliver_at, [this, m = std::move(m)]() { deliver_now(m); });
  return id;
}

void network::deliver_now(const message& m) {
  const bool dst_down = snapshot().node_down_at(m.dst, rt_->now());
  if (m.dst >= handlers_.size() || !handlers_[m.dst] || dst_down) {
    dropped_inflight_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++delivered_by_dst_[m.dst].delivered;  // destination-shard-confined
  if (observer_) observer_(m);
  handlers_[m.dst](m);
}

void network::deliver_remote(message m) {
  // The transport hands frames over as they surface from per-link sequence
  // recovery, between events; schedule on the destination's shard at the
  // current date so the handler runs in event context with the same
  // delivery-date node-down check local frames get.
  rt_->at_node(m.dst, rt_->now(), [this, m = std::move(m)]() { deliver_now(m); });
}

std::uint64_t network::unicast(node_id src, node_id dst, int channel,
                               wire_payload payload, std::size_t size_bytes) {
  source_state& s = source(src);
  // One lock-free acquire of the published fault snapshot and one clock
  // read serve every globally-read check of this send.
  return submit(s, snapshot(), rt_->now(), src, dst, channel,
                std::move(payload), size_bytes);
}

std::size_t network::fan_out(node_id src, int channel,
                             const wire_payload& payload,
                             std::size_t size_bytes) {
  source_state& s = source(src);
  // Hoisted once for the whole fan-out: the fault snapshot, the clock read,
  // and the source lookup (attach() keeps fan-out width >= handler count).
  const global_state& g = snapshot();
  const time_point now = rt_->now();
  std::size_t n = 0;
  for (node_id dst = 0; dst < handlers_.size(); ++dst) {
    if (dst == src || !handlers_[dst]) continue;
    submit(s, g, now, src, dst, channel, payload, size_bytes);  // refcount
    ++n;
  }
  return n;
}

std::vector<std::uint64_t> network::broadcast(node_id src, int channel,
                                              const wire_payload& payload,
                                              std::size_t size_bytes) {
  source_state& s = source(src);
  const global_state& g = snapshot();
  const time_point now = rt_->now();
  std::vector<std::uint64_t> ids;
  for (node_id dst = 0; dst < handlers_.size(); ++dst) {
    if (dst == src || !handlers_[dst]) continue;
    ids.push_back(submit(s, g, now, src, dst, channel, payload, size_bytes));
  }
  return ids;
}

}  // namespace hades::sim
