#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "alloc_count.hpp"
#include "rt/socket_transport.hpp"
#include "scenario/checkers.hpp"
#include "scenario/deployment.hpp"
#include "scenario/observation_io.hpp"
#include "scenario/scenarios.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/wire_payload.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace hades;
using namespace hades::literals;
namespace sc = hades::scenario;
using metric_map = std::map<std::string, double>;

// --- workload sizes -----------------------------------------------------

constexpr std::size_t kFloodNodes = 16;
constexpr duration kFloodHorizon = 2000_ms;
constexpr std::size_t kFloodShards = 4;
constexpr std::size_t kFloodWorkers = 4;

constexpr std::size_t kEdgeNodes = 8;
constexpr std::size_t kEdgeGateways = 6;
constexpr node_id kEdgeCrashNode = 7;
constexpr duration kEdgeHorizon = 3000_ms;

constexpr std::size_t kRtNodes = 8;
constexpr duration kRtHorizon = 1000_ms;
/// The realtime groups share a virtual epoch this far ahead of the start of
/// construction; set-up must finish inside it. The wait is not timed.
constexpr std::int64_t kRtLeadNs = 300'000'000;
/// The `hades_node` harness timing (δ 100 us-5 ms) with Δ widened to 50 ms,
/// run at the harness's retry time scale of 2 (two wall seconds per virtual
/// second). Every check is a hard gate here, so Δ must hold on a loaded
/// host: at time scale 1 on a shared 4-vCPU VM, a loopback frame or an
/// engine timer is now and then held 5-13 ms, which breaks the harness's
/// 5 ms Δ, and rarely a delivery went missing even with Δ at 50 ms. How far
/// inside Δ the run stays is what the rt.* metrics measure.
constexpr double kRtTimeScale = 2.0;
constexpr duration kRtDeltaMin = 100_us;
constexpr duration kRtDeltaMax = 50_ms;
/// The detector stays perfect while timeout > heartbeat period + delta_max.
constexpr duration kRtFdTimeout = 100_ms;
constexpr duration kRtBoundMargin = 2_ms;
constexpr duration kRtSwitchLatency = 25_ms;

/// The traced run cuts `run()` into `run_until` slices of this much virtual
/// time and snapshots the layer counters at every boundary.
constexpr duration kSlice = 1_ms;
/// rt.late_ratio counts deliveries later than the Δ bound plus this.
constexpr duration kOnTimeAllowance = 2_ms;
constexpr std::size_t kPayloadBytes = 64;  // the broadcast workload's size

double seconds_since(std::int64_t t0) {
  return static_cast<double>(wall_ns() - t0) * 1e-9;
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Reset the kernel's resident-set high-water mark to the current resident
/// set (Linux `clear_refs` 5), so the next peak_rss_mb() covers one
/// repetition. Without it the peak covers the whole process.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

// --- host speed ----------------------------------------------------------

/// The shared host's speed drifts by tens of percent over minutes, which
/// would swamp any change to the program. A fixed single-thread probe that
/// does not touch the library is timed before the first untraced repetition
/// and after every one: four rounds of sorting a copy of 64 Ki random keys
/// and chasing 256 Ki links of a random cycle, in 2 MiB of buffers
/// allocated once. A repetition's CPU-bound timings (set-up, the CPU time of
/// a simulated run, verification) are scaled by kReferenceS / probe time,
/// taking the geometric mean of the probes on either side of it. They are
/// then in seconds of the reference host: a 4-vCPU Xeon VM at 2.1 GHz in a
/// quiet period, where the probe takes kReferenceS.
class host_speed {
 public:
  static constexpr double kReferenceS = 0.036;

  host_speed() : keys_(1u << 16), work_(keys_.size()), next_(1u << 18) {
    std::mt19937_64 rng(0x5eed);
    for (auto& k : keys_) k = rng();
    // One random cycle through every slot (Sattolo's shuffle).
    std::iota(next_.begin(), next_.end(), 0u);
    for (std::size_t i = next_.size() - 1; i > 0; --i)
      std::swap(next_[i], next_[rng() % i]);
    before_ = probe();
  }

  /// The factor of the repetition that has just ended: the geometric mean
  /// of the probes taken just before and just after it.
  double bracket() {
    const double after = probe();
    const double f = std::sqrt(before_ * after);
    before_ = after;
    return f;
  }

 private:
  /// Seconds of the reference host per wall second, right now.
  double probe() {
    const std::int64_t t0 = wall_ns();
    std::uint64_t acc = 0;
    for (int round = 0; round < 4; ++round) {
      std::copy(keys_.begin(), keys_.end(), work_.begin());
      std::sort(work_.begin(), work_.end());
      std::uint32_t at = static_cast<std::uint32_t>(round);
      for (std::size_t i = 0; i < next_.size(); ++i) at = next_[at];
      acc += at + work_[work_.size() / 2];
    }
    sink_ = sink_ + acc;
    return kReferenceS / seconds_since(t0);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> work_;
  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;  // keeps the probe from being elided
  double before_ = 0.0;
};

// --- generators ----------------------------------------------------------

sc::scenario_spec flood_spec() {
  sc::scenario_spec s = sc::find_scenario("clean");
  s.name = "flood_sharded";
  s.nodes = kFloodNodes;
  s.horizon = kFloodHorizon;
  return s;
}

/// Node 7 crashes at mid-run plus a seed-chosen whole number of
/// milliseconds; the +137 us offset keeps it off every service tick.
time_point edge_crash_at(std::uint64_t seed) {
  return time_point::at(kEdgeHorizon / 2 +
                        duration::milliseconds(
                            static_cast<std::int64_t>(seed % 64)) +
                        137_us);
}

sc::scenario_spec edge_spec(std::uint64_t seed, bool gateways) {
  sc::scenario_spec s = sc::find_scenario("edge_overload");
  s.name = gateways ? "edge_degrade" : "edge_degrade_companion";
  s.nodes = kEdgeNodes;
  s.horizon = kEdgeHorizon;
  s.traffic.gateway_nodes = gateways ? kEdgeGateways : 0;
  s.p.crash(edge_crash_at(seed), kEdgeCrashNode);
  s.modes.final_mode = svc::op_mode::degraded;
  return s;
}

sc::scenario_spec rt_spec() {
  sc::scenario_spec s = sc::find_scenario("clean");
  s.name = "loopback_rt";
  s.nodes = kRtNodes;
  s.horizon = kRtHorizon;
  s.fd.timeout = kRtFdTimeout;
  return s;
}

sc::deployment_options sim_options(std::uint64_t seed, const std::string& backend,
                                   std::size_t shards, std::size_t workers) {
  sc::deployment_options o;
  o.seed = seed;
  o.backend.backend = backend;
  o.backend.shards = shards;
  o.backend.workers = workers;
  return o;
}

sc::deployment_options rt_options(std::uint64_t seed, std::uint32_t group,
                                  std::int64_t epoch_ns) {
  sc::deployment_options o;
  o.seed = seed;
  o.net.delta_min = kRtDeltaMin;
  o.net.delta_max = kRtDeltaMax;
  o.net.per_byte = duration::zero();
  o.bound_margin = kRtBoundMargin;
  o.switch_latency = kRtSwitchLatency;
  o.backend.backend = "realtime";
  o.backend.process_index = group;
  o.backend.process_count = 2;
  o.backend.epoch_ns = epoch_ns;
  o.backend.time_scale = kRtTimeScale;
  return o;
}

// --- instrumentation -----------------------------------------------------

/// Send-to-delivery latency of every Δ-ordered delivery, per delivering
/// node (each vector is written only from its node's thread or shard).
struct delivery_probe {
  std::vector<std::vector<std::int64_t>> lat_ns;
  duration bound = duration::zero();  // the service's delivery_bound(64)

  void attach(sc::deployment& d, const std::vector<bool>& nodes) {
    lat_ns.assign(d.spec().nodes, {});
    bound = d.bcast().delivery_bound(kPayloadBytes);
    core::system& sys = d.sys();
    for (node_id n = 0; n < d.spec().nodes; ++n) {
      if (!nodes[n]) continue;
      d.bcast().on_deliver(
          n, [this, &sys, n](const svc::reliable_broadcast::bcast_msg& m) {
            const alloc_pause pause;  // the probe's growth is not the program's
            lat_ns[n].push_back((sys.now() - m.sent_at).count());
          });
    }
  }

  [[nodiscard]] std::vector<double> all_us() const {
    std::vector<double> v;
    for (const auto& per : lat_ns)
      for (std::int64_t x : per) v.push_back(static_cast<double>(x) * 1e-3);
    return v;
  }
  [[nodiscard]] std::vector<double> lateness_us() const {
    std::vector<double> v;
    for (const auto& per : lat_ns)
      for (std::int64_t x : per)
        v.push_back(static_cast<double>(lateness_ns(x, 0, bound.count())) * 1e-3);
    return v;
  }
  [[nodiscard]] std::uint64_t on_time() const {
    const std::int64_t limit = (bound + kOnTimeAllowance).count();
    std::uint64_t n = 0;
    for (const auto& per : lat_ns)
      n += static_cast<std::uint64_t>(
          std::count_if(per.begin(), per.end(),
                        [limit](std::int64_t x) { return x <= limit; }));
    return n;
  }
};

/// FNV-1a over everything a run observed, in deterministic order: the
/// sharded and single-engine backends must agree on it bit for bit.
class digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void mix(time_point t) { mix(static_cast<std::uint64_t>(t.nanoseconds())); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t observation_digest(sc::deployment& d, const sc::observation& obs,
                                 const delivery_probe& probe) {
  digest dg;
  for (node_id n = 0; n < obs.nodes; ++n) {
    dg.mix(obs.delivery_logs[n].size());
    for (const auto& [origin, seq] : obs.delivery_logs[n]) {
      dg.mix(origin);
      dg.mix(seq);
    }
    dg.mix(obs.sent_at[n].size());
    for (time_point t : obs.sent_at[n]) dg.mix(t);
    for (std::int64_t x : probe.lat_ns[n]) dg.mix(static_cast<std::uint64_t>(x));
  }
  for (const auto& s : obs.suspicions) {
    dg.mix(s.observer);
    dg.mix(s.subject);
    dg.mix(s.at);
  }
  for (const auto& r : obs.recoveries) {
    dg.mix(r.observer);
    dg.mix(r.subject);
    dg.mix(r.at);
  }
  for (const auto& sw : obs.mode_switches) {
    dg.mix(static_cast<std::uint64_t>(sw.to));
    dg.mix(sw.at);
  }
  dg.mix(static_cast<std::uint64_t>(obs.final_mode));
  dg.mix(obs.order_faults);
  dg.mix(d.bcast().delivered());
  dg.mix(d.bcast().relays());
  dg.mix(d.fd().heartbeats_sent());
  const auto ns = d.sys().network().stats();
  dg.mix(ns.sent);
  dg.mix(ns.delivered);
  dg.mix(ns.dropped);
  dg.mix(ns.late);
  for (std::uint64_t g : obs.gateway_digests) dg.mix(g);
  return dg.value();
}

/// The four (five, with clocks) property checkers, each timed on its own
/// by calling the public check_* function.
std::vector<sc::check_result> timed_checks(const sc::scenario_spec& spec,
                                           const sc::observation& obs,
                                           duration switch_latency, tracer& tr,
                                           metric_map& m) {
  std::vector<sc::check_result> all;
  auto run = [&](const char* name, const char* metric, auto&& fn) {
    const std::int64_t t0 = wall_ns();
    tracer::scope s(tr, name);
    for (auto& c : fn()) all.push_back(std::move(c));
    m[metric] = seconds_since(t0);
  };
  run("check_detector", "scenario.check_detector_s",
      [&] { return sc::check_detector(spec.p, obs); });
  run("check_broadcast", "scenario.check_broadcast_s", [&] {
    return sc::check_broadcast(spec.p, obs, spec.expect_order_faults);
  });
  run("check_modes", "scenario.check_modes_s", [&] {
    return sc::check_modes(spec.p, obs, spec.modes.final_mode, switch_latency);
  });
  run("check_clocks", "scenario.check_clocks_s",
      [&] { return sc::check_clocks(obs); });
  run("check_miss_budget", "scenario.check_miss_budget_s",
      [&] { return sc::check_miss_budget(obs); });
  return all;
}

struct rep_result {
  metric_map m;
  std::vector<std::string> failures;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double run_s = 0.0;
  std::vector<std::vector<double>> snapshots;
};

/// Record the checker verdicts: every failed verdict fails the repetition.
void grade_into(const std::vector<sc::check_result>& checks, rep_result& r) {
  std::size_t passed = 0;
  for (const auto& c : checks) {
    if (c.passed)
      ++passed;
    else
      r.failures.push_back("checker " + c.name + " failed: " + c.detail);
  }
  r.m["scenario.check_pass_ratio"] = ratio(static_cast<double>(passed),
                                           static_cast<double>(checks.size()));
  if (checks.empty()) r.failures.push_back("no checker verdict was graded");
}

/// Deliveries made over deliveries expected, counting only origins and
/// receivers that stayed up for the whole run.
double delivery_ratio(const sc::scenario_spec& spec, const sc::observation& obs) {
  std::vector<bool> up(spec.nodes);
  std::size_t receivers = 0;
  for (node_id n = 0; n < spec.nodes; ++n) {
    up[n] = spec.p.correct_throughout(n);
    receivers += up[n] ? 1 : 0;
  }
  double expected = 0.0;
  double made = 0.0;
  for (node_id n = 0; n < spec.nodes; ++n) {
    if (!up[n]) continue;
    expected += static_cast<double>(obs.sent_at[n].size() * receivers);
    for (const auto& [origin, seq] : obs.delivery_logs[n]) {
      (void)seq;
      made += up[origin] ? 1.0 : 0.0;
    }
  }
  return ratio(made, expected);
}

const std::vector<std::string> kSnapshotColumns = {
    "virtual_ms",    "events",         "heap_allocs",      "net_sent",
    "net_delivered", "sharded_rounds", "sharded_cross",    "traffic_offered",
    "eus_completed"};

std::vector<double> snapshot(sc::deployment& d) {
  core::system& sys = d.sys();
  const auto ns = sys.network().stats();
  double rounds = 0, cross = 0;
  if (auto* se = dynamic_cast<sim::sharded_engine*>(&sys.engine())) {
    const auto st = se->stats();
    rounds = static_cast<double>(st.rounds);
    cross = static_cast<double>(st.cross_events);
  }
  double offered = 0, eus = 0;
  for (const auto& gw : d.gateways())
    offered += static_cast<double>(gw->snapshot().offered);
  for (node_id n = 0; n < sys.node_count(); ++n)
    eus += static_cast<double>(sys.disp(n).stats().eus_completed);
  return {static_cast<double>(sys.now().nanoseconds()) * 1e-6,
          static_cast<double>(sys.engine().executed()),
          static_cast<double>(g_allocs.load(std::memory_order_relaxed)),
          static_cast<double>(ns.sent),
          static_cast<double>(ns.delivered),
          rounds,
          cross,
          offered,
          eus};
}

/// Adds the service and core counters of one deployment into `m` (the
/// loopback workload sums its two node groups). Returns the nodes' summed
/// busy time in nanoseconds.
double add_service_core_counts(sc::deployment& d, metric_map& m) {
  core::system& sys = d.sys();
  auto& b = d.bcast();
  m["services.bcast.delivered"] += static_cast<double>(b.delivered());
  m["services.bcast.relays"] += static_cast<double>(b.relays());
  m["services.bcast.order_faults"] += static_cast<double>(b.order_faults());
  m["services.bcast.state_bytes"] += static_cast<double>(b.state_bytes());
  double busy_ns = 0;
  for (node_id n = 0; n < sys.node_count(); ++n) {
    const auto& ds = sys.disp(n).stats();
    const auto& cp = sys.cpu(n).stats();
    m["core.eus_completed"] += static_cast<double>(ds.eus_completed);
    m["core.scheduler_runs"] += static_cast<double>(ds.scheduler_runs);
    m["core.notifications"] += static_cast<double>(ds.notifications);
    m["core.context_switches"] += static_cast<double>(cp.context_switches);
    m["core.preemptions"] += static_cast<double>(cp.preemptions);
    busy_ns += static_cast<double>(cp.busy.count());
  }
  return busy_ns;
}

void add_network_counts(sc::deployment& d, metric_map& m) {
  const auto ns = d.sys().network().stats();
  m["sim.network.sent"] += static_cast<double>(ns.sent);
  m["sim.network.delivered"] += static_cast<double>(ns.delivered);
  m["sim.network.dropped"] += static_cast<double>(ns.dropped);
  m["sim.network.late"] += static_cast<double>(ns.late);
  m["sim.network.sends_per_delivery"] =
      ratio(m["sim.network.sent"], m["sim.network.delivered"]);
}

/// Per-layer counters of a finished simulated repetition.
void sim_layers(sc::deployment& d, const sc::observation& obs, rep_result& r) {
  metric_map& m = r.m;
  core::system& sys = d.sys();
  add_network_counts(d, m);
  if (auto* se = dynamic_cast<sim::sharded_engine*>(&sys.engine())) {
    const auto st = se->stats();
    double sum = 0, max = 0;
    for (std::uint64_t e : st.executed_per_shard) {
      sum += static_cast<double>(e);
      max = std::max(max, static_cast<double>(e));
    }
    const double mean = ratio(sum, static_cast<double>(st.executed_per_shard.size()));
    m["sim.sharded.rounds"] = static_cast<double>(st.rounds);
    m["sim.sharded.events_per_round"] = ratio(sum, static_cast<double>(st.rounds));
    m["sim.sharded.cross_events"] = static_cast<double>(st.cross_events);
    m["sim.sharded.spilled"] = static_cast<double>(st.spilled);
    m["sim.sharded.critical_path"] = ratio(sum, max);
    m["sim.sharded.balance"] = ratio(max, mean);
  }
  m["services.fd.suspicions"] = static_cast<double>(obs.suspicions.size());
  m["services.fd.recoveries"] = static_cast<double>(obs.recoveries.size());
  const double busy_ns = add_service_core_counts(d, m);
  m["core.busy_ratio"] =
      ratio(busy_ns, static_cast<double>(sys.node_count()) *
                         static_cast<double>(obs.horizon.nanoseconds()));
}

/// Traffic-edge and mode-switch outcomes of an edge repetition.
void edge_outcomes(const sc::scenario_spec& spec, const sc::observation& obs,
                   time_point crash_at, rep_result& r) {
  metric_map& m = r.m;
  edge_outcome e;
  e.offered = obs.traffic_offered;
  e.admitted = obs.traffic_admitted;
  e.rejected = obs.traffic_rejected;
  e.shed = obs.traffic_shed;
  e.completed = obs.traffic_completed;
  e.missed = obs.traffic_missed;
  m["goodput_ratio"] = goodput_ratio(e);
  m["traffic.offered"] = static_cast<double>(e.offered);
  m["traffic.admitted"] = static_cast<double>(e.admitted);
  m["traffic.rejected"] = static_cast<double>(e.rejected);
  m["traffic.shed"] = static_cast<double>(e.shed);
  m["traffic.completed"] = static_cast<double>(e.completed);
  m["traffic.missed"] = static_cast<double>(e.missed);
  m["traffic.renegotiations"] = static_cast<double>(obs.traffic_renegotiations);
  m["traffic.revalidations"] = static_cast<double>(obs.traffic_revalidations);
  m["traffic.revalidation_failures"] =
      static_cast<double>(obs.traffic_revalidation_failures);
  m["traffic.miss_ratio"] =
      ratio(static_cast<double>(e.missed), static_cast<double>(e.admitted));
  m["traffic.latency_p50_ms"] = static_cast<double>(obs.latency_p50) * 1e-6;
  m["traffic.latency_p99_ms"] = static_cast<double>(obs.latency_p99) * 1e-6;
  if (obs.traffic_revalidation_failures != 0)
    r.failures.push_back("traffic: " +
                         std::to_string(obs.traffic_revalidation_failures) +
                         " revalidation failures");
  if (e.offered == 0) r.failures.push_back("traffic: no request was offered");

  // Crash-to-DEGRADED and crash-to-suspicion, in virtual time.
  const node_id crashed = kEdgeCrashNode;
  std::optional<time_point> switched;
  for (const auto& sw : obs.mode_switches)
    if (sw.to == svc::op_mode::degraded && sw.at >= crash_at) {
      switched = sw.at;
      break;
    }
  if (switched)
    m["services.modes.switch_latency_ms"] =
        static_cast<double>((*switched - crash_at).count()) * 1e-6;
  else
    r.failures.push_back("modes: no switch to DEGRADED after the crash");
  std::vector<double> detect_ms;
  std::vector<bool> seen(spec.nodes, false);
  for (const auto& s : obs.suspicions)
    if (s.subject == crashed && s.at >= crash_at && !seen[s.observer]) {
      seen[s.observer] = true;
      detect_ms.push_back(static_cast<double>((s.at - crash_at).count()) * 1e-6);
    }
  m["services.fd.detect_latency_ms"] = median(detect_ms).value;
}

/// One repetition on a simulated backend. Untraced: run() in one call and
/// the public grade(). Traced: 1 ms run_until slices with counter
/// snapshots, heap-allocation counting, and every checker timed apart.
rep_result sim_rep(const sc::scenario_spec& spec, const sc::deployment_options& opt,
                   bool traced, tracer& tr, const char* label) {
  rep_result r;
  tracer::scope rep_span(tr, label);
  metric_map& m = r.m;

  delivery_probe probe;  // outlives the deployment holding its handlers
  std::int64_t t0 = wall_ns();
  std::optional<sc::deployment> d;
  {
    tracer::scope s(tr, "construct");
    d.emplace(spec, opt);
  }
  double setup_s = seconds_since(t0);
  probe.attach(*d, std::vector<bool>(spec.nodes, true));
  t0 = wall_ns();
  {
    tracer::scope s(tr, "start");
    d->start();
  }
  setup_s += seconds_since(t0);
  m["setup_s"] = setup_s;

  core::system& sys = d->sys();
  const time_point horizon = time_point::at(spec.horizon);
  std::vector<double> slice_us;
  const auto pool0 = sim::wire_payload::stats();
  if (traced) {
    r.snapshots.push_back(snapshot(*d));
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const double cpu0 = cpu_seconds();
  t0 = wall_ns();
  if (!traced) {
    d->run();
  } else {
    tracer::scope s(tr, "run");
    slice_us.reserve(static_cast<std::size_t>(spec.horizon.count() / kSlice.count()) + 1);
    r.snapshots.reserve(slice_us.capacity() + 1);
    for (time_point t = sys.now(); t < horizon;) {
      t = std::min(t + kSlice, horizon);
      const std::int64_t s0 = wall_ns();
      int id = 0;
      {
        const alloc_pause pause;
        id = tr.begin("run_until");
      }
      sys.run_until(t);
      const alloc_pause pause;
      tr.end(id);
      slice_us.push_back(static_cast<double>(wall_ns() - s0) * 1e-3);
      r.snapshots.push_back(snapshot(*d));
    }
  }
  r.run_s = seconds_since(t0);
  const double run_cpu_s = cpu_seconds() - cpu0;
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  g_count_allocs.store(false, std::memory_order_relaxed);
  const auto pool1 = sim::wire_payload::stats();
  r.events = sys.engine().executed();
  // Simulated time per CPU second of every thread of the process: what a
  // busy host adds is time the threads wait for a CPU, which the wall clock
  // counts and CPU time does not (the sharded run's wall speed swings
  // threefold between consecutive runs on a busy host).
  m["sim_speed"] = spec.horizon.to_seconds() / run_cpu_s;

  t0 = wall_ns();
  std::optional<sc::observation> obs;
  std::vector<sc::check_result> checks;
  if (!traced) {
    obs.emplace(d->collect());
    checks = d->grade(*obs);
  } else {
    {
      tracer::scope s(tr, "collect");
      obs.emplace(d->collect());
    }
    m["scenario.collect_s"] = seconds_since(t0);
    const duration sw = opt.switch_latency > duration::zero()
                            ? opt.switch_latency
                            : spec.modes.switch_latency;
    checks = timed_checks(spec, *obs, sw, tr, m);
  }
  m["verify_s"] = seconds_since(t0);
  grade_into(checks, r);

  // Outside every timed region from here on.
  const std::vector<double> lat = probe.all_us();
  const quantile_t p50 = quantile(lat, 0.50);
  m["services.bcast.latency_p50_us"] = p50.value;
  m["services.bcast.latency_p99_us"] = quantile(lat, 0.99).value;
  m["services.bcast.latency_samples"] = static_cast<double>(p50.n);
  m["services.bcast.delivery_ratio"] = delivery_ratio(spec, *obs);
  if (m["services.bcast.delivery_ratio"] != 1.0)
    r.failures.push_back("broadcast: delivery ratio " +
                         std::to_string(m["services.bcast.delivery_ratio"]) +
                         " != 1 among correct nodes");
  // Offered work completed: gateway requests where there are gateways,
  // otherwise the broadcast deliveries themselves.
  if (spec.traffic.gateway_nodes > 0)
    edge_outcomes(spec, *obs, edge_crash_at(opt.seed), r);
  else
    m["goodput_ratio"] = m["services.bcast.delivery_ratio"];
  r.digest = observation_digest(*d, *obs, probe);
  if (traced) {
    sim_layers(*d, *obs, r);
    m["sim.events"] = static_cast<double>(r.events);
    m["sim.heap_allocs"] = static_cast<double>(allocs);
    m["sim.heap_allocs_per_event"] =
        ratio(static_cast<double>(allocs), static_cast<double>(r.events));
    m["sim.slices"] = static_cast<double>(slice_us.size());
    m["sim.slice_wall_us_p50"] = quantile(slice_us, 0.50).value;
    m["sim.slice_wall_us_p99"] = quantile(slice_us, 0.99).value;
    m["sim.wire_payload.chunk_allocs"] =
        static_cast<double>(pool1.chunk_allocs - pool0.chunk_allocs);
    m["sim.wire_payload.oversize_allocs"] =
        static_cast<double>(pool1.oversize_allocs - pool0.oversize_allocs);
  }
  return r;
}

// --- loopback realtime ---------------------------------------------------

/// Two realtime node groups of one deployment inside this process, each
/// with its own UDP socket transport on 127.0.0.1.
struct rt_group {
  delivery_probe probe;  // outlives the deployment holding its handlers
  std::unique_ptr<sc::deployment> d;
  std::unique_ptr<rt::socket_transport> tx;  // destroyed before `d`
  std::vector<bool> owned;
  /// Traced: (due, fired) steady_clock instants of every probe timer.
  std::vector<std::pair<std::int64_t, std::int64_t>> timer_spans;
};

/// Arm a probe timer every millisecond of virtual time through
/// `runtime::at`; each firing records how late the engine woke up, in wall
/// time.
void arm_probe(rt_group& g, std::int64_t epoch_ns, time_point at,
               time_point horizon) {
  if (at >= horizon) return;
  hades::runtime& rt = g.d->sys().engine();
  rt.at(at, [&g, epoch_ns, at, horizon] {
    const auto due = static_cast<double>(at.nanoseconds()) * kRtTimeScale;
    g.timer_spans.emplace_back(epoch_ns + static_cast<std::int64_t>(due), wall_ns());
    arm_probe(g, epoch_ns, at + kSlice, horizon);
  });
}

std::uint16_t pick_base_port() {
  static std::mt19937 rng(static_cast<std::uint32_t>(::getpid()) ^
                          static_cast<std::uint32_t>(wall_ns()));
  return static_cast<std::uint16_t>(20000 + rng() % 40000);
}

rep_result rt_rep(const sc::scenario_spec& spec, std::uint64_t seed, bool traced,
                  tracer& tr, const std::filesystem::path& scratch) {
  rep_result r;
  tracer::scope rep_span(tr, "rep");
  metric_map& m = r.m;
  const time_point horizon = time_point::at(spec.horizon);

  std::vector<rt_group> groups(2);
  std::int64_t epoch_ns = 0;
  double setup_s = 0.0;
  for (int attempt = 0;; ++attempt) {
    const std::uint16_t port = pick_base_port();
    epoch_ns = wall_ns() + kRtLeadNs;
    const std::int64_t t0 = wall_ns();
    try {
      tracer::scope s(tr, "setup");
      for (std::uint32_t gi = 0; gi < 2; ++gi) {
        rt_group& g = groups[gi];
        g.d = std::make_unique<sc::deployment>(spec, rt_options(seed, gi, epoch_ns));
        rt::socket_transport_params tp;
        tp.process_index = gi;
        tp.process_count = 2;
        tp.node_count = spec.nodes;
        tp.base_port = port;
        tp.seed = seed;
        tp.delta_max = kRtDeltaMax;
        tp.time_scale = kRtTimeScale;
        core::system& sys = g.d->sys();
        g.tx = std::make_unique<rt::socket_transport>(sys.engine(), sys.network(),
                                                      sys.mon(), tp);
        sc::preregister(*g.tx, spec.p);
        g.owned.assign(spec.nodes, false);
        for (node_id n = 0; n < spec.nodes; ++n) g.owned[n] = g.tx->owner(n) == gi;
        g.probe.attach(*g.d, g.owned);
        g.tx->start();
        g.d->start();
      }
      setup_s = seconds_since(t0);
      break;
    } catch (const std::exception&) {
      // A taken port is the one expected failure; anything else repeats.
      // Transports stop before the deployments they reference go.
      for (auto& g : groups) g.tx.reset();
      groups.clear();
      groups.resize(2);
      if (attempt >= 7) throw;
    }
  }
  m["setup_s"] = setup_s;
  if (wall_ns() >= epoch_ns)
    r.failures.push_back("loopback: set-up overran the shared-epoch lead");
  if (traced)
    for (auto& g : groups) {
      g.timer_spans.reserve(static_cast<std::size_t>(spec.horizon.count() / kSlice.count()));
      arm_probe(g, epoch_ns, time_point::at(kSlice), horizon);
    }

  std::this_thread::sleep_for(std::chrono::nanoseconds(epoch_ns - wall_ns()));
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = epoch_ns;  // virtual time 0
  std::exception_ptr peer_error;
  std::int64_t peer_start = 0, peer_end = 0;
  {
    tracer::scope s(tr, "run");
    std::thread peer([&] {
      peer_start = wall_ns();
      try {
        groups[1].d->run();
      } catch (...) {
        peer_error = std::current_exception();
      }
      peer_end = wall_ns();
    });
    try {
      tracer::scope g0(tr, "group0.run");
      groups[0].d->run();
    } catch (...) {
      peer.join();
      throw;
    }
    peer.join();
    tr.add("group1.run", peer_start, peer_end);
    for (const auto& g : groups)
      for (const auto& [due, fired] : g.timer_spans) tr.add("probe_timer", due, fired);
  }
  r.run_s = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  if (peer_error) std::rethrow_exception(peer_error);
  for (auto& g : groups) g.tx->stop();
  m["sim_speed"] = spec.horizon.to_seconds() / r.run_s;

  // Verification: collect each group's slice, merge them through the
  // partial-observation files the multi-process harness uses, and grade.
  std::vector<sc::observation> parts;
  const std::int64_t v0 = wall_ns();
  {
    tracer::scope s(tr, "collect");
    for (auto& g : groups) parts.push_back(g.d->collect());
  }
  if (traced) m["scenario.collect_s"] = seconds_since(v0);
  std::vector<std::string> paths;
  const std::int64_t merge0 = wall_ns();
  for (std::uint32_t gi = 0; gi < 2; ++gi) {
    rt_group& g = groups[gi];
    const bool has_mode = g.tx->owner(g.d->modes().home()) == gi;
    paths.push_back((scratch / ("group" + std::to_string(gi) + ".obs")).string());
    sc::write_partial_observation(paths.back(), parts[gi], g.owned, has_mode);
  }
  const sc::merged_observation merged = sc::merge_partial_observations(paths);
  if (traced) m["scenario.merge_s"] = seconds_since(merge0);
  const std::vector<sc::check_result> checks =
      traced ? timed_checks(spec, merged.obs, kRtSwitchLatency, tr, m)
             : groups[0].d->grade(merged.obs);
  m["verify_s"] = seconds_since(v0);
  grade_into(checks, r);

  // Outside the timed regions.
  std::vector<double> lat, late;
  std::uint64_t on_time = 0;
  rt::socket_transport::stats_t st{};
  double events = 0, busy_ns = 0;
  for (auto& g : groups) {
    const auto l = g.probe.all_us();
    lat.insert(lat.end(), l.begin(), l.end());
    // Lateness in wall time, like every other rt.* figure.
    for (double x : g.probe.lateness_us()) late.push_back(x * kRtTimeScale);
    on_time += g.probe.on_time();
    const auto s = g.tx->stats();
    st.sent += s.sent;
    st.received += s.received;
    st.gaps_declared += s.gaps_declared;
    st.late_delivered += s.late_delivered;
    st.delta_violations += s.delta_violations;
    st.max_latency_ns = std::max(st.max_latency_ns, s.max_latency_ns);
    events += static_cast<double>(g.d->sys().engine().executed());
    if (traced) {
      add_network_counts(*g.d, m);
      busy_ns += add_service_core_counts(*g.d, m);
    }
  }
  double expected = 0;
  for (const auto& s : merged.obs.sent_at)
    expected += static_cast<double>(s.size() * spec.nodes);
  const double dratio = ratio(static_cast<double>(lat.size()), expected);
  m["services.bcast.delivery_ratio"] = dratio;
  if (dratio != 1.0)
    r.failures.push_back("loopback: delivery ratio " + std::to_string(dratio) + " != 1");
  if (st.delta_violations != 0)
    r.failures.push_back("loopback: " + std::to_string(st.delta_violations) +
                         " frames slower than delta_max");
  m["services.bcast.latency_p50_us"] = quantile(lat, 0.50).value;
  m["goodput_ratio"] = dratio;
  const quantile_t l50 = quantile(late, 0.50);
  m["rt.lateness_p50_us"] = l50.value;
  m["rt.lateness_samples"] = static_cast<double>(l50.n);
  if (traced) {
    m["services.bcast.latency_samples"] = static_cast<double>(lat.size());
    m["services.bcast.latency_p99_us"] = quantile(lat, 0.99).value;
    m["services.fd.suspicions"] = static_cast<double>(merged.obs.suspicions.size());
    m["services.fd.recoveries"] = static_cast<double>(merged.obs.recoveries.size());
    m["core.busy_ratio"] =
        ratio(busy_ns, static_cast<double>(spec.nodes) *
                           static_cast<double>(spec.horizon.count()));
    m["sim.events"] = events;
    m["rt.sent"] = static_cast<double>(st.sent);
    m["rt.received"] = static_cast<double>(st.received);
    m["rt.gaps_declared"] = static_cast<double>(st.gaps_declared);
    m["rt.late_delivered"] = static_cast<double>(st.late_delivered);
    m["rt.delta_violations"] = static_cast<double>(st.delta_violations);
    m["rt.max_wire_latency_us"] = static_cast<double>(st.max_latency_ns) * 1e-3;
    m["rt.lateness_p90_us"] = quantile(late, 0.90).value;
    m["rt.lateness_p99_us"] = quantile(late, 0.99).value;
    m["rt.late_ratio"] =
        ratio(static_cast<double>(lat.size() - on_time), static_cast<double>(lat.size()));
    std::vector<double> timer_us;
    for (const auto& g : groups)
      for (const auto& [due, fired] : g.timer_spans)
        timer_us.push_back(static_cast<double>(fired - due) * 1e-3);
    const quantile_t t50 = quantile(timer_us, 0.50);
    m["rt.timer_lateness_p50_us"] = t50.value;
    m["rt.timer_lateness_p99_us"] = quantile(timer_us, 0.99).value;
    m["rt.timer_samples"] = static_cast<double>(t50.n);
    m["rt.cpu_per_wall"] = cpu / r.run_s;
  }
  return r;
}

// --- repetition loops ---------------------------------------------------

void absorb(run_report& out, rep_result& r) {
  ++out.attempted;
  if (!r.failures.empty()) ++out.failed;
  for (auto& f : r.failures) out.failures.push_back(std::move(f));
}

void keep(run_report& out, const metric_map& m, bool per_layer) {
  for (const auto& [k, v] : m) {
    const bool layer = k.find('.') != std::string::npos;
    if (layer == per_layer) out.samples[k].push_back(v);
  }
}

/// The wall-clock speed of an untraced simulated repetition, which
/// sim_speed leaves out: virtual seconds and nanoseconds per event.
void add_wall_speed(run_report& out, const sc::scenario_spec& spec, const rep_result& r) {
  out.samples["sim.wall_speed"].push_back(spec.horizon.to_seconds() / r.run_s);
  out.samples["sim.ns_per_event"].push_back(r.run_s * 1e9 / static_cast<double>(r.events));
}

/// Keep an untraced repetition's end-to-end metrics, with its CPU-bound
/// timings in reference-host seconds (`f` is its host-speed factor).
/// Realtime pacing stays as measured: the wall clock is what the realtime
/// backend runs against.
void keep_untraced(run_report& out, metric_map& m, double f, bool simulated) {
  m["setup_s"] *= f;
  m["verify_s"] *= f;
  if (simulated) m["sim_speed"] /= f;
  out.samples["host_factor"].push_back(f);
  keep(out, m, false);
}

/// Repeat `rep` until `seconds` of measurement have passed (at least once).
template <typename F>
void repeat_for(double seconds, F&& rep) {
  const std::int64_t t0 = wall_ns();
  do {
    rep();
  } while (seconds_since(t0) < seconds);
}

run_report run_flood(const run_options& o, tracer& tr) {
  run_report out;
  const sc::scenario_spec spec = flood_spec();
  tracer off(false);  // untraced repetitions record no spans
  // The single-engine reference digest, outside the measured window.
  std::uint64_t reference = 0;
  {
    rep_result ref = sim_rep(spec, sim_options(o.seed, "sim", 0, 0), false, off, "reference");
    reference = ref.digest;
    absorb(out, ref);
  }
  const auto opt = sim_options(o.seed, "sharded", kFloodShards, kFloodWorkers);
  auto check_digest = [&](rep_result& r) {
    if (r.digest != reference) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "flood_sharded: sharded digest %016llx != single-engine %016llx",
                    static_cast<unsigned long long>(r.digest),
                    static_cast<unsigned long long>(reference));
      r.failures.emplace_back(buf);
    }
  };
  host_speed host;
  repeat_for(o.seconds, [&] {
    reset_peak_rss();
    rep_result plain = sim_rep(spec, opt, false, off, "rep");
    if (!o.trace) out.samples["peak_rss_mb"].push_back(peak_rss_mb());
    check_digest(plain);
    if (o.trace) {
      out.samples["trace.untraced_sim_speed"].push_back(plain.m["sim_speed"]);
      add_wall_speed(out, spec, plain);
      rep_result traced = sim_rep(spec, opt, true, tr, "traced_rep");
      check_digest(traced);
      out.samples["trace.traced_sim_speed"].push_back(traced.m["sim_speed"]);
      keep(out, traced.m, true);
      out.snapshots = std::move(traced.snapshots);
      absorb(out, traced);
    } else {
      keep_untraced(out, plain.m, host.bracket(), true);
    }
    absorb(out, plain);
  });
  return out;
}

run_report run_edge(const run_options& o, tracer& tr) {
  run_report out;
  tracer off(false);
  const sc::scenario_spec spec = edge_spec(o.seed, true);
  const auto opt = sim_options(o.seed, "sim", 0, 0);
  host_speed host;
  repeat_for(o.seconds, [&] {
    reset_peak_rss();
    rep_result plain = sim_rep(spec, opt, false, off, "rep");
    if (!o.trace) out.samples["peak_rss_mb"].push_back(peak_rss_mb());
    if (o.trace) {
      out.samples["trace.untraced_sim_speed"].push_back(plain.m["sim_speed"]);
      add_wall_speed(out, spec, plain);
      rep_result traced = sim_rep(spec, opt, true, tr, "traced_rep");
      // The companion: same seed and plan, no gateways, traced the same
      // way, so the difference is what the traffic edge costs.
      rep_result comp = sim_rep(edge_spec(o.seed, false), opt, true, tr, "companion_rep");
      const double offered = traced.m["traffic.offered"];
      out.samples["trace.traced_sim_speed"].push_back(traced.m["sim_speed"]);
      out.samples["traffic.ns_per_request"].push_back(
          ratio((traced.run_s - comp.run_s) * 1e9, offered));
      out.samples["core.events_per_request"].push_back(ratio(
          static_cast<double>(traced.events) - static_cast<double>(comp.events), offered));
      keep(out, traced.m, true);
      out.snapshots = std::move(traced.snapshots);
      absorb(out, traced);
      absorb(out, comp);
    } else {
      keep_untraced(out, plain.m, host.bracket(), true);
    }
    absorb(out, plain);
  });
  return out;
}

run_report run_rt(const run_options& o, tracer& tr) {
  run_report out;
  tracer off(false);
  const sc::scenario_spec spec = rt_spec();
  const std::filesystem::path scratch =
      std::filesystem::path(o.out_dir) /
      ("loopback_rt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  host_speed host;
  repeat_for(o.seconds, [&] {
    reset_peak_rss();
    rep_result plain = rt_rep(spec, o.seed, false, off, scratch);
    if (!o.trace) out.samples["peak_rss_mb"].push_back(peak_rss_mb());
    if (o.trace) {
      out.samples["trace.untraced_sim_speed"].push_back(plain.m["sim_speed"]);
      rep_result traced = rt_rep(spec, o.seed, true, tr, scratch);
      out.samples["trace.traced_sim_speed"].push_back(traced.m["sim_speed"]);
      keep(out, traced.m, true);
      absorb(out, traced);
    } else {
      keep_untraced(out, plain.m, host.bracket(), false);
    }
    absorb(out, plain);
  });
  std::filesystem::remove_all(scratch);
  return out;
}

}  // namespace

run_report run_workload(const run_options& o) {
  tracer tr(o.trace);
  run_report out;
  if (o.workload == "flood_sharded")
    out = run_flood(o, tr);
  else if (o.workload == "edge_degrade")
    out = run_edge(o, tr);
  else if (o.workload == "loopback_rt")
    out = run_rt(o, tr);
  else
    throw std::invalid_argument("unknown workload: " + o.workload);
  if (o.trace) {
    const double plain = median(out.samples["trace.untraced_sim_speed"]).value;
    const double traced = median(out.samples["trace.traced_sim_speed"]).value;
    out.samples["trace.overhead_ratio"].push_back(ratio(plain - traced, plain));
    out.spans = tr.spans();
    out.samples["trace.spans"].push_back(static_cast<double>(out.spans.size()));
    out.snapshot_columns = kSnapshotColumns;
  }
  return out;
}

}  // namespace perfbench
