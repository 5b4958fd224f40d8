// UDP loopback transport + netem-style fault shim for multi-process
// realtime runs (DESIGN.md, "Runtime factory & injector API").
//
// One transport per OS process, one UDP socket per transport, bound to
// 127.0.0.1:(base_port + process_index). It plugs into the process-local
// `sim::network` through the remote hook: frames whose destination node is
// owned by another process are serialized (sim/wire_codec) and shipped as
// one length-delimited datagram each; everything else falls through to the
// simulated LAN untouched.
//
// The shim side implements `scenario::fault_injector`, consuming the same
// declarative plans the simulated network does (via `scenario::
// preregister`). Fault decisions for cross-process frames happen on the
// sending side *before* a link sequence number is consumed:
//   * drop    — src/dst down, partition, or an omission-rate draw: the
//               frame is never sent, so receivers see no artificial gap;
//   * delay   — a performance-fault draw sends the frame from an engine
//               timer at its send date plus the configured extra duration
//               (which also yields reordering, as later undelayed frames
//               overtake it); the intentional delay rides the frame header
//               so the receiver's Δ check does not count it against the
//               network.
// The transport adds no thread: it hands its socket to the engine's
// readiness hook (`runtime::watch_fd`), so the run-loop thread reads
// datagrams between events, as it sends them from inside events.
//
// Receivers recover per-link FIFO with a sequence hold-back window: a gap
// (a genuinely lost datagram) is declared lost after a bounded hold (one
// engine timer) and skipped — the same observable outcome as an omission
// fault, which every HADES service already tolerates. The hold stretches to cover the largest
// registered performance-fault delay, and a declared-lost frame that does
// arrive later is still delivered (late, out of FIFO order — the sim's
// perf-fault semantics) instead of degenerating into an omission.
//
// Monitor events forwarded across processes (`monitor::set_forwarder`)
// ride the same socket but bypass both the fault shim and sequence
// recovery: in-process they travel through the scheduler, not the LAN, so
// the transport must not subject them to wire faults.
//
// The receiver measures real end-to-end latency (minus any intentional
// extra delay) into a zero-allocation histogram, checks it against the
// configured delta_max and counts violations; the harness fails loudly when
// the wall clock broke the Δ bound the checkers' verdicts assume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/monitor.hpp"
#include "scenario/fault_injector.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::rt {

struct socket_transport_params {
  std::uint32_t process_index = 0;
  std::size_t process_count = 1;
  /// node -> owning process (nodes past the end: process 0); empty =
  /// `sim::contiguous_blocks` over `node_count`, the realtime engine's
  /// default map.
  std::vector<std::uint32_t> node_process;
  std::size_t node_count = 0;
  /// Peer i listens on 127.0.0.1:(base_port + i).
  std::uint16_t base_port = 47000;
  std::uint64_t seed = 42;  // omission / performance-fault draws
  /// Upper bound the Δ-violation check enforces on real (uninjected)
  /// delivery latency; use the network's delta_max.
  duration delta_max = duration::milliseconds(5);
  /// Real ns per virtual ns (the engine's time_scale): intentional delays
  /// are virtual durations and stretch accordingly in real time.
  double time_scale = 1.0;
  /// How long the receiver holds frames behind a sequence gap before
  /// declaring the missing frame lost (real time). The effective window
  /// additionally covers the largest registered performance-fault delay
  /// (stretched by time_scale) so an intentionally delayed frame is held
  /// for, not declared lost; one that still outlasts the window is
  /// delivered late on arrival rather than dropped as a duplicate.
  duration holdback = duration::milliseconds(5);
};

class socket_transport final : public scenario::fault_injector {
 public:
  /// `rt` must be the realtime backend: the others throw `hades::error`.
  socket_transport(hades::runtime& rt, sim::network& net, core::monitor& mon,
                   socket_transport_params p);
  ~socket_transport() override;
  socket_transport(const socket_transport&) = delete;
  socket_transport& operator=(const socket_transport&) = delete;

  /// Open the socket, hand it to the engine's readiness hook, and install
  /// the network remote hook + monitor forwarder. Call after every node is
  /// attached and before the run loop starts, on the thread that will run
  /// it or with no loop running. Throws `hades::error` (socket closed
  /// again) when the port cannot be bound.
  void start();
  /// Uninstall the hooks, unwatch the socket, close it. Idempotent; the
  /// destructor calls it. Delayed frames still pending in the engine are
  /// then never sent, even if the engine runs past their date.
  void stop();

  // --- scenario::fault_injector (the netem shim) -------------------------
  void set_node_down_at(time_point t, node_id n, bool down) override;
  void partition_at(time_point t,
                    const std::vector<std::vector<node_id>>& groups) override;
  void heal_partition_at(time_point t) override;
  void set_omission_rate_at(time_point t, double p) override;
  void set_performance_fault_at(time_point t, double rate,
                                duration extra) override;

  struct stats_t {
    std::uint64_t sent = 0;           // datagrams handed to the socket
    std::uint64_t received = 0;       // datagrams parsed
    std::uint64_t dropped_fault = 0;  // shim drops (down/partition/omission)
    std::uint64_t delayed = 0;        // performance-fault holds
    std::uint64_t dup_dropped = 0;    // below-floor / duplicate sequence
    std::uint64_t gaps_declared = 0;  // lost datagrams skipped by hold-back
    std::uint64_t late_delivered = 0; // declared-lost frames arriving late
    std::uint64_t delta_violations = 0;
    std::int64_t max_latency_ns = 0;  // real latency, intentional delay excluded
    std::int64_t latency_p50_ns = 0;  // its quantiles, within 0.8 %
    std::int64_t latency_p99_ns = 0;
  };
  /// Call with no run loop running, or from the loop's thread.
  [[nodiscard]] stats_t stats() const;

  [[nodiscard]] std::uint32_t owner(node_id n) const;

 private:
  struct impl;
  std::shared_ptr<impl> impl_;  // pending delayed sends hold weak refs
};

}  // namespace hades::rt
