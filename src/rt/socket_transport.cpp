#include "rt/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "rt/codecs.hpp"
#include "sim/wire_codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timeline.hpp"

namespace hades::rt {

namespace {

using steady = std::chrono::steady_clock;

constexpr std::uint32_t frame_magic = 0x48444553;  // "HDES"
constexpr std::uint8_t kind_data = 0;
constexpr std::uint8_t kind_monitor = 1;
constexpr std::size_t max_datagram = 60000;
constexpr std::size_t max_held = 64;  // hold-back window per link

struct frame_header {
  std::uint32_t magic = frame_magic;
  std::uint8_t kind = kind_data;
  std::uint8_t pad[3] = {};
  node_id src = invalid_node;
  node_id dst = invalid_node;  // monitor frames: the home node
  std::int32_t channel = 0;
  std::uint64_t link_seq = 0;  // data frames only
  std::int64_t sent_at_ns = 0;
  std::int64_t extra_delay_ns = 0;  // intentional (perf-fault) delay
  std::uint64_t msg_id = 0;
  std::uint64_t size_bytes = 0;
  std::uint32_t payload_tag = 0;
  std::uint32_t payload_len = 0;
};
static_assert(std::is_trivially_copyable_v<frame_header>);

struct perf_state {
  double rate = 0.0;
  std::int64_t extra_ns = 0;
};

struct held_frame {
  std::vector<std::byte> bytes;
  steady::time_point arrived;
};

constexpr std::size_t max_lost_tracked = 4096;  // declared-gap seqs per link

struct link_state {
  std::uint64_t next_send_seq = 0;  // sender side
  std::uint64_t expected = 1;       // receiver side
  std::map<std::uint64_t, held_frame> held;
  // Sequences declared lost by the hold-back window: a below-floor frame
  // matching one of these is a delayed frame finally arriving, not a
  // duplicate — deliver it late instead of dropping it.
  std::set<std::uint64_t> lost;
};

}  // namespace

// Shared so that a delayed send still pending in the engine when the
// transport goes away holds only a weak reference (see on_submit).
struct socket_transport::impl
    : std::enable_shared_from_this<socket_transport::impl> {
  socket_transport_params p;
  hades::runtime* rt;
  sim::network* net;
  core::monitor* mon;

  int fd = -1;
  std::thread receiver;
  std::atomic<bool> running{false};
  bool started = false;

  // Sender-side state (hook runs on the event loop; the shim setters run
  // wherever preregistration happens): one mutex covers it all.
  mutable std::mutex mu;
  // Date-keyed fault state, read by the same rule as sim::network's.
  std::vector<util::timeline<bool>> node_down;  // node-indexed
  // node -> group (empty = healed)
  util::timeline<std::vector<std::uint32_t>> partition;
  util::timeline<double> omission;
  util::timeline<perf_state> perf;
  std::int64_t max_perf_extra_ns = 0;  // largest registered intentional delay
  std::map<std::pair<node_id, node_id>, link_state> links;
  rng draws;
  stats_t st;

  explicit impl(socket_transport_params params) : p(std::move(params)), draws(p.seed) {
    // The realtime engine's placement rule, so both agree on every owner.
    if (p.node_process.empty())
      p.node_process = sim::contiguous_blocks(p.node_count, p.process_count);
  }

  [[nodiscard]] std::uint32_t owner_of(node_id n) const {
    return n < p.node_process.size() ? p.node_process[n] : 0;
  }

  [[nodiscard]] bool partitioned_locked(node_id a, node_id b,
                                        time_point t) const {
    const auto* groups = partition.at(t);
    if (groups == nullptr || groups->empty()) return false;
    const auto ga = a < groups->size() ? (*groups)[a] : UINT32_MAX;
    const auto gb = b < groups->size() ? (*groups)[b] : UINT32_MAX;
    // Nodes outside every named group stay connected to everyone.
    if (ga == UINT32_MAX || gb == UINT32_MAX) return false;
    return ga != gb;
  }

  [[nodiscard]] bool down_locked(node_id n, time_point t) const {
    if (n >= node_down.size()) return false;
    const bool* d = node_down[n].at(t);
    return d != nullptr && *d;
  }

  void send_to(std::uint32_t proc, const std::byte* data, std::size_t len) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(p.base_port + proc));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::sendto(fd, data, len, 0, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr);
  }

  /// Network remote hook: true = frame consumed (shipped or shim-dropped).
  bool on_submit(const sim::message& m) {
    if (owner_of(m.dst) == p.process_index) return false;  // local: sim LAN
    const time_point t = m.sent_at;
    std::vector<std::byte> buf;
    std::uint32_t dest_proc;
    std::int64_t extra_ns = 0;
    {
      std::lock_guard lk(mu);
      // Fault decisions before a sequence number is consumed: a shim drop
      // leaves no gap for the receiver's recovery to wait on.
      if (down_locked(m.src, t) || down_locked(m.dst, t) ||
          partitioned_locked(m.src, m.dst, t)) {
        ++st.dropped_fault;
        return true;
      }
      if (const double* pr = omission.at(t);
          pr != nullptr && *pr > 0.0 && draws.chance(*pr)) {
        ++st.dropped_fault;
        return true;
      }
      if (const perf_state* pf = perf.at(t);
          pf != nullptr && pf->rate > 0.0 && draws.chance(pf->rate))
        extra_ns = pf->extra_ns;

      frame_header h;
      h.kind = kind_data;
      h.src = m.src;
      h.dst = m.dst;
      h.channel = m.channel;
      h.link_seq = ++links[{m.src, m.dst}].next_send_seq;
      h.sent_at_ns = t.nanoseconds();
      h.extra_delay_ns = extra_ns;
      h.msg_id = m.id;
      h.size_bytes = m.size_bytes;

      std::vector<std::byte> payload;
      h.payload_tag = sim::wire_codec::encode(m.payload, payload);
      h.payload_len = static_cast<std::uint32_t>(payload.size());
      validate(sizeof h + payload.size() <= max_datagram,
               "socket_transport: payload exceeds one datagram");
      buf.resize(sizeof h + payload.size());
      std::memcpy(buf.data(), &h, sizeof h);
      std::memcpy(buf.data() + sizeof h, payload.data(), payload.size());
      dest_proc = owner_of(m.dst);
      ++st.sent;
      if (extra_ns > 0) ++st.delayed;
    }
    if (extra_ns > 0) {
      // An engine timer at the send date + extra (the engine maps it to
      // real time). It holds a weak reference and sends only while the
      // socket is open: a stopped or destroyed transport is never touched.
      rt->at(m.sent_at + duration::nanoseconds(extra_ns),
             [self = weak_from_this(), dest_proc, buf = std::move(buf)] {
               const auto i = self.lock();
               if (i == nullptr) return;
               std::lock_guard lk(i->mu);
               if (i->fd >= 0) i->send_to(dest_proc, buf.data(), buf.size());
             });
    } else {
      send_to(dest_proc, buf.data(), buf.size());
    }
    return true;
  }

  /// Monitor forwarder: true = home is foreign, event shipped. Bypasses
  /// the fault shim — in-process this path is the scheduler, not the LAN.
  bool on_forward(const core::monitor_event& e, node_id home, duration) {
    const std::uint32_t dest_proc = owner_of(home);
    if (dest_proc == p.process_index) return false;
    std::vector<std::byte> payload;
    encode_monitor_event(e, payload);
    frame_header h;
    h.kind = kind_monitor;
    h.dst = home;
    h.sent_at_ns = e.at.nanoseconds();
    h.payload_len = static_cast<std::uint32_t>(payload.size());
    validate(sizeof h + payload.size() <= max_datagram,
             "socket_transport: monitor event exceeds one datagram");
    std::vector<std::byte> buf(sizeof h + payload.size());
    std::memcpy(buf.data(), &h, sizeof h);
    std::memcpy(buf.data() + sizeof h, payload.data(), payload.size());
    {
      std::lock_guard lk(mu);
      ++st.sent;
    }
    send_to(dest_proc, buf.data(), buf.size());
    return true;
  }

  void deliver(const frame_header& h, const std::byte* payload) {
    if (h.kind == kind_monitor) {
      mon->deliver_forwarded(decode_monitor_event(payload, h.payload_len),
                             h.dst);
      return;
    }
    sim::message m;
    m.src = h.src;
    m.dst = h.dst;
    m.channel = h.channel;
    m.size_bytes = static_cast<std::size_t>(h.size_bytes);
    m.id = h.msg_id;
    m.sent_at = time_point::at(duration::nanoseconds(h.sent_at_ns));
    m.payload = sim::wire_codec::decode(h.payload_tag, payload, h.payload_len);
    // Real delivery latency, the intentional perf-fault delay excluded,
    // must honor the Δ bound the checkers assume — or the harness fails.
    const std::int64_t lat =
        rt->now().nanoseconds() - h.sent_at_ns - h.extra_delay_ns;
    {
      std::lock_guard lk(mu);
      st.max_latency_ns = std::max(st.max_latency_ns, lat);
      if (lat > p.delta_max.count()) ++st.delta_violations;
    }
    net->deliver_remote(std::move(m));
  }

  void handle_datagram(const std::byte* data, std::size_t len) {
    frame_header h;
    if (len < sizeof h) return;
    std::memcpy(&h, data, sizeof h);
    if (h.magic != frame_magic || len != sizeof h + h.payload_len) return;
    {
      std::lock_guard lk(mu);
      ++st.received;
    }
    const std::byte* payload = data + sizeof h;
    if (h.kind == kind_monitor) {
      deliver(h, payload);
      return;
    }
    // Per-link FIFO recovery: deliver in sequence order, holding frames
    // that arrive ahead of a gap.
    std::vector<std::vector<std::byte>> ready;
    {
      std::lock_guard lk(mu);
      link_state& l = links[{h.src, h.dst}];
      if (h.link_seq < l.expected) {
        const auto it = l.lost.find(h.link_seq);
        if (it == l.lost.end()) {
          ++st.dup_dropped;
          return;
        }
        // A declared-lost frame finally arrived (a perf-fault delay that
        // outlasted the hold-back window): deliver it late, outside FIFO
        // order — the sim delivers a perf-faulted message late, never as
        // an extra omission.
        l.lost.erase(it);
        ++st.late_delivered;
      } else if (h.link_seq > l.expected) {
        held_frame held;
        held.bytes.assign(data, data + len);
        held.arrived = steady::now();
        l.held.emplace(h.link_seq, std::move(held));
        return;
      } else {
        ++l.expected;
        while (!l.held.empty() && l.held.begin()->first == l.expected) {
          ready.push_back(std::move(l.held.begin()->second.bytes));
          l.held.erase(l.held.begin());
          ++l.expected;
        }
      }
    }
    deliver(h, payload);
    for (const auto& bytes : ready) {
      frame_header rh;
      std::memcpy(&rh, bytes.data(), sizeof rh);
      deliver(rh, bytes.data() + sizeof rh);
    }
  }

  /// Declare datagrams behind an over-age or over-full hold-back window
  /// lost and resume from the oldest held frame (observably an omission).
  /// Returns the receiver's next poll timeout in ms: until the earliest
  /// remaining hold-back expiry, or -1 (indefinitely) when nothing is held.
  int flush_expired_holdbacks() {
    std::vector<std::vector<std::byte>> ready;
    auto next_expiry = steady::time_point::max();
    {
      std::lock_guard lk(mu);
      const auto now = steady::now();
      // The base window covers real loopback jitter; a registered
      // performance fault additionally holds its victims for extra_ns
      // stretched by time_scale on the sender, so the window must stretch
      // with it or every injected delay degenerates into an omission.
      const auto max_age = std::chrono::nanoseconds(
          p.holdback.count() +
          static_cast<std::int64_t>(static_cast<double>(max_perf_extra_ns) *
                                    p.time_scale));
      for (auto& [link, l] : links) {
        if (l.held.empty()) continue;
        const bool expired =
            l.held.size() > max_held ||
            now - l.held.begin()->second.arrived > max_age;
        if (expired) {
          ++st.gaps_declared;
          // Remember the skipped sequences: should one arrive after all (a
          // delay beyond even the stretched window), it is delivered late
          // rather than mistaken for a duplicate.
          for (std::uint64_t s = l.expected; s < l.held.begin()->first; ++s) {
            if (l.lost.size() >= max_lost_tracked) l.lost.erase(l.lost.begin());
            l.lost.insert(s);
          }
          l.expected = l.held.begin()->first;
          while (!l.held.empty() && l.held.begin()->first == l.expected) {
            ready.push_back(std::move(l.held.begin()->second.bytes));
            l.held.erase(l.held.begin());
            ++l.expected;
          }
        }
        if (!l.held.empty())
          next_expiry =
              std::min(next_expiry, l.held.begin()->second.arrived + max_age);
      }
    }
    for (const auto& bytes : ready) {
      frame_header rh;
      std::memcpy(&rh, bytes.data(), sizeof rh);
      deliver(rh, bytes.data() + sizeof rh);
    }
    if (next_expiry == steady::time_point::max()) return -1;
    // Rounded up: waking before the expiry would only spin.
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        next_expiry - steady::now());
    return static_cast<int>(std::max<std::int64_t>(wait.count(), 0));
  }

  /// The receiver thread: sleeps in `poll` until a datagram arrives or the
  /// earliest hold-back expires. `stop` wakes it by shutting the socket's
  /// read side, which makes it readable (recvfrom returns 0).
  void receive_loop() {
    std::vector<std::byte> buf(1 << 16);
    int timeout_ms = -1;
    while (running.load(std::memory_order_relaxed)) {
      pollfd pfd{fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, timeout_ms);
      if (r > 0 && (pfd.revents & POLLIN) != 0) {
        for (;;) {
          const ssize_t n =
              ::recvfrom(fd, buf.data(), buf.size(), MSG_DONTWAIT, nullptr,
                         nullptr);
          if (n <= 0) break;
          handle_datagram(buf.data(), static_cast<std::size_t>(n));
        }
      }
      timeout_ms = flush_expired_holdbacks();
    }
  }
};

socket_transport::socket_transport(hades::runtime& rt, sim::network& net,
                                   core::monitor& mon,
                                   socket_transport_params p)
    : impl_(std::make_shared<impl>(std::move(p))) {
  impl_->rt = &rt;
  impl_->net = &net;
  impl_->mon = &mon;
  validate(impl_->p.process_count >= 1, "socket_transport: process_count >= 1");
  validate(impl_->p.process_index < impl_->p.process_count,
           "socket_transport: process_index out of range");
  register_hades_codecs();
}

socket_transport::~socket_transport() { stop(); }

void socket_transport::start() {
  impl& i = *impl_;
  require(!i.started, "socket_transport::start: already started");
  i.fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  validate(i.fd >= 0, "socket_transport: socket() failed: " +
                          std::string(std::strerror(errno)));
  const int rcvbuf = 1 << 21;
  (void)::setsockopt(i.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port =
      htons(static_cast<std::uint16_t>(i.p.base_port + i.p.process_index));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(i.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(i.fd);  // not started: neither stop() nor the destructor closes it
    i.fd = -1;
    throw error("socket_transport: bind(port " +
                std::to_string(i.p.base_port + i.p.process_index) +
                ") failed: " + std::strerror(err));
  }
  i.running.store(true);
  i.receiver = std::thread([&i] { i.receive_loop(); });
  i.net->set_remote_hook([&i](const sim::message& m) { return i.on_submit(m); });
  i.mon->set_forwarder(
      [&i](const core::monitor_event& e, node_id home, duration d) {
        return i.on_forward(e, home, d);
      });
  i.started = true;
}

void socket_transport::stop() {
  impl& i = *impl_;
  if (!i.started) return;
  i.net->set_remote_hook(nullptr);
  i.mon->set_forwarder(nullptr);
  i.running.store(false);
  (void)::shutdown(i.fd, SHUT_RD);  // wakes the receiver's poll
  if (i.receiver.joinable()) i.receiver.join();
  {
    std::lock_guard lk(i.mu);  // a delayed send checks the fd under it
    ::close(i.fd);
    i.fd = -1;
  }
  i.started = false;
}

void socket_transport::set_node_down_at(time_point t, node_id n, bool down) {
  impl& i = *impl_;
  std::lock_guard lk(i.mu);
  if (n >= i.node_down.size()) i.node_down.resize(n + 1);
  i.node_down[n].set(t, down);
}

void socket_transport::partition_at(
    time_point t, const std::vector<std::vector<node_id>>& groups) {
  impl& i = *impl_;
  // node -> group id, matching sim::network's membership rule: nodes in no
  // named group remain connected to everyone.
  std::size_t max_node = 0;
  for (const auto& g : groups)
    for (node_id n : g) max_node = std::max<std::size_t>(max_node, n);
  std::vector<std::uint32_t> member(max_node + 1, UINT32_MAX);
  for (std::uint32_t gi = 0; gi < groups.size(); ++gi)
    for (node_id n : groups[gi]) member[n] = gi;
  std::lock_guard lk(i.mu);
  i.partition.set(t, std::move(member));
}

void socket_transport::heal_partition_at(time_point t) {
  impl& i = *impl_;
  std::lock_guard lk(i.mu);
  i.partition.set(t, {});
}

void socket_transport::set_omission_rate_at(time_point t, double p) {
  impl& i = *impl_;
  std::lock_guard lk(i.mu);
  i.omission.set(t, p);
}

void socket_transport::set_performance_fault_at(time_point t, double rate,
                                                duration extra) {
  impl& i = *impl_;
  std::lock_guard lk(i.mu);
  i.perf.set(t, {rate, extra.count()});
  if (rate > 0.0)
    i.max_perf_extra_ns = std::max(i.max_perf_extra_ns, extra.count());
}

socket_transport::stats_t socket_transport::stats() const {
  std::lock_guard lk(impl_->mu);
  return impl_->st;
}

std::uint32_t socket_transport::owner(node_id n) const {
  return impl_->owner_of(n);
}

}  // namespace hades::rt
