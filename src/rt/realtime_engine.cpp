#include "rt/realtime_engine.hpp"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace hades::rt {

namespace {

using sim::event_fn;
using sim::event_id;
using sim::invalid_event;

using steady = std::chrono::steady_clock;

/// Longest single `ppoll`: the kernel's slack on a poll timeout is 0.1 % of
/// it, above the 50 us default timer slack beyond this length.
constexpr std::chrono::nanoseconds max_wait = std::chrono::milliseconds(50);

[[nodiscard]] std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

class realtime_engine final : public hades::runtime {
 public:
  explicit realtime_engine(const options& o)
      : epoch_ns_(o.epoch_ns != 0 ? o.epoch_ns : steady_now_ns()),
        time_scale_(o.time_scale),
        process_index_(o.process_index),
        process_count_(o.process_count) {
    validate(time_scale_ >= 1.0,
             "realtime_engine: time_scale must be >= 1 (real s per virtual s)");
    validate(process_count_ >= 1, "realtime_engine: process_count >= 1");
    validate(process_index_ < process_count_,
             "realtime_engine: process_index out of range");
    validate(process_count_ == 1 || o.node_count > 0,
             "realtime_engine: multi-process placement needs node_count");
    if (process_count_ > 1)
      node_process_ = !o.node_shard.empty()
                          ? o.node_shard
                          : sim::contiguous_blocks(o.node_count,
                                                   process_count_);
  }

  // --- clock ---------------------------------------------------------------

  [[nodiscard]] time_point now() const override {
    std::int64_t v = steady_now_ns() - epoch_ns_;
    if (v < 0) v = 0;  // pre-epoch (shared future epoch): virtual time is 0
    if (time_scale_ != 1.0)
      v = static_cast<std::int64_t>(static_cast<double>(v) / time_scale_);
    return time_point::at(duration::nanoseconds(raise_watermark(v)));
  }

  // --- scheduling: the loop thread's, or any thread's while none runs ----

  event_id at(time_point t, event_fn fn) override {
    require_loop_thread();
    // Dates behind the core's last fired date are raised to it — never to
    // the wall clock, so a late event keeps its nominal ordering key.
    return core_.at(std::max(t, core_.now()), std::move(fn));
  }

  event_id at_node(node_id dst, time_point t, event_fn fn) override {
    // Foreign nodes run their own chains in their owning process; whatever
    // must cross processes rides the socket transport, never the scheduler.
    if (owner(dst) != process_index_) return invalid_event;
    return at(t, std::move(fn));
  }

  void cancel(event_id id) override {
    require_loop_thread();
    core_.cancel(id);
  }

  void watch_fd(int fd, std::function<void()> on_ready) override {
    require_loop_thread();
    watched_fd_ = fd;
    on_ready_ = fd >= 0 ? std::move(on_ready) : nullptr;
  }

  // --- topology ------------------------------------------------------------

  [[nodiscard]] std::uint32_t shard_of(node_id n) const override {
    return owner(n);
  }
  [[nodiscard]] std::size_t shard_count() const override {
    return process_count_;
  }
  [[nodiscard]] std::uint32_t executing_shard() const override {
    return process_index_;
  }
  [[nodiscard]] std::size_t worker_count() const override { return 0; }
  [[nodiscard]] bool in_event_context() const override {
    // Only the loop thread can be inside a callback, so reading the core's
    // flag from it is race-free.
    return loop_thread_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id() &&
           core_.in_event_context();
  }

  // --- execution -----------------------------------------------------------

  bool step() override { return drive(time_point::infinity(), 1) > 0; }

  std::size_t run(std::size_t max_events) override {
    return drive(time_point::infinity(), max_events);
  }

  std::size_t run_until(time_point t) override {
    validate(!t.is_infinite(), "realtime_engine::run_until: infinite date");
    require(t >= now(), "realtime_engine::run_until: date in the past");
    const std::size_t n = drive(t, std::numeric_limits<std::size_t>::max());
    // Settle the clock at exactly t for callers that schedule relative to
    // run_until's return (now() never regresses below this again).
    raise_watermark(t.nanoseconds());
    return n;
  }

  [[nodiscard]] bool empty() const override { return core_.empty(); }
  [[nodiscard]] std::size_t pending() const override {
    return core_.pending();
  }
  [[nodiscard]] std::uint64_t executed() const override {
    return core_.executed();
  }

 private:
  /// The one run loop behind step/run/run_until: fire the core's events in
  /// order, each once the wall clock passes its date, until `max_events`
  /// have executed or nothing dated <= `bound` is pending. A finite bound
  /// also holds the loop until the wall clock passes it — a datagram read
  /// meanwhile (a transport delivery) re-evaluates the loop — and settles
  /// the core's date at the bound.
  std::size_t drive(time_point bound, std::size_t max_events) {
    std::thread::id idle{};
    require(loop_thread_.compare_exchange_strong(idle,
                                                 std::this_thread::get_id(),
                                                 std::memory_order_relaxed),
            "realtime_engine: a run loop is already running");
    struct loop_scope {
      std::atomic<std::thread::id>& tid;
      ~loop_scope() { tid.store(std::thread::id{}, std::memory_order_relaxed); }
    } scope{loop_thread_};
    std::size_t n = 0;
    bool polled = false;  // the fd was polled since the last event fired
    while (n < max_events) {
      const time_point next = core_.peek_time();  // infinity when idle
      const bool due = !next.is_infinite() && next <= bound;
      if (!due && bound.is_infinite()) break;  // run/step: drained
      const steady::time_point deadline = real_deadline(due ? next : bound);
      const steady::time_point wall = steady::now();
      if (wall < deadline) {
        poll_fd(std::min<std::chrono::nanoseconds>(deadline - wall, max_wait));
        polled = true;
        continue;  // woken early or on time: re-peek either way
      }
      if (!due) {  // run_until: the wall clock passed the bound
        core_.run_until(bound);  // nothing dated <= bound: settles the date
        break;
      }
      // A late event: a backlog of them must not starve the socket.
      if (!polled && watched_fd_ >= 0) poll_fd(std::chrono::nanoseconds(0));
      polled = false;
      const std::uint64_t before = core_.executed();
      core_.step();
      n += core_.executed() - before;
    }
    return n;
  }

  /// Wait up to `timeout` for the watched fd (a plain sleep when none is
  /// watched) and run its hook when it is ready. EINTR only re-peeks.
  void poll_fd(std::chrono::nanoseconds timeout) {
    const timespec ts{static_cast<std::time_t>(timeout.count() / 1'000'000'000),
                      static_cast<long>(timeout.count() % 1'000'000'000)};
    pollfd pfd{watched_fd_, POLLIN, 0};
    const nfds_t nfds = watched_fd_ >= 0 ? 1 : 0;
    if (::ppoll(&pfd, nfds, &ts, nullptr) > 0 && pfd.revents != 0) on_ready_();
  }

  void require_loop_thread() const {
    const std::thread::id t = loop_thread_.load(std::memory_order_relaxed);
    require(t == std::thread::id{} || t == std::this_thread::get_id(),
            "realtime_engine: foreign-thread call while a run loop runs");
  }

  /// CAS-max the watermark to `v` and return the (possibly larger) result.
  std::int64_t raise_watermark(std::int64_t v) const {
    std::int64_t w = watermark_.load(std::memory_order_relaxed);
    while (v > w &&
           !watermark_.compare_exchange_weak(w, v, std::memory_order_relaxed)) {
    }
    return std::max(v, w);
  }

  [[nodiscard]] steady::time_point real_deadline(time_point t) const {
    std::int64_t ns = t.nanoseconds();
    if (time_scale_ != 1.0)
      ns = static_cast<std::int64_t>(static_cast<double>(ns) * time_scale_);
    return steady::time_point(std::chrono::nanoseconds(epoch_ns_ + ns));
  }

  [[nodiscard]] std::uint32_t owner(node_id n) const {
    return n < node_process_.size() ? node_process_[n] : 0;
  }

  const std::int64_t epoch_ns_;
  const double time_scale_;
  const std::uint32_t process_index_;
  const std::size_t process_count_;
  std::vector<std::uint32_t> node_process_;  // empty: one process owns all

  sim::engine core_;
  int watched_fd_ = -1;
  std::function<void()> on_ready_;
  std::atomic<std::thread::id> loop_thread_{};  // inside drive(), or none
  mutable std::atomic<std::int64_t> watermark_{0};
};

}  // namespace

std::unique_ptr<hades::runtime> make_realtime_engine(
    const hades::runtime::options& o) {
  return std::make_unique<realtime_engine>(o);
}

}  // namespace hades::rt
