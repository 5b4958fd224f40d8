#include "rt/realtime_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
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

  // --- scheduling: every call delegates to the core under the mutex --------

  event_id at(time_point t, event_fn fn) override {
    std::lock_guard lk(mu_);
    const event_id id = core_.at(floor_locked(t), std::move(fn));
    cv_.notify_all();  // a waiting run loop re-evaluates its horizon
    return id;
  }

  event_id at_node(node_id dst, time_point t, event_fn fn) override {
    // Foreign nodes run their own chains in their owning process; whatever
    // must cross processes rides the socket transport, never the scheduler.
    if (owner(dst) != process_index_) return invalid_event;
    return at(t, std::move(fn));
  }

  void cancel(event_id id) override {
    std::lock_guard lk(mu_);
    core_.cancel(id);
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
    // Only the loop thread can be inside a callback, and it holds mu_, so
    // reading the core's flag from it is race-free.
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

  [[nodiscard]] bool empty() const override {
    std::lock_guard lk(mu_);
    return core_.empty();
  }
  [[nodiscard]] std::size_t pending() const override {
    std::lock_guard lk(mu_);
    return core_.pending();
  }
  [[nodiscard]] std::uint64_t executed() const override {
    std::lock_guard lk(mu_);
    return core_.executed();
  }

 private:
  /// The one run loop behind step/run/run_until: fire the core's events in
  /// order, each once the wall clock passes its date, until `max_events`
  /// have executed or nothing dated <= `bound` is pending. A finite bound
  /// also holds the loop until the wall clock passes it — an insertion
  /// meanwhile (a transport delivery) re-evaluates the loop — and settles
  /// the core's date at the bound.
  std::size_t drive(time_point bound, std::size_t max_events) {
    std::unique_lock lk(mu_);
    struct loop_scope {
      std::atomic<std::thread::id>& tid;
      explicit loop_scope(std::atomic<std::thread::id>& t) : tid(t) {
        tid.store(std::this_thread::get_id(), std::memory_order_relaxed);
      }
      ~loop_scope() { tid.store(std::thread::id{}, std::memory_order_relaxed); }
    } scope(loop_thread_);
    std::size_t n = 0;
    while (n < max_events) {
      const time_point next = core_.peek_time();  // infinity when idle
      const bool due = !next.is_infinite() && next <= bound;
      if (!due && bound.is_infinite()) break;  // run/step: drained
      const steady::time_point deadline = real_deadline(due ? next : bound);
      if (steady::now() < deadline) {
        cv_.wait_until(lk, deadline);
        continue;  // woken early or on time: re-peek either way
      }
      if (!due) {  // run_until: the wall clock passed the bound
        core_.run_until(bound);  // nothing dated <= bound: settles the date
        break;
      }
      const std::uint64_t before = core_.executed();
      core_.step();  // the callback runs with mu_ held
      n += core_.executed() - before;
    }
    return n;
  }

  /// Dates behind the core's last fired date are raised to it — never to
  /// the wall clock, so a late event keeps its nominal ordering key.
  [[nodiscard]] time_point floor_locked(time_point t) const {
    return std::max(t, core_.now());
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

  mutable std::recursive_mutex mu_;
  std::condition_variable_any cv_;
  sim::engine core_;  // guarded by mu_
  std::atomic<std::thread::id> loop_thread_{};
  mutable std::atomic<std::int64_t> watermark_{0};
};

}  // namespace

std::unique_ptr<hades::runtime> make_realtime_engine(
    const hades::runtime::options& o) {
  return std::make_unique<realtime_engine>(o);
}

}  // namespace hades::rt
