// Span recorder of the traced run. Spans are taken from the benchmark's own
// files around the calls it makes into each layer (deployment construction,
// start, every run_until slice, collect, every check_*), kept in memory and
// written out once when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_math.hpp"

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nested spans of one thread. A disabled tracer records nothing; every
/// call is then a branch.
class tracer {
 public:
  explicit tracer(bool on) : on_(on), origin_(wall_ns()) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Open a span whose parent is the innermost open one. Returns its id.
  int begin(const char* name) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, wall_ns() - origin_, 0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void end(int id) {
    if (!on_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = wall_ns() - origin_;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  /// Record a finished span measured elsewhere (another thread, an engine
  /// callback), in absolute steady_clock nanoseconds, under the innermost
  /// open span.
  void add(const char* name, std::int64_t start_abs_ns, std::int64_t end_abs_ns) {
    if (!on_) return;
    spans_.push_back({name, start_abs_ns - origin_, end_abs_ns - origin_,
                      open_.empty() ? -1 : open_.back()});
  }

  class scope {
   public:
    scope(tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~scope() { t_.end(id_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer& t_;
    int id_;
  };

  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

 private:
  bool on_;
  std::int64_t origin_;
  std::vector<span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
