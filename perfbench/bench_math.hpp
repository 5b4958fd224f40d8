// Metric math of the benchmark: quantiles that carry their sample count,
// Δ-delivery lateness, span self time and the traffic goodput ratio. Header
// only and free of HADES types, so math_test.cpp checks it without building
// the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A quantile together with the number of samples it was taken over; a
/// timing is never printed without its base.
struct quantile_t {
  double value = 0.0;
  std::size_t n = 0;
};

/// The q-quantile (0 <= q <= 1) by linear interpolation between closest
/// ranks (the definition numpy and Python's `statistics` "inclusive" method
/// use). An empty sample yields {0, 0}.
inline quantile_t quantile(std::vector<double> v, double q) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return {v[lo] + (v[hi] - v[lo]) * frac, v.size()};
}

inline quantile_t median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// How far past its Δ release date a delivery ran, in nanoseconds: the
/// observed send-to-delivery latency minus the broadcast service's
/// worst-case delivery bound. Negative means early.
inline std::int64_t lateness_ns(std::int64_t delivered_at_ns,
                                std::int64_t sent_at_ns,
                                std::int64_t delivery_bound_ns) {
  return (delivered_at_ns - sent_at_ns) - delivery_bound_ns;
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector, or -1 for a root.
struct span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// a child is clipped to its parent's interval).
inline std::vector<std::int64_t> self_times(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;  // end of the covered prefix so far
    for (auto [b, e] : iv) {
      b = std::max(b, reach);
      e = std::min(e, p.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    out[i] = (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

/// Gateway outcome totals, summed over gateways.
struct edge_outcome {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;  // finished by their deadline
  std::uint64_t missed = 0;     // admitted, then deadline-aborted
};

/// Requests completed by their deadline over requests offered. Refused,
/// shed, deadline-aborted and still-outstanding requests all count as
/// missing the limit: the denominator is everything offered, not only
/// what admission let in.
inline double goodput_ratio(const edge_outcome& e) {
  return e.offered == 0 ? 0.0
                        : static_cast<double>(e.completed) /
                              static_cast<double>(e.offered);
}

/// `part / whole`, 0 when the base is empty.
inline double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

}  // namespace perfbench
