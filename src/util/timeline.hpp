// Piecewise-constant value over time (`util::timeline<T>`): the date-keyed
// fault state of the simulated LAN (`sim::network`) and of the socket
// transport's fault shim (`rt::socket_transport`), so both answer every
// fault query by the same rule.
//
// `set` records the value taking effect at date t, `at` reads the value in
// force at date t. All reads are order-independent — two shards may execute
// a mutation and a query in either wall order within a round and still
// agree, because the query compares dates, not mutation order. Entries stay
// sorted by date, same-date entries in registration order, and both `set`
// and `at` binary-search (`std::upper_bound`) — `at` returns the *last*
// entry at or before t, so same-date re-registration is last-write-wins.
// Concurrency of the container itself is the caller's business.
#pragma once

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace hades::util {

template <typename T>
class timeline {
 public:
  void set(time_point t, T v) {
    entries_.insert(upper_bound(t), {t, std::move(v)});
  }
  [[nodiscard]] const T* at(time_point t) const {
    auto it = upper_bound(t);
    return it == entries_.begin() ? nullptr : &std::prev(it)->second;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  using entry = std::pair<time_point, T>;
  // Const iterator serves both paths: vector::insert takes one.
  [[nodiscard]] typename std::vector<entry>::const_iterator upper_bound(
      time_point t) const {
    return std::upper_bound(
        entries_.begin(), entries_.end(), t,
        [](time_point q, const entry& e) { return q < e.first; });
  }

  std::vector<entry> entries_;  // sorted by date
};

}  // namespace hades::util
