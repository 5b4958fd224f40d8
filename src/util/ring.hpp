// Growable FIFO ring buffer.
//
// The simulated kernel's queues (interrupt bodies, net_mngt's outbound
// frames, the dispatcher -> scheduler notification FIFO) push at the back
// and pop at the front on every event. `std::deque` allocates and frees a
// block every few hundred elements as the window slides; this ring keeps a
// power-of-two slot array that only grows (doubling, elements moved in
// order), so once it has reached the run's high-water mark push and pop
// allocate nothing. A popped slot is reset to `T{}` so it releases what it
// held (payload refcounts, closure captures) immediately.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace hades::util {

template <typename T>
class ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T& front() { return slots_[head_]; }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(v);
    ++size_;
  }

  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hades::util
