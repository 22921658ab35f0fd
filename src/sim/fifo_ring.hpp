// FIFO queue on a power-of-two ring.
//
// The one queue shape the simulator's per-component FIFOs share: the
// event loop's delay lines, FqCodel's packet queue and a QUIC
// connection's retransmit queue. It allocates nothing until the first
// push and then grows by doubling from one element, so its capacity
// follows the high-water backlog: an idle queue costs no heap and a
// shallow one a few bytes (a fleet builds thousands). Elements are small
// values copied in and out.
#pragma once

#include <cstddef>
#include <vector>

namespace quicsteps::sim {

template <class T>
class FifoRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  const T& front() const { return slots_[head_]; }
  const T& back() const { return slots_[(head_ + count_ - 1) & mask()]; }

  void push_back(const T& value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & mask()] = value;
    ++count_;
  }
  /// Queues `value` ahead of every queued element.
  void push_front(const T& value) {
    if (count_ == slots_.size()) grow();
    head_ = (head_ - 1) & mask();
    slots_[head_] = value;
    ++count_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask();
    --count_;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }
  void grow() {
    // Grow to the next power of two, unrolling the ring to start at 0.
    std::vector<T> grown(slots_.empty() ? 1 : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = slots_[(head_ + i) & mask()];
    }
    slots_.swap(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace quicsteps::sim
