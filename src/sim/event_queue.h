#pragma once
/// \file event_queue.h
/// Deterministic min-priority queue. Ties on the key are broken by the
/// insertion sequence number, so identical runs pop events in an identical
/// order — the property all replay/trace tests rely on.

#include <cstdint>
#include <queue>
#include <vector>

namespace mpipe::sim {

template <typename Payload>
class EventQueue {
 public:
  void push(double key, Payload payload) {
    heap_.push(Entry{key, seq_++, std::move(payload)});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  const Payload& top() const { return heap_.top().payload; }

  Payload pop() {
    Payload p = heap_.top().payload;
    heap_.pop();
    return p;
  }

 private:
  struct Entry {
    double key;
    std::uint64_t seq;
    Payload payload;

    bool operator>(const Entry& other) const {
      if (key != other.key) return key > other.key;
      return seq > other.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace mpipe::sim
