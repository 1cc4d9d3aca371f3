// Bounded lock-free single-producer/single-consumer ring buffer — the
// ingest primitive of the streaming monitor (DESIGN.md §12).
//
// A live IXP tap produces two independent feeds (route-server BGP updates
// and sampled flow records), each written by exactly one exporter thread
// and drained by exactly one consumer. That pairing is the cheapest
// possible concurrency contract: one atomic store per push, one per pop,
// no CAS loops, no locks, no allocation after construction. The streaming
// daemon gives each feed its own SpscRing and merges on the consumer side
// (stream/watermark.hpp), so the multi-producer case never needs a
// multi-producer queue.
//
// Layout notes:
//   - capacity is rounded up to a power of two so the slot index is a mask,
//     and head/tail are free-running counters (never wrapped), so the full
//     2^64 sequence space distinguishes full from empty without a spare
//     slot;
//   - head (consumer cursor) and tail (producer cursor) live on their own
//     cache lines, each next to the *opposing* cursor's cached copy: the
//     producer re-reads the consumer's head only when the ring looks full,
//     the consumer re-reads tail only when it looks empty. In steady state
//     both sides run on line-local data and never bounce a cache line.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace bw::stream {

/// Smallest power of two >= n (n = 0 maps to 1); 0 when no size_t power
/// of two is that large (n above 2^63 on 64-bit).
[[nodiscard]] constexpr std::size_t ceil_pow2(std::size_t n) noexcept {
  constexpr std::size_t kTop = ~(~std::size_t{0} >> 1);
  if (n > kTop) return 0;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two; a capacity of 1 is legal
  /// (a single-slot handoff cell) and exercised by the edge-case tests.
  /// Throws std::length_error above 2^63, which no power of two covers.
  explicit SpscRing(std::size_t capacity)
      : mask_(checked_mask(capacity)), slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false when the ring is full (the element is
  /// left untouched so the caller's shedding policy can decide its fate).
  [[nodiscard]] bool try_push(T& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  [[nodiscard]] bool try_push(T&& v) { return try_push(v); }

  /// Producer side, batched: push up to `n` elements from `in` with a
  /// single acquire load and a single release store — the mirror of
  /// try_pop_bulk. The transport decode path lands whole decoded frames
  /// batches at a time, so amortizing the cursor handshake there matters
  /// exactly as it did in the replay drain. Elements actually pushed are
  /// moved from; the rest are left untouched for the caller's shedding
  /// policy. Returns the number pushed (0 when the ring is full).
  [[nodiscard]] std::size_t try_push_bulk(T* in, std::size_t n) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t room = capacity() - (tail - head_cache_);
    if (room < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      room = capacity() - (tail - head_cache_);
      if (room == 0) return 0;
    }
    const std::size_t m = std::min(room, n);
    for (std::size_t i = 0; i < m; ++i) {
      slots_[(tail + i) & mask_] = std::move(in[i]);
    }
    tail_.store(tail + m, std::memory_order_release);
    return m;
  }

  /// Consumer side: peek at the oldest element without popping it (null
  /// when empty). The slot stays valid until the consumer pops — only the
  /// consumer moves head, so this is race-free on the consumer thread.
  [[nodiscard]] const T* front() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return nullptr;
    }
    return &slots_[head & mask_];
  }

  /// Consumer side: drop the oldest element after a front() peek. The mux
  /// pump delivers straight out of the ring slot, so the pop must not move
  /// the element a second time. The slot's payload is left in place and
  /// reclaimed when the producer overwrites it — destructor work stays off
  /// the delivery path and the retained memory is bounded by the ring.
  /// Precondition: front() returned non-null on this (consumer) thread.
  void discard_front() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    head_.store(head + 1, std::memory_order_release);
  }

  /// Consumer side. Returns false when the ring is empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, batched: pop up to `max_n` elements into `out` with a
  /// single acquire load and a single release store. Amortizing the cursor
  /// traffic matters in the replay drain loop, where per-event try_pop made
  /// the head/tail lines the hottest contended state in the process.
  /// Returns the number of elements written (0 when empty).
  [[nodiscard]] std::size_t try_pop_bulk(T* out, std::size_t max_n) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = tail_cache_ - head;
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t n = std::min(avail, max_n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Occupancy snapshot. Exact when callers are quiescent; during
  /// concurrent operation it may lag either cursor by one update — good
  /// enough for the stream.queue_depth gauge, never for flow control.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  static std::size_t checked_mask(std::size_t capacity) {
    const std::size_t slots = ceil_pow2(capacity);
    if (slots == 0) throw std::length_error("SpscRing: capacity above 2^63");
    return slots - 1;
  }

  std::size_t mask_;
  std::vector<T> slots_;
  /// Consumer cache line: its own cursor plus the last tail it observed.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_{0};
  /// Producer cache line: its own cursor plus the last head it observed.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_{0};
};

}  // namespace bw::stream
