// Watermark-based event-time merge of the feed rings.
//
// The batch pipeline assumes a finished, timestamp-ordered corpus. A live
// tap gives neither: the BGP and flow feeds progress independently, and
// records inside one feed can arrive slightly out of order (collector
// jitter, export batching). The WatermarkMux restores the monitor's
// ordering contract without unbounded buffering:
//
//   - every producer publishes a *watermark* alongside its ring: the
//     largest event time it has pushed, minus a configured out-of-orderness
//     allowance L. By publishing time T the producer promises "no future
//     event of this feed is earlier than T".
//   - the consumer drains all rings into a reorder heap and releases, in
//     (time, kind, seq) order, exactly the events strictly older than the
//     minimum watermark over the still-open feeds. Closed-and-drained
//     feeds stop gating.
//   - a record that arrives later than its feed's promise (more than L
//     behind the feed maximum) would have to be emitted behind an event
//     already released; it is dropped and counted as stream.late_dropped —
//     admitted or counted, never silently reordered.
//
// The heap is bounded by `max_buffer`: at the cap, drain_feeds refuses to
// pop from any feed other than the gating one, so the racing feeds' rings
// fill and their producers feel backpressure instead of the heap growing.
// Only when the gating feed itself overruns the cap (open but dead
// producer) is the oldest event force-released and counted
// (stream.forced_release) — memory stays bounded even against a
// pathological producer, and the violation is loud.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "stream/event.hpp"
#include "stream/ring.hpp"

namespace bw::stream {

/// One feed: an SPSC ring plus the producer's published progress. The
/// producer owns push/watermark/close; the consumer only pops and reads.
struct FeedRing {
  FeedRing(std::size_t capacity, util::DurationMs allowance_ms)
      : ring(capacity), allowance(allowance_ms) {}

  SpscRing<StreamEvent> ring;
  /// Bounded out-of-orderness of this feed: no event is earlier than the
  /// feed's maximum time so far minus this. Immutable after construction.
  const util::DurationMs allowance;
  /// Largest pushed event time minus the allowance; kMinTime until the
  /// first push. Monotone non-decreasing. Published out-of-band, so the
  /// consumer must clamp it by the oldest undrained ring event (see
  /// WatermarkMux::release_threshold) — a raw side-channel watermark would
  /// overtake the records still buffered in the ring.
  std::atomic<util::TimeMs> watermark{std::numeric_limits<util::TimeMs>::min()};
  /// Set (release order) after the last push; the consumer treats a closed
  /// feed with an empty ring as infinitely far ahead.
  std::atomic<bool> closed{false};

  /// Producer-side watermark publication. Sound call orders: per event,
  /// advance(t) just before pushing the event of time t (the promise then
  /// covers exactly the event in flight, which cannot be below its own
  /// mark); per batch, advance(batch max) only *after* the whole batch has
  /// landed in the ring — publishing the batch max first would let the
  /// consumer, with nothing buffered to clamp against, release past the
  /// batch's earlier events and later drop them as late.
  void advance_watermark(util::TimeMs t) {
    const util::TimeMs mark =
        t > std::numeric_limits<util::TimeMs>::min() + allowance
            ? t - allowance
            : std::numeric_limits<util::TimeMs>::min();
    if (mark > watermark.load(std::memory_order_relaxed)) {
      watermark.store(mark, std::memory_order_release);
    }
  }
  void close() { closed.store(true, std::memory_order_release); }
};

struct MuxStats {
  std::uint64_t released{0};
  std::uint64_t late_dropped{0};
  std::uint64_t forced_releases{0};
};

class WatermarkMux {
 public:
  /// `feeds` outlive the mux. `max_buffer` bounds the reorder heap.
  WatermarkMux(std::vector<FeedRing*> feeds, std::size_t max_buffer);

  /// Pop up to `budget` events from the feed rings into the reorder heap,
  /// lowest-watermark (gating) feed first. Returns the number popped.
  std::size_t drain_feeds(std::size_t budget);

  /// True when every feed is closed, every ring drained, and the heap is
  /// empty — the stream is finished.
  [[nodiscard]] bool exhausted() const;

  /// Deliver every ready event (strictly older than the release threshold,
  /// or all of them once every feed is closed and drained) to `fn`, in
  /// (time, kind, seq) order. Returns the number delivered.
  ///
  /// The threshold is cached across the release loop (cheap hot path) but
  /// re-read before giving up: a gating feed closed *during* this call —
  /// the session supervisor declaring a dead feed, or a delivery callback
  /// closing its own feed — must release the heap immediately, not on
  /// whichever later call happens to re-enter. Without the refresh a dead
  /// gating feed leaves ready events stranded until new traffic arrives on
  /// another feed, which in live mode may be never.
  template <typename Fn>
  std::size_t release_ready(Fn&& fn) {
    util::TimeMs threshold = release_threshold();
    std::size_t n = 0;
    while (!heap_.empty()) {
      if (heap_.top().time < threshold || feeds_spent()) {
        deliver(fn);
        ++n;
        continue;
      }
      const util::TimeMs fresh = release_threshold();
      if (fresh == threshold) break;  // genuinely not ready
      threshold = fresh;
    }
    // Bounded memory against a stalled-but-open gating feed: force the
    // oldest events out rather than growing without limit.
    while (heap_.size() > max_buffer_) {
      deliver(fn);
      ++stats_.forced_releases;
      note_forced_release();
      ++n;
    }
    return n;
  }

  /// Fused drain+release fast path: deliver ready events straight out of
  /// the ring slots, bypassing the reorder heap. Each round picks the
  /// globally smallest candidate in (time, kind, seq) order among the feed
  /// fronts and the heap top, and delivers it when it is strictly below
  /// the release threshold (or unconditionally once every feed is spent).
  ///
  /// Zero-allowance contract: a ring front is its feed's earliest event
  /// only when the feed promises time order, i.e. its allowance is 0. With
  /// an allowance L > 0 an event up to L behind the front may still sit
  /// deeper in the ring, and delivering the front first would late-drop
  /// it. So pump delivers nothing while any open feed has a nonzero
  /// allowance; drain_feeds/release_ready reorder those feeds in the heap.
  ///
  /// The threshold here is the minimum *published* watermark over open
  /// feeds, the producer's forward promise, rather than release_ready's
  /// front-clamped variant, because the clamped mark can never admit the
  /// clamping front itself. With zero allowances, delivering front f under
  /// f.time < published mark is sound against every event not yet pushed
  /// (the promise covers them) and against everything buffered (f is the
  /// global minimum of fronts and heap). The one behavioural difference
  /// from the drain+release pair: an event that *breaks* its feed's
  /// promise (earlier than an event before it) and still sits deeper in
  /// the ring is late-dropped on arrival instead of possibly being
  /// reordered via the heap. Both outcomes are counted, never silent.
  ///
  /// Events the pump cannot deliver stay in their rings; callers that need
  /// heap buffering (backpressure absorption for a racing feed, forced
  /// release, bounded drain budgets) still use drain_feeds/release_ready —
  /// the pump composes with them, always honouring the heap top as a
  /// candidate. Returns the number delivered.
  template <typename Fn>
  std::size_t pump(Fn&& fn) {
    std::size_t n = 0;
    for (;;) {
      util::TimeMs threshold = std::numeric_limits<util::TimeMs>::max();
      bool spent = true;
      const StreamEvent* best = nullptr;
      FeedRing* best_feed = nullptr;
      for (FeedRing* feed : feeds_) {
        const StreamEvent* front = feed->ring.front();
        if (front == nullptr &&
            feed->closed.load(std::memory_order_acquire)) {
          continue;  // can never produce again; stops gating
        }
        if (feed->allowance != 0) return n;  // ring order != time order
        spent = false;
        threshold = std::min(
            threshold, feed->watermark.load(std::memory_order_acquire));
        if (front != nullptr &&
            (best == nullptr || front->before(*best))) {
          best = front;
          best_feed = feed;
        }
      }
      if (!heap_.empty() &&
          (best == nullptr || heap_.top().before(*best))) {
        if (heap_.top().time >= threshold && !spent) break;
        deliver(fn);
        ++n;
        continue;
      }
      if (best == nullptr) break;
      if (best->time >= threshold && !spent) break;
      if (best->time < released_floor_) {
        ++stats_.late_dropped;
        note_late_drop();
        best_feed->ring.discard_front();
        continue;
      }
      released_floor_ = best->time;
      ++stats_.released;
      fn(*best);
      best_feed->ring.discard_front();
      ++n;
    }
    return n;
  }

  [[nodiscard]] const MuxStats& stats() const noexcept { return stats_; }

  /// min over open feeds of the *effective* watermark: the published one,
  /// clamped so it never passes the oldest event still sitting undrained
  /// in the feed's ring (in-band semantics — a watermark must not overtake
  /// buffered records). Closed+drained feeds are excluded; kMaxTime when
  /// nothing gates.
  [[nodiscard]] util::TimeMs release_threshold();

 private:
  struct After {
    bool operator()(const StreamEvent& a, const StreamEvent& b) const {
      return b.before(a);  // min-heap on the delivery order
    }
  };

  /// True when no feed can produce again: all closed with drained rings.
  [[nodiscard]] bool feeds_spent() const;
  void note_forced_release();
  void note_late_drop();

  template <typename Fn>
  void deliver(Fn&& fn) {
    // released_floor_ advances to the delivered time: anything arriving
    // behind it can no longer be emitted in order.
    released_floor_ = heap_.top().time;
    ++stats_.released;
    fn(heap_.top());
    heap_.pop();
  }

  std::vector<FeedRing*> feeds_;
  std::size_t max_buffer_;
  /// Reused landing zone for bulk ring pops. A member (not a drain-loop
  /// local) because StreamEvent is non-trivial (bgp::Update owns vectors):
  /// constructing a fresh batch per drain iteration would cost more than
  /// the cursor handshake the batching saves.
  std::vector<StreamEvent> drain_scratch_;
  std::priority_queue<StreamEvent, std::vector<StreamEvent>, After> heap_;
  util::TimeMs released_floor_{std::numeric_limits<util::TimeMs>::min()};
  MuxStats stats_;
};

}  // namespace bw::stream
