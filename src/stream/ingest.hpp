// The ingest core shared by corpus replay (stream/replay.hpp) and live
// sessions (stream/transport/session.hpp): one set of ring/shed/reorder
// knobs, one feed producer (Feed), one deliverer, one threaded consume
// loop, and the batch merge order and pacing of a corpus. Replay and live
// differ only in where the records come from, so a no-shed replay, a
// fault-free live session and the batch merge feed the monitor one event
// sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/dataset.hpp"
#include "core/monitor.hpp"
#include "obs/metrics.hpp"
#include "stream/shedding.hpp"
#include "stream/watermark.hpp"
#include "util/time.hpp"

namespace bw::stream {

namespace incremental {
class RollingReporter;
}

/// The ingest knobs every mode shares.
struct IngestOptions {
  /// Per-feed ring capacity (rounded up to a power of two).
  std::size_t ring_capacity{8192};
  /// Out-of-orderness allowance subtracted from each feed's watermark.
  util::DurationMs allowance{0};
  ShedMode shed_mode{ShedMode::kBlockWithDeadline};
  /// kBlockWithDeadline, threaded producers: how long one push waits for
  /// ring room before shedding anyway.
  util::DurationMs block_deadline{5 * util::kSecond};
  /// Reorder-heap bound of the watermark mux.
  std::size_t max_reorder{1 << 16};
  /// Ground-truth shed log; called once per shed decision, from the
  /// producer's thread.
  std::function<void(const ShedRecord&)> shed_sink;
};

/// One producer side of the core: the FeedRing the mux reads, plus what
/// the producer keeps (shedding gate, FIFO seq, produced count). The
/// producer thread owns every member but the ring's consumer half.
class Feed : public FeedRing {
 public:
  explicit Feed(const IngestOptions& options);

  /// The next event of this feed: assigns its FIFO seq and counts it
  /// produced (also in stream.ingested_bgp / stream.ingested_flow).
  template <typename Record>
  [[nodiscard]] StreamEvent stamp(const Record& rec) {
    StreamEvent ev = StreamEvent::from(rec, produced_++);
    count_produced(ev.kind);
    return ev;
  }

  /// Per-event push: publish ev.time, then offer ev to the shedder.
  void push(StreamEvent&& ev, const Shedder::MakeRoom& make_room);

  /// Batched push: stage ev; every 64 staged events land with one bulk
  /// ring push (flush).
  void stage(StreamEvent&& ev, const Shedder::MakeRoom& make_room);
  /// Land the staged events: one bulk push, the shedder for what did not
  /// fit, and only then publish their maximum time (see
  /// FeedRing::advance_watermark).
  void flush(const Shedder::MakeRoom& make_room);

  /// The threaded producers' make-room policy: poll for room every 50 us
  /// until `abort` is raised or, under kBlockWithDeadline, block_deadline
  /// has passed since the current push first found the ring full. Other
  /// modes wait without a deadline: the consumer stays alive until this
  /// feed closes. The functor refers to this feed and to `abort`.
  [[nodiscard]] Shedder::MakeRoom wait_for_room(
      const std::atomic<bool>& abort);

  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }
  [[nodiscard]] const ShedStats& shed_stats() const noexcept {
    return shedder_.stats();
  }

 private:
  static void count_produced(EventKind kind);

  Shedder shedder_;
  std::vector<StreamEvent> staged_;
  std::uint64_t deadline_us_;  ///< 0 = wait without a deadline
  std::uint64_t produced_{0};
  bool waiting_{false};  ///< the current push has found the ring full
  obs::StopWatch wait_;
};

class RollingLane;

/// Consumer-side delivery: the monitor first, then the rolling kernels,
/// with per-kind accounting. Owned by the consumer thread; read its
/// counters only after join().
///
/// The rolling kernels run on two lane threads of their own when a
/// reporter is given and util::ThreadPool::configured_concurrency() >= 2.
/// The consumer then delivers each event to the monitor inline and copies
/// it into a batch; every full batch goes to both lanes, which feed the
/// drop and the commit half of the kernels in delivery order. A few
/// batches may be in flight; a consumer whose next slot some lane
/// still holds waits (stream.rolling.lane_wait_us), so no lane sheds or
/// reorders. A replay then costs about max(mux + monitor, slower half)
/// instead of their sum. At BW_THREADS=1 the consumer calls on_event
/// inline.
class Deliverer {
 public:
  /// `rolling`: the incremental kernels, fed every delivered event after
  /// the monitor saw it; the owner calls finish() on it after join().
  /// `delay_us`: slow-consumer fault, a sleep after every delivery.
  explicit Deliverer(core::RtbhMonitor& monitor,
                     incremental::RollingReporter* rolling = nullptr,
                     std::uint64_t delay_us = 0);
  /// Stops lanes that join() did not, dropping what they had not fed.
  ~Deliverer();
  Deliverer(const Deliverer&) = delete;
  Deliverer& operator=(const Deliverer&) = delete;

  /// Deliver one event. A batch hand-over rethrows an exception a lane
  /// has raised.
  void operator()(const StreamEvent& ev);

  /// Hand the lanes the last partial batch and wait until they have fed
  /// every event, so the reporter has seen the whole delivered stream.
  /// Rethrows a lane's exception. A no-op without lanes.
  void join();

  std::uint64_t delivered_bgp{0};
  std::uint64_t delivered_flow{0};
  util::TimeMs last_time{std::numeric_limits<util::TimeMs>::min()};

 private:
  core::RtbhMonitor& monitor_;
  incremental::RollingReporter* rolling_;  ///< fed inline; null with lanes
  std::uint64_t delay_us_;
  std::unique_ptr<RollingLane> lane_;
};

/// One producer thread's body; it must close its feeds before returning.
using Producer = std::function<void(const std::atomic<bool>& abort)>;

/// The threaded consumer: one thread per producer, this thread pumping the
/// mux, then draining and releasing, until every feed is spent, and then
/// joining `deliver` (Deliverer::join). A watchdog > 0 ms raises the
/// producers' abort flag once that much wall time has passed; the loop
/// then still delivers what the closing feeds hold. An exception, from a
/// delivery, a rolling lane or a producer, raises abort, drains the
/// rings without delivering until every producer has returned (none stays
/// blocked on a full ring), joins, and rethrows the first (consumer before
/// producers). Returns true when the watchdog fired.
bool consume_threaded(WatermarkMux& mux, Deliverer& deliver,
                      const std::vector<Producer>& producers,
                      util::DurationMs watchdog);

/// Visit both logs of `dataset` in the batch merge order: time ascending,
/// the update first at equal times. Each visitor returns false to stop;
/// returns false when a visitor stopped the walk.
template <typename OnUpdate, typename OnFlow>
bool for_each_in_merge_order(const core::Dataset& dataset,
                             OnUpdate&& on_update, OnFlow&& on_flow) {
  const auto& updates = dataset.blackhole_updates();
  const flow::TimeOrderView flows = dataset.flows();
  std::size_t ui = 0;
  std::size_t fi = 0;
  while (ui < updates.size() || fi < flows.size()) {
    const bool take_update =
        fi >= flows.size() ||
        (ui < updates.size() && updates[ui].time <= flows.time(fi));
    if (!(take_update ? on_update(updates[ui++]) : on_flow(flows[fi++]))) {
      return false;
    }
  }
  return true;
}

/// Wall-clock pacing against event time: the first event time asked for
/// is due at construction, a later t (t - first) / speed ms after it.
/// speed <= 0 never waits.
class Pacer {
 public:
  explicit Pacer(double speed) : speed_(speed) {}

  /// Sleep until `t` is due, or until `abort` (when given) is raised.
  void wait_until(util::TimeMs t, const std::atomic<bool>* abort = nullptr);

 private:
  double speed_;
  std::optional<util::TimeMs> t0_;
  obs::StopWatch clock_;
};

}  // namespace bw::stream
