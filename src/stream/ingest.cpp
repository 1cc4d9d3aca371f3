#include "stream/ingest.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "stream/incremental/rolling.hpp"
#include "util/parallel.hpp"

namespace bw::stream {

namespace {

/// Events staged per feed before a bulk ring push: one acquire/release
/// cursor handshake per batch instead of per event.
constexpr std::size_t kStageBatch = 64;

struct LaneMetrics {
  obs::Counter& batches;  ///< batches handed to rolling lanes
  obs::Counter& wait_us;  ///< consumer time blocked on a full ring
};

LaneMetrics& lane_metrics() {
  static LaneMetrics m{
      obs::Registry::global().counter("stream.rolling.lane_batches"),
      obs::Registry::global().counter("stream.rolling.lane_wait_us")};
  return m;
}

}  // namespace

Feed::Feed(const IngestOptions& options)
    : FeedRing(options.ring_capacity, options.allowance),
      shedder_(ShedConfig{options.shed_mode, options.shed_sink}),
      deadline_us_(options.shed_mode == ShedMode::kBlockWithDeadline
                       ? static_cast<std::uint64_t>(options.block_deadline) *
                             1000
                       : 0) {}

void Feed::count_produced(EventKind kind) {
  static obs::Counter& bgp =
      obs::Registry::global().counter("stream.ingested_bgp");
  static obs::Counter& flow =
      obs::Registry::global().counter("stream.ingested_flow");
  (kind == EventKind::kBgpUpdate ? bgp : flow).add();
}

void Feed::push(StreamEvent&& ev, const Shedder::MakeRoom& make_room) {
  waiting_ = false;
  advance_watermark(ev.time);
  shedder_.offer(ring, std::move(ev), make_room);
}

void Feed::stage(StreamEvent&& ev, const Shedder::MakeRoom& make_room) {
  staged_.push_back(std::move(ev));
  if (staged_.size() >= kStageBatch) flush(make_room);
}

void Feed::flush(const Shedder::MakeRoom& make_room) {
  if (staged_.empty()) return;
  waiting_ = false;
  util::TimeMs max_t = staged_.front().time;
  for (const StreamEvent& ev : staged_) max_t = std::max(max_t, ev.time);
  for (std::size_t done = ring.try_push_bulk(staged_.data(), staged_.size());
       done < staged_.size(); ++done) {
    shedder_.offer(ring, std::move(staged_[done]), make_room);
  }
  advance_watermark(max_t);
  staged_.clear();
}

Shedder::MakeRoom Feed::wait_for_room(const std::atomic<bool>& abort) {
  return [this, &abort] {
    if (abort.load(std::memory_order_relaxed)) return false;
    if (!waiting_) {
      waiting_ = true;
      wait_.restart();
    } else if (deadline_us_ != 0 && wait_.elapsed_us() > deadline_us_) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return true;
  };
}

/// The two rolling lanes behind a Deliverer: one ring of kLaneSlots
/// batches that both read. The consumer fills slot tail_; lane 0 feeds the
/// drop half of the kernels and lane 1 the commit half, each from the
/// full_[i] slots at head_[i] on, and a slot is refilled only once both
/// have released it. A slot changes hands only under mu_, which orders its
/// contents.
class RollingLane {
 public:
  explicit RollingLane(incremental::RollingReporter& rolling)
      : rolling_(rolling) {
    try {
      for (std::size_t i = 0; i < kLanes; ++i) {
        threads_[i] = std::thread([this, i] { run(i); });
      }
    } catch (...) {
      close(/*flush=*/false);  // join the lane already started
      throw;
    }
  }
  ~RollingLane() { close(/*flush=*/false); }

  void push(const StreamEvent& ev) {
    std::vector<StreamEvent>& batch = slots_[tail_];
    batch.push_back(ev);
    if (batch.size() == kLaneBatch) hand_over();
  }

  /// The consumer's side of Deliverer::join: the partial batch goes too.
  void join() {
    if (!slots_[tail_].empty()) lane_metrics().batches.add();
    close(/*flush=*/true);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  /// Events per batch and batches in flight: ~1.1 MB of 136-byte copies,
  /// so the lanes ride out a snapshot while the consumer goes on.
  static constexpr std::size_t kLaneBatch = 2048;
  static constexpr std::size_t kLaneSlots = 4;
  static constexpr std::size_t kLanes = 2;

  /// Some lane still holds every slot, the consumer's next one included.
  [[nodiscard]] bool ring_full() const {
    return std::find(full_.begin(), full_.end(), kLaneSlots) != full_.end();
  }

  /// Give slot tail_ to the lanes and move on to the next one, waiting
  /// while a lane still holds it.
  void hand_over() {
    lane_metrics().batches.add();
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t& full : full_) ++full;
    ready_.notify_all();
    tail_ = (tail_ + 1) % kLaneSlots;
    if (ring_full() && !error_) {
      const obs::StopWatch watch;
      room_.wait(lock, [this] { return !ring_full() || error_; });
      lane_metrics().wait_us.add(watch.elapsed_us());
    }
    if (error_) std::rethrow_exception(error_);
    lock.unlock();
    slots_[tail_].clear();  // every lane has released it
  }

  void run(std::size_t lane) {
    using Half = incremental::RollingReporter::Half;
    const Half half = lane == 0 ? Half::kDrop : Half::kCommit;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      ready_.wait(lock, [&] { return full_[lane] > 0 || closed_ || error_; });
      // A failed lane stops the others: the consumer rethrows its error.
      if (full_[lane] == 0 || discard_ || error_) return;
      const std::vector<StreamEvent>& batch = slots_[head_[lane]];
      lock.unlock();
      try {
        for (const StreamEvent& ev : batch) rolling_.on_event(half, ev);
      } catch (...) {
        lock.lock();
        if (!error_) error_ = std::current_exception();
        room_.notify_one();
        ready_.notify_all();
        return;
      }
      lock.lock();
      head_[lane] = (head_[lane] + 1) % kLaneSlots;
      --full_[lane];
      room_.notify_one();
    }
  }

  /// End the lane threads. With `flush` they first feed every batch they
  /// hold plus the consumer's partial one; without, they stop before
  /// their next batch.
  void close(bool flush) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      // The consumer's slot is no lane's, so this stays in bounds.
      if (flush && !slots_[tail_].empty()) {
        for (std::size_t& full : full_) ++full;
      }
      closed_ = true;
      discard_ = !flush;
    }
    ready_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  incremental::RollingReporter& rolling_;
  std::array<std::vector<StreamEvent>, kLaneSlots> slots_;
  std::size_t tail_{0};  ///< consumer-owned
  std::mutex mu_;
  std::condition_variable ready_;  ///< lanes wait for a full batch
  std::condition_variable room_;   ///< the consumer waits for a free slot
  std::array<std::size_t, kLanes> full_{};  ///< per lane: batches held
  std::array<std::size_t, kLanes> head_{};  ///< per lane: its next slot
  bool closed_{false};
  bool discard_{false};
  std::exception_ptr error_;
  std::array<std::thread, kLanes> threads_;
};

Deliverer::Deliverer(core::RtbhMonitor& monitor,
                     incremental::RollingReporter* rolling,
                     std::uint64_t delay_us)
    : monitor_(monitor), rolling_(rolling), delay_us_(delay_us) {
  if (rolling == nullptr) return;
  (void)lane_metrics();  // a run with rolling kernels reports both, 0 inline
  if (util::ThreadPool::configured_concurrency() >= 2) {
    lane_ = std::make_unique<RollingLane>(*rolling);
    rolling_ = nullptr;
  }
}

Deliverer::~Deliverer() = default;

void Deliverer::operator()(const StreamEvent& ev) {
  static obs::Counter& delivered =
      obs::Registry::global().counter("stream.delivered");
  delivered.add();
  last_time = ev.time;
  if (ev.kind == EventKind::kBgpUpdate) {
    ++delivered_bgp;
    monitor_.on_update(ev.update);
  } else {
    ++delivered_flow;
    monitor_.on_flow(ev.flow);
  }
  if (lane_) lane_->push(ev);
  if (rolling_ != nullptr) rolling_->on_event(ev);
  if (delay_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
  }
}

void Deliverer::join() {
  if (lane_) lane_->join();
}

bool consume_threaded(WatermarkMux& mux, Deliverer& deliver,
                      const std::vector<Producer>& producers,
                      util::DurationMs watchdog) {
  std::atomic<bool> abort{false};
  std::atomic<bool> producer_failed{false};
  std::atomic<std::size_t> returned{0};
  // failures[0] is the consumer's; failures[i + 1] producer i's, read
  // only after its thread is joined.
  std::vector<std::exception_ptr> failures(producers.size() + 1);
  std::vector<std::thread> threads;
  threads.reserve(producers.size());

  bool fired = false;
  const obs::StopWatch wall;
  try {
    for (std::size_t i = 0; i < producers.size(); ++i) {
      threads.emplace_back([&, i] {
        try {
          producers[i](abort);
        } catch (...) {
          failures[i + 1] = std::current_exception();
          producer_failed.store(true, std::memory_order_relaxed);
        }
        returned.fetch_add(1, std::memory_order_release);
      });
    }
    // exhausted() turns true exactly when every feed has closed and all
    // it held has been delivered.
    while (!mux.exhausted() &&
           !producer_failed.load(std::memory_order_relaxed)) {
      if (watchdog > 0 && !fired &&
          static_cast<util::DurationMs>(wall.elapsed_us() / 1000) >
              watchdog) {
        fired = true;
        abort.store(true, std::memory_order_relaxed);
      }
      // Ready events go monitor-ward straight from the ring slots; the
      // drain+release pair then takes what the pump could not (a racing
      // feed waiting on the gating one, a nonzero allowance) into the
      // heap, so producers keep their room.
      const std::size_t pumped = mux.pump(deliver);
      const std::size_t got = mux.drain_feeds(1024);
      const std::size_t released = mux.release_ready(deliver);
      if (pumped == 0 && got == 0 && released == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    // The rolling kernels see every delivered event before this returns;
    // a lane failure takes the abort path below like a delivery's.
    if (!producer_failed.load(std::memory_order_relaxed)) deliver.join();
  } catch (...) {
    failures[0] = std::current_exception();
  }
  if (failures[0] || producer_failed.load(std::memory_order_relaxed)) {
    abort.store(true, std::memory_order_relaxed);
    while (returned.load(std::memory_order_acquire) < threads.size()) {
      mux.drain_feeds(1024);
      mux.release_ready([](const StreamEvent&) {});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  return fired;
}

void Pacer::wait_until(util::TimeMs t, const std::atomic<bool>* abort) {
  if (speed_ <= 0) return;
  if (!t0_) t0_ = t;
  const auto target_us = static_cast<std::uint64_t>(
      static_cast<double>(t - *t0_) * 1000.0 / speed_);
  while (clock_.elapsed_us() < target_us &&
         (abort == nullptr || !abort->load(std::memory_order_relaxed))) {
    const std::uint64_t left = target_us - clock_.elapsed_us();
    std::this_thread::sleep_for(
        std::chrono::microseconds(left > 1000 ? 1000 : left));
  }
}

}  // namespace bw::stream
