#include "stream/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "stream/incremental/rolling.hpp"

namespace bw::stream {

namespace {

/// Events staged per feed before a bulk ring push: one acquire/release
/// cursor handshake per batch instead of per event.
constexpr std::size_t kStageBatch = 64;

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

void Deliverer::operator()(const StreamEvent& ev) {
  static obs::Counter& delivered =
      obs::Registry::global().counter("stream.delivered");
  delivered.add();
  last_time = ev.time;
  if (ev.kind == EventKind::kBgpUpdate) {
    ++delivered_bgp;
    monitor.on_update(ev.update);
  } else {
    ++delivered_flow;
    monitor.on_flow(ev.flow);
  }
  if (rolling != nullptr) rolling->on_event(ev);
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
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
