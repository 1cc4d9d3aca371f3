#include "stream/replay.hpp"

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "obs/trace.hpp"

namespace bw::stream {

namespace {

ReplayStats collect(const Feed& updates, const Feed& flows,
                    const WatermarkMux& mux, const Deliverer& deliver) {
  ReplayStats stats;
  stats.shed = updates.shed_stats();
  stats.shed += flows.shed_stats();
  stats.mux = mux.stats();
  stats.produced_bgp = updates.produced();
  stats.produced_flow = flows.produced();
  stats.delivered_bgp = deliver.delivered_bgp;
  stats.delivered_flow = deliver.delivered_flow;
  return stats;
}

// --------------------------------------------------------------------------
// Lockstep mode: one ingest thread, deterministic interleave.
//
// The producer walks both logs in the batch merge order and, every
// `tick_events` pushes, hands the consumer a drain step of at most
// `drain_per_tick` ring pops (unbounded when no fault is armed). make_room
// force-drains one event past that budget — the deterministic analogue of
// "the consumer is pre-empted for control-plane traffic" — so kPriorityShed
// keeps its never-shed-BGP promise even against a slow-consumer fault.
// Everything is a plain function of (corpus, options): same inputs, same
// alerts, same shed log, byte for byte.
// --------------------------------------------------------------------------

ReplayStats run_lockstep(const core::Dataset& dataset,
                         core::RtbhMonitor& monitor,
                         const ReplayOptions& opt) {
  Feed updates(opt);
  Feed flows(opt);
  WatermarkMux mux({&updates, &flows}, opt.max_reorder);
  Deliverer deliver(monitor, opt.rolling);

  const bool slow = opt.fault.tick_events > 0;
  const std::size_t tick = slow ? opt.fault.tick_events : 1;
  const std::size_t budget =
      slow ? opt.fault.drain_per_tick : std::numeric_limits<std::size_t>::max();
  // No-fault ticks deliver straight out of the ring slots: same order, no
  // heap traffic. The fault path's bounded drain budgets need the heap,
  // and so does a nonzero allowance (WatermarkMux::pump).
  const bool pump = !slow && opt.allowance == 0;
  const Shedder::MakeRoom force_drain = [&] { return mux.drain_feeds(1) > 0; };

  const std::size_t n_updates = dataset.blackhole_updates().size();
  const std::size_t n_flows = dataset.flows().size();
  // An empty feed must not gate releases with its never-advanced watermark.
  if (n_updates == 0) updates.close();
  if (n_flows == 0) flows.close();
  std::size_t since_tick = 0;
  const auto step = [&](Feed& feed, const auto& rec, std::size_t total) {
    feed.push(feed.stamp(rec), force_drain);
    if (feed.produced() == total) feed.close();
    if (++since_tick < tick) return true;
    since_tick = 0;
    if (pump) {
      mux.pump(deliver);
    } else {
      mux.drain_feeds(budget);
      mux.release_ready(deliver);
    }
    return true;
  };
  for_each_in_merge_order(
      dataset,
      [&](const bgp::Update& u) { return step(updates, u, n_updates); },
      [&](const flow::FlowRecord& f) { return step(flows, f, n_flows); });
  while (!mux.exhausted()) {
    mux.pump(deliver);
    mux.drain_feeds(std::numeric_limits<std::size_t>::max());
    mux.release_ready(deliver);
  }
  deliver.join();
  return collect(updates, flows, mux, deliver);
}

// --------------------------------------------------------------------------
// Threaded mode: one producer thread per feed, the shared threaded consumer
// on the calling thread, with optional real-time pacing and wall-clock
// faults. The consumer cannot exit before both feeds close, and a
// producer waiting for room only waits on that same still-running
// consumer, so the only unbounded wait (kPriorityShed protecting BGP) is
// always serviced.
// --------------------------------------------------------------------------

template <typename Log>
void produce(const Log& log, Feed& feed, const ReplayOptions& opt,
             const std::atomic<bool>& abort) {
  const Shedder::MakeRoom make_room = feed.wait_for_room(abort);
  Pacer pacer(opt.speed);
  std::size_t in_burst = 0;
  for (const auto& rec : log) {
    if (abort.load(std::memory_order_relaxed)) break;
    pacer.wait_until(rec.time, &abort);
    if (opt.fault.burst > 0 && ++in_burst > opt.fault.burst) {
      in_burst = 1;
      std::this_thread::sleep_for(
          std::chrono::microseconds(opt.fault.burst_pause_us));
    }
    feed.push(feed.stamp(rec), make_room);
  }
  feed.close();
}

ReplayStats run_threaded(const core::Dataset& dataset,
                         core::RtbhMonitor& monitor,
                         const ReplayOptions& opt) {
  Feed updates(opt);
  Feed flows(opt);
  WatermarkMux mux({&updates, &flows}, opt.max_reorder);
  Deliverer deliver(monitor, opt.rolling, opt.fault.consumer_delay_us);
  consume_threaded(
      mux, deliver,
      {[&](const std::atomic<bool>& abort) {
         produce(dataset.blackhole_updates(), updates, opt, abort);
       },
       [&](const std::atomic<bool>& abort) {
         produce(dataset.flows(), flows, opt, abort);
       }},
      0);
  return collect(updates, flows, mux, deliver);
}

}  // namespace

ReplayStats replay_streaming(const core::Dataset& dataset,
                             core::RtbhMonitor& monitor,
                             const ReplayOptions& options) {
  const obs::TraceSpan span("stream.replay", "stream");
  ReplayStats stats = options.lockstep
                          ? run_lockstep(dataset, monitor, options)
                          : run_threaded(dataset, monitor, options);
  monitor.finish(dataset.period().end);
  return stats;
}

void replay_batch(const core::Dataset& dataset, core::RtbhMonitor& monitor) {
  const obs::TraceSpan span("monitor.replay", "monitor");
  for_each_in_merge_order(
      dataset,
      [&](const bgp::Update& u) {
        monitor.on_update(u);
        return true;
      },
      [&](const flow::FlowRecord& f) {
        monitor.on_flow(f);
        return true;
      });
  monitor.finish(dataset.period().end);
}

}  // namespace bw::stream
