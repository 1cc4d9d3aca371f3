// Streaming replay: push a finished corpus through the full live-ingest
// path — per-feed SPSC rings, shedding policy, watermark merge — into the
// RtbhMonitor, exactly as a route-server tap and an IPFIX exporter would.
//
// Two execution modes:
//
//   lockstep   one ingest thread interleaves producing and consuming on
//              a fixed schedule (per `tick_events` pushed, the consumer
//              pops at most `drain_per_tick` ring events); rolling kernels
//              may run on the Deliverer's lanes. Fully deterministic:
//              the same corpus, options, and fault plan give byte-identical
//              alerts and exact shed counts. This is what the convergence
//              proof and the overload CI job run.
//   threaded   one producer thread per feed plus a consumer thread, with
//              optional real-time pacing (`speed`) and wall-clock faults.
//              This is the daemon shape; the TSan job runs it to prove the
//              rings under real concurrency.
//
// Both modes run the shared ingest core (stream/ingest.hpp). Convergence
// guarantee: with no shedding the monitor receives the events in (time,
// kind, seq) order, identical to the batch merge in replay_batch, so the
// alert sequence is byte-for-byte the same. Under forced shedding the run
// still exits cleanly, every dropped event is counted (stream.shed_*,
// stream.late_dropped), and produced == delivered + shed + late holds
// exactly.
#pragma once

#include <cstdint>

#include "core/dataset.hpp"
#include "core/monitor.hpp"
#include "stream/ingest.hpp"
#include "testing/fault.hpp"

namespace bw::stream {

/// The shared ingest knobs plus what only a corpus replay has.
struct ReplayOptions : IngestOptions {
  /// Threaded mode: corpus-time to wall-clock ratio (2.0 = twice real
  /// time); 0 = as fast as possible.
  double speed{0.0};
  /// Single-thread deterministic interleave instead of real threads.
  bool lockstep{false};
  /// Forced-overload fault (slow consumer / bursty producer); inert when
  /// `fault.any()` is false.
  testing::StreamFaultPlan fault;
  /// Rolling incremental kernels: every delivered event is fed after the
  /// monitor saw it, in the same order (on the Deliverer's rolling lanes
  /// when there are any; replay_streaming joins them before returning). The
  /// replay does NOT call finish() on it — the owner does, so
  /// output-write errors surface at the call site.
  incremental::RollingReporter* rolling{nullptr};
};

struct ReplayStats {
  ShedStats shed;  ///< summed over both feeds
  MuxStats mux;
  std::uint64_t produced_bgp{0};
  std::uint64_t produced_flow{0};
  std::uint64_t delivered_bgp{0};
  std::uint64_t delivered_flow{0};

  [[nodiscard]] std::uint64_t produced() const noexcept {
    return produced_bgp + produced_flow;
  }
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_bgp + delivered_flow;
  }
  [[nodiscard]] double shed_fraction() const noexcept {
    return produced() == 0
               ? 0.0
               : static_cast<double>(shed.shed_total) /
                     static_cast<double>(produced());
  }
};

/// Stream `dataset` through rings -> shedding -> watermark mux -> monitor
/// and finish() it at the corpus end. The accounting identity
/// produced == delivered + shed_total + late_dropped holds on return.
ReplayStats replay_streaming(const core::Dataset& dataset,
                             core::RtbhMonitor& monitor,
                             const ReplayOptions& options);

/// The direct batch merge (the pre-streaming bw-monitor loop): visit both
/// logs in (time, update-before-flow) order and finish(). The convergence
/// reference for replay_streaming.
void replay_batch(const core::Dataset& dataset, core::RtbhMonitor& monitor);

}  // namespace bw::stream
