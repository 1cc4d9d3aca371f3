// Incremental streaming kernels: drop-rate, port-stats and collateral
// computed one StreamEvent at a time, with a hard convergence contract —
// after a full no-shed replay, the final snapshot's reports are
// numerically identical to the batch kernels' (compute_drop_rates,
// compute_port_stats, compute_collateral) because both sides share the
// accumulation and assembly code (core::DropEventTally,
// core::PortAccumulator/finalize_port_host, assemble_*_report).
//
// Why streaming can be exact. Events arrive in the batch merge order
// (time, BGP-before-flow, feed order), so:
//
//   drop rates      a flow record counts toward an event iff its time lies
//                   in an announce..withdraw interval. At delivery the
//                   prefix's track is open exactly then (the announce at
//                   the same timestamp sorts first; the withdraw at the
//                   record's timestamp sorts first and closes it), so the
//                   tally is updated at delivery, immediately and exactly.
//   port stats /    both need *future* knowledge: a record is excluded if
//   collateral      an RTBH window covers it, and windows extend while
//                   events stay open or merge across gaps of up to Δ. But
//                   that knowledge has a horizon: once the clock passed
//                   t + lag with lag = max(reaction_window, Δ), no future
//                   announce can start a window reaching back to t (a
//                   window reaches back at most `reaction_window`), and no
//                   future announce can merge into an event that ended at
//                   or before t (the gap already exceeds Δ). Records
//                   therefore sit in a bounded pending queue and commit —
//                   with final answers — once the delivered clock passes
//                   their time by `lag`.
//
// Because a committed answer is final, commit time does not matter past
// the horizon: due records wait in the queue until the next drain — every
// kDrainBatch delivered events, and always before a snapshot or in
// finish() — so the commit timer (stream.kernel.commit_us) costs one
// clock pair per batch, and every snapshot still sees exactly the records
// due by its clock committed.
//
// Intermediate snapshots are the same reports over the work done so far
// (all delivered BGP updates, all committed flows); cumulative totals are
// monotone from one snapshot to the next. finish() commits everything and
// makes the final snapshot the batch fixed point.
//
// Snapshot cost. A snapshot re-derives only what changed since the
// previous one (docs/streaming.md has the full cost model):
//
//   host rows     each universe host's finalized HostPortStats is cached;
//                 commit() marks the row stale when it touches the host's
//                 accumulator, and only stale rows are finalized again.
//   drop deltas   each event's flattened DropEventDelta is cached in report
//                 order; the delivery-time tally callback marks the event's
//                 tally stale, and only stale tallies are flattened again.
//                 Events created since the last snapshot are slotted into
//                 the order (core::slot_event: they begin no earlier than
//                 any older event, so they land at or near the end).
//   top-K         a bounded selection over the contiguous counters.
//
// A cold kernel fed the same events has every cache empty, so its snapshot
// is the from-scratch answer; the convergence tests diff the two at every
// cadence boundary.
//
// State layout. Everything a flow touches is flat and contiguous: the
// pending queue is a ring of 32-byte committed fields; hosts, collateral
// (event, host) groups, (event, host, proto:port) cells and top-K counters
// are dense vectors found through util::FlatIndex; prefix tracks likewise
// (core::EventLog, the one Section 5.1 merger, which the batch
// merge_events runs too). The cost model per flow is in docs/streaming.md.
//
// Two halves. The kernels split along the seam above, and nothing crosses
// it but the delivered events. DropKernels holds what is known at
// delivery (its own event log, the per-event drop tallies and deltas,
// top-K, the progress counters); CommitKernels what is known past the
// horizon (a second event log fed the same updates, the pending ring,
// hosts and collateral cells). Each renders its sections of a snapshot
// alone, so the two may run on two threads (stream::Deliverer's rolling
// lanes); IncrementalKernels runs both in sequence.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/collateral.hpp"
#include "core/drop_rate.hpp"
#include "core/event_merge.hpp"
#include "core/port_accum.hpp"
#include "core/port_stats.hpp"
#include "stream/event.hpp"
#include "stream/incremental/topk.hpp"
#include "util/flat_index.hpp"

namespace bw::stream::incremental {

struct IncrementalConfig {
  util::DurationMs merge_delta{core::kDefaultMergeDelta};
  core::DropRateConfig drop{};
  core::PortStatsConfig ports{};
  std::uint32_t sampling_rate{10000};
  /// Corpus measurement period: begin anchors the port-stats day slots,
  /// end closes zombie events in finish().
  util::TimeRange period;
  /// Handover attribution (MAC -> member AS) for the /32 source-reaction
  /// tally; records stay unattributed when null, like an unknown MAC.
  std::function<std::optional<bgp::Asn>(net::Mac)> member_asn;
  /// Top-K port tracker: counter budget and mode (see topk.hpp).
  std::size_t topk_capacity{512};
  bool topk_exact{true};
};

/// One rolling report: the three batch-shaped sections plus the streaming
/// extras (progress counters, top-K ports). Snapshot N+1's cumulative
/// counters are >= snapshot N's.
struct IncrementalSnapshot {
  util::TimeMs clock{0};   ///< last delivered event time
  bool final_report{false};
  std::uint64_t events_seen{0};  ///< delivered StreamEvents, both kinds
  std::uint64_t bgp_seen{0};
  std::uint64_t flows_seen{0};
  std::uint64_t flows_committed{0};
  std::uint64_t flows_pending{0};
  std::size_t rtbh_events{0};
  std::size_t open_rtbh_events{0};

  core::DropRateReport drop;
  core::PortStatsReport ports;
  core::CollateralReport collateral;

  std::vector<TopKPorts::Entry> top_ports;
  std::uint64_t topk_total{0};
  std::uint64_t topk_max_error{0};
};

/// The delivery-time half. Both halves take every delivered event in
/// delivery order, and snapshot() fills their own fields of `snap`.
class DropKernels {
 public:
  explicit DropKernels(IncrementalConfig config);
  void on_event(const StreamEvent& ev);
  void finish(util::TimeMs period_end);  ///< closes zombies
  void snapshot(IncrementalSnapshot& snap, std::size_t topk);

 private:
  /// Slot new events into the report order and re-flatten stale deltas.
  void refresh_drop_deltas();

  IncrementalConfig cfg_;
  core::EventLog log_;
  util::TimeMs clock_{0};
  std::uint64_t events_seen_{0};
  std::uint64_t bgp_seen_{0};
  std::uint64_t flows_seen_{0};

  /// Per event id: its Section 4.2 tally, and whether the tally changed
  /// since it was last flattened into deltas_.
  std::vector<core::DropEventTally> tallies_;
  std::vector<bool> stale_;
  /// Each event's place in the batch report order (span.begin, prefix),
  /// and each event's flattened drop delta in that order (valid while the
  /// event's tally is not stale).
  std::vector<std::size_t> position_;
  std::vector<core::DropEventDelta> deltas_;

  TopKPorts topk_;
};

/// The past-the-horizon half.
class CommitKernels {
 public:
  explicit CommitKernels(IncrementalConfig config);
  void on_event(const StreamEvent& ev);
  /// Closes zombies and commits every pending record.
  void finish(util::TimeMs period_end);
  void snapshot(IncrementalSnapshot& snap);

 private:
  /// What commit() reads of a flow record, packed: a pending flow is 32
  /// bytes instead of a 56-byte FlowRecord.
  struct PendingFlow {
    util::TimeMs time{0};
    std::uint64_t packets{0};
    net::Ipv4 src_ip;
    net::Ipv4 dst_ip;
    net::Port src_port{0};
    net::Port dst_port{0};
    net::Proto proto{net::Proto::kOther};
    bool dropped{false};
  };

  /// FIFO of pending flows in one power-of-two ring that doubles when full.
  class PendingRing {
   public:
    void push(const PendingFlow& f) {
      if (size_ == slots_.size()) grow();
      slots_[(head_ + size_) & (slots_.size() - 1)] = f;
      ++size_;
    }
    [[nodiscard]] const PendingFlow& front() const { return slots_[head_]; }
    void pop() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    void grow();

    std::vector<PendingFlow> slots_;
    std::size_t head_{0};
    std::size_t size_{0};
  };

  /// One host's outside-RTBH accumulation and its cached report row.
  struct HostState {
    core::PortAccumulator acc;
    core::HostPortStats row;  ///< valid while !row_stale
    bool row_stale{true};     ///< acc changed since row was finalized
  };

  /// One (event, destination host, proto:port) collateral cell: the
  /// span-covered traffic joined against the detected servers' top ports
  /// at snapshot time (top ports are only known then).
  struct CollateralCell {
    std::uint32_t group{0};  ///< index into collateral_groups_
    std::uint32_t port{0};   ///< net::port_key
    std::uint64_t packets{0};
    std::uint64_t dropped{0};
  };
  struct CollateralGroup {
    std::uint32_t event{0};
    net::Ipv4 host;
  };

  /// Commit every pending flow the clock has made final (`all`: every
  /// pending flow), timing the batch into stream.kernel.commit_us.
  void drain_pending(bool all = false);
  void commit(const PendingFlow& f);
  [[nodiscard]] HostState& host(net::Ipv4 ip);

  IncrementalConfig cfg_;
  util::DurationMs lag_;
  core::EventLog log_;
  PendingRing pending_;
  /// Delivered events per drain: due flows wait for the batch (or for a
  /// snapshot), so the commit timer costs one clock pair per batch.
  static constexpr std::size_t kDrainBatch = 1024;
  std::size_t undrained_{0};  ///< events delivered since the last drain
  util::TimeMs clock_{0};
  std::uint64_t flows_committed_{0};

  /// Per-host outside-RTBH accumulation, for every IP seen: whether a host
  /// ends up in the report universe (a /32 gets blackholed) can be decided
  /// later than its records commit, so all of them accumulate and the
  /// universe filters at snapshot time. Dense, found through host_ids_.
  std::vector<HostState> hosts_;
  util::FlatIndex host_ids_;  ///< ip -> hosts_ slot

  /// Each event's report place: the collateral rows' event index.
  std::vector<std::size_t> position_;
  std::vector<CollateralGroup> collateral_groups_;
  util::FlatIndex collateral_group_ids_;  ///< event << 32 | ip -> group
  std::vector<CollateralCell> collateral_;
  util::FlatIndex collateral_ids_;  ///< group << 32 | port key -> cell
};

/// Both halves in sequence on one thread: the inline form the convergence
/// tests drive. Not thread-safe.
class IncrementalKernels {
 public:
  explicit IncrementalKernels(const IncrementalConfig& config)
      : drop_(config), commit_(config) {}

  void on_event(const StreamEvent& ev) {
    drop_.on_event(ev);
    commit_.on_event(ev);
  }
  /// After this, snapshot() is the batch fixed point.
  void finish(util::TimeMs period_end) {
    drop_.finish(period_end);
    commit_.finish(period_end);
  }
  /// The current reports, with the `topk` largest port counters. Refreshes
  /// the snapshot caches, hence non-const.
  [[nodiscard]] IncrementalSnapshot snapshot(bool final_report,
                                             std::size_t topk);

 private:
  DropKernels drop_;
  CommitKernels commit_;
};

}  // namespace bw::stream::incremental
