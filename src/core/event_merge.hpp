// RTBH event merging (Section 5.1).
//
// Operators announce and withdraw blackholes repeatedly during one attack
// (Fig. 9) because dropped traffic yields no telemetry. To reason about
// *attack events* rather than BGP churn, consecutive announcements of the
// same prefix are merged into one RTBH event whenever the gap between a
// withdrawal and the next announcement is at most Δ:
//
//     |bh_i[withdraw] - bh_{i+1}[announce]| <= Δ
//
// The paper fixes Δ = 10 minutes (the knee of Fig. 10), collapsing ~400k
// announcements into ~34k events (8.5%).
//
// One merger, EventLog, grows the events one update at a time; the batch
// merge_events and the streaming kernels both run it. Fed in the replay
// order (time, withdraw-before-announce, feed order), each decision is
// taken at the update that triggers it, per prefix track:
//
//   announce, track closed   if the prefix's latest event ended no more
//                            than Δ ago, the new interval merges into it;
//                            otherwise a new event starts. Interval begins
//                            arrive in order, so the latest event's end is
//                            final by then.
//   announce, track open     ignored (a re-announce while active).
//   withdraw, track open     closes the interval [open_since, time).
//   withdraw, track closed   ignored (a withdraw without announce).
//   finish(period_end)       closes never-withdrawn blackholes (zombies)
//                            at the period end.
//
// sender/origin are frozen at the prefix's first announce and shared by
// all of the prefix's events. An event is open while it is the last event
// of a track with an interval in progress.
//
// The log also answers the two per-record questions the streaming kernels
// ask at commit time (stream/incremental/kernels.hpp says why the answers
// are final once the record is `lag` old):
//
//   covering(ip, t)    the event (if any) whose span — gaps included —
//                      covers t for a prefix containing ip; per prefix
//                      length, since nested events each count.
//   excluded(ip, t, w) whether t falls into any /32 event's exclusion
//                      window [begin - w, end) of host ip, the port-stats
//                      outside-RTBH filter.
//
// Both start from the host's /32 track, so a committed flow's destination
// looks it up once (host_track) and hands the id to both. Tracks live in
// one vector, found through a flat (length, network) index: a lookup is a
// multiply, a shift and usually one cache line.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/message.hpp"
#include "net/prefix.hpp"
#include "util/flat_index.hpp"
#include "util/time.hpp"

namespace bw::core {

/// One merged RTBH event.
struct RtbhEvent {
  net::Prefix prefix;
  bgp::Asn sender{0};
  bgp::Asn origin{0};
  util::TimeRange span;  ///< first announce .. last withdraw (or period end)
  /// Announce..withdraw intervals inside the event (gaps included in
  /// span); filled by merge_events, empty from the streaming kernels.
  std::vector<util::TimeRange> active;
  std::size_t announcements{0};  ///< intervals, an open one included
};

/// The paper's Δ.
inline constexpr util::DurationMs kDefaultMergeDelta = 10 * util::kMinute;

/// The Section 5.1 merger, grown one update at a time. Events are indexed
/// by id (their place in events(), in creation order); an open event's
/// span.end is provisional until its interval closes.
class EventLog {
 public:
  /// Whether closed intervals go into RtbhEvent::active. Only the batch
  /// readers of merge_events (drop_rate, whatif) read them.
  enum class Intervals : bool { kSkip, kRecord };

  EventLog(util::DurationMs merge_delta, Intervals intervals);

  /// Updates must arrive in bgp::sort_updates order.
  void on_update(const bgp::Update& u);

  /// Close zombies at the period end. Idempotent; on_update afterwards is
  /// undefined (the stream has ended).
  void finish(util::TimeMs period_end);

  /// Call `fn(event_id)` for every currently-open event whose prefix
  /// contains `ip` — one lookup per prefix length seen so far (the
  /// flow-delivery hot path of the drop-rate tally).
  template <typename Fn>
  void for_each_open(net::Ipv4 ip, Fn&& fn) const {
    for (const std::uint8_t len : lengths_) {
      const std::uint32_t id = index_.find(key_of(net::Prefix(ip, len)));
      if (id != kNoTrack && tracks_[id].open) fn(tracks_[id].events.back());
    }
  }

  /// The /32 track of `ip`, or kNoTrack when no /32 was ever announced
  /// for it: the one lookup excluded() and for_each_covering() share.
  [[nodiscard]] std::uint32_t host_track(net::Ipv4 ip) const noexcept {
    return index_.find(key_of(net::Prefix::host(ip)));
  }
  static constexpr std::uint32_t kNoTrack = util::FlatIndex::kNone;

  /// Call `fn(event_id)` for every event whose span (gaps included)
  /// covers `t` for a prefix containing `ip` — at most one per prefix
  /// length, since one prefix's event spans are separated by more than Δ.
  /// `host` is host_track(ip).
  template <typename Fn>
  void for_each_covering(net::Ipv4 ip, std::uint32_t host, util::TimeMs t,
                         Fn&& fn) const {
    for (const std::uint8_t len : lengths_) {
      const std::uint32_t id =
          len == 32 ? host : index_.find(key_of(net::Prefix(ip, len)));
      if (id == kNoTrack) continue;
      const std::int64_t e = last_reaching(tracks_[id], t, 0);
      if (e >= 0) fn(static_cast<std::size_t>(e));
    }
  }

  /// Port-stats exclusion test: does `t` fall into any /32 event's
  /// [span.begin - window, span.end) on the host whose track is `host`
  /// (host_track(ip))?
  [[nodiscard]] bool excluded(std::uint32_t host, util::TimeMs t,
                              util::DurationMs window) const {
    return host != kNoTrack && last_reaching(tracks_[host], t, window) >= 0;
  }

  [[nodiscard]] const std::vector<RtbhEvent>& events() const noexcept {
    return events_;
  }

  /// The events in report order (span.begin, prefix); spends the log.
  [[nodiscard]] std::vector<RtbhEvent> take_report_order() &&;

  /// Blackholed /32 hosts (the port-stats universe), with the frozen
  /// origin of each — in ascending address order.
  [[nodiscard]] std::vector<std::pair<net::Ipv4, bgp::Asn>> host_universe()
      const;

  [[nodiscard]] std::size_t open_count() const noexcept { return open_; }

 private:
  /// One prefix: created by its first announce, so it has an event.
  struct Track {
    bool open{false};
    util::TimeMs open_since{0};
    std::vector<std::size_t> events;  ///< ids, in begin order
  };

  [[nodiscard]] static std::uint64_t key_of(const net::Prefix& p) noexcept {
    return std::uint64_t{p.length()} << 32 | p.network().value();
  }

  /// Close `track`'s interval at `end` into its latest event.
  void close(Track& track, util::TimeMs end);

  /// Id of the last (latest-begin) event of `track` whose window
  /// [begin - w, end) reaches `t`, walking back from the newest event
  /// (only a bounded tail can begin after t); -1 when none does.
  [[nodiscard]] std::int64_t last_reaching(const Track& track, util::TimeMs t,
                                           util::DurationMs w) const;

  util::DurationMs delta_;
  Intervals intervals_;
  std::vector<RtbhEvent> events_;
  std::vector<Track> tracks_;  ///< in first-announce order
  util::FlatIndex index_;      ///< key_of(prefix) -> tracks_ slot
  std::vector<std::uint8_t> lengths_;  ///< distinct prefix lengths seen
  std::size_t open_{0};
};

/// Slot the next event, events[position.size()], into the report order
/// (span.begin, prefix) and return its place; `position` holds each
/// earlier event's place. Events are created in delivery order with their
/// begin fixed, so begins never decrease along the log and only the
/// equal-begin tail the new event lands in reorders: its events that sort
/// after the new one move up a place (one prefix's events never share a
/// begin).
std::size_t slot_event(const std::vector<RtbhEvent>& events,
                       std::vector<std::size_t>& position);

/// Merge blackhole updates (announces/withdraws, any order) into events,
/// in report order. `period_end` closes never-withdrawn blackholes
/// (zombies).
[[nodiscard]] std::vector<RtbhEvent> merge_events(
    const bgp::UpdateLog& blackhole_updates, util::TimeMs period_end,
    util::DurationMs delta = kDefaultMergeDelta);

/// One point of the Fig. 10 sweep.
struct MergeSweepPoint {
  util::DurationMs delta{0};
  std::size_t events{0};
  double event_fraction{0.0};  ///< events / announcements
};

/// Sweep Δ over `deltas` and report the event counts (Fig. 10). The
/// Δ = infinity lower bound (events == prefixes with an event) is appended
/// last with delta = -1.
[[nodiscard]] std::vector<MergeSweepPoint> merge_sweep(
    const bgp::UpdateLog& blackhole_updates, util::TimeMs period_end,
    const std::vector<util::DurationMs>& deltas);

}  // namespace bw::core
