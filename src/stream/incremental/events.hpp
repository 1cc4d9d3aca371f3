// Online RTBH event tracking: the streaming counterpart of
// core::merge_events, grown one BGP update at a time.
//
// The batch merger (Section 5.1) builds per-prefix announce..withdraw
// intervals and then glues intervals whose gap is at most Δ into one RTBH
// event. Because the stream delivers updates in the batch sort order
// (time, withdraw-before-announce, feed order), every decision the batch
// merger takes is decidable online at the update that triggers it:
//
//   announce, track closed   if the prefix's latest event ended no more
//                            than Δ ago, the new interval merges into it;
//                            otherwise a new event starts. The batch makes
//                            the same comparison against the same end time
//                            (interval begins are delivered in order, so
//                            the latest event's end is final by then).
//   announce, track open     ignored — identical to the batch
//                            open.emplace() no-op.
//   withdraw, track open     closes the interval [open_since, time).
//   withdraw, track closed   ignored (batch: withdraw without announce).
//   finish(period_end)       closes never-withdrawn blackholes (zombies)
//                            at the period end, as the batch does.
//
// sender/origin are frozen at the prefix's first announce (the batch
// overwrites them on every update until the first announce increments the
// counter, so the first announce's values stick) and shared by all of the
// prefix's events.
//
// The log also answers the two per-record questions the incremental
// kernels ask at commit time (see kernels.hpp for why the answers are
// final once the record is `lag` old):
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
#include <deque>
#include <vector>

#include "bgp/message.hpp"
#include "core/drop_rate.hpp"
#include "core/event_merge.hpp"
#include "net/prefix.hpp"
#include "util/flat_index.hpp"
#include "util/time.hpp"

namespace bw::stream::incremental {

/// One merged RTBH event, growing in place as updates arrive. `drop` is
/// the event's Section 4.2 tally, fed by the kernels at flow delivery;
/// `drop_stale` tells the kernels' snapshot cache that the tally changed
/// since it was last flattened.
struct OnlineEvent {
  net::Prefix prefix;
  bgp::Asn sender{0};
  bgp::Asn origin{0};
  util::TimeMs begin{0};
  util::TimeMs end{0};  ///< max active-interval end so far
  bool open{false};     ///< an announce..withdraw interval is in progress
  std::size_t announcements{0};  ///< active intervals, the open one included
  core::DropEventTally drop;
  bool drop_stale{true};
};

class OnlineEventLog {
 public:
  explicit OnlineEventLog(
      util::DurationMs merge_delta = core::kDefaultMergeDelta);

  void on_update(const bgp::Update& u);

  /// Close zombies at the period end. Idempotent; on_update afterwards is
  /// undefined (the stream has ended).
  void finish(util::TimeMs period_end);

  /// The event currently accepting traffic for `prefix` (its track has an
  /// open interval), or nullptr. O(1); this is the flow-delivery hot path.
  [[nodiscard]] OnlineEvent* open_event(const net::Prefix& prefix) {
    const std::uint32_t id = index_.find(key_of(prefix));
    if (id == kNoTrack || !tracks_[id].open) return nullptr;
    return &events_[tracks_[id].events.back()];
  }

  /// Call `fn(event)` for every currently-open event whose prefix contains
  /// `ip` — one lookup per prefix length seen so far (flow-delivery hot
  /// path of the drop-rate tally).
  template <typename Fn>
  void for_each_open(net::Ipv4 ip, Fn&& fn) {
    for (const std::uint8_t len : lengths_) {
      if (OnlineEvent* ev = open_event(net::Prefix(ip, len))) fn(*ev);
    }
  }

  /// The /32 track of `ip`, or kNoTrack when no /32 was ever announced
  /// for it: the one lookup excluded() and for_each_covering() share.
  [[nodiscard]] std::uint32_t host_track(net::Ipv4 ip) const noexcept {
    return index_.find(key_of(net::Prefix::host(ip)));
  }
  static constexpr std::uint32_t kNoTrack = util::FlatIndex::kNone;

  /// Call `fn(event_index)` for every event whose span (gaps included)
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

  [[nodiscard]] const std::deque<OnlineEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::deque<OnlineEvent>& events() noexcept { return events_; }

  /// Blackholed /32 hosts (the port-stats universe), with the frozen
  /// origin of each — in ascending address order.
  [[nodiscard]] std::vector<std::pair<net::Ipv4, bgp::Asn>> host_universe()
      const;

  [[nodiscard]] std::size_t open_count() const noexcept { return open_; }

 private:
  struct Track {
    net::Prefix prefix;
    bgp::Asn sender{0};
    bgp::Asn origin{0};
    bool open{false};
    util::TimeMs open_since{0};
    std::vector<std::size_t> events;  ///< indices into events_, begin order
  };

  [[nodiscard]] static std::uint64_t key_of(const net::Prefix& p) noexcept {
    return std::uint64_t{p.length()} << 32 | p.network().value();
  }

  /// Index of the last (latest-begin) event of `track` whose window
  /// [begin - w, end) reaches `t`, walking back from the newest event
  /// (only a bounded tail can begin after t); -1 when none does.
  [[nodiscard]] std::int64_t last_reaching(const Track& track, util::TimeMs t,
                                           util::DurationMs w) const;

  util::DurationMs delta_;
  std::deque<OnlineEvent> events_;
  std::vector<Track> tracks_;  ///< in first-announce order
  util::FlatIndex index_;      ///< key_of(prefix) -> tracks_ slot
  std::vector<std::uint8_t> lengths_;  ///< distinct prefix lengths seen
  std::size_t open_{0};
};

}  // namespace bw::stream::incremental
