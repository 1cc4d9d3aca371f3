// Online RTBH monitor.
//
// The paper's pipeline is offline: it replays a finished 104-day corpus.
// Operators need the same signals *live*. This monitor consumes the two
// streams incrementally — BGP updates and sampled flow records, in
// timestamp order — and maintains per-prefix event state, emitting alerts
// as the paper's pathologies appear:
//
//   kEventStarted       first announcement of a new RTBH event
//   kEventEnded         event closed (withdrawn and merge-delta expired)
//   kAttackCorrelated   traffic anomaly within the reaction window of the
//                       event start (Section 5.3's DDoS indication)
//   kLowDropRate        an active blackhole leaks: < 50% of the observed
//                       traffic towards it is being dropped (Section 4.2)
//   kZombieSuspect      active for days with (almost) no traffic —
//                       probably forgotten (Section 7.3)
//
// Per-destination history lives in bounded detector windows; the state
// map grows with the number of *observed destinations*, so long-running
// deployments bound it with MonitorConfig::max_destinations: least-recently
// touched destinations are evicted first, and an eviction that drops an
// open event emits a final kEventEnded alert — state is shed loudly, never
// silently.
//
// Open events are swept once per simulated minute for zombie and end
// checks, but only when one can be due: next_due_ bounds from below the
// earliest time any open event could change state, and a minute before it
// passes without visiting them. The state map and the open-event set stay
// hash containers fed the same insert/erase sequence: their iteration
// order decides the order of alerts raised in one sweep and in finish().
#pragma once

#include <array>
#include <limits>
#include <functional>
#include <list>
#include <unordered_set>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/message.hpp"
#include "core/anomaly.hpp"
#include "flow/record.hpp"
#include "util/distinct.hpp"
#include "util/ewma.hpp"

namespace bw::core {

enum class AlertKind : std::uint8_t {
  kEventStarted,
  kEventEnded,
  kAttackCorrelated,
  kLowDropRate,
  kZombieSuspect,
};

[[nodiscard]] std::string_view to_string(AlertKind k);

struct Alert {
  AlertKind kind{AlertKind::kEventStarted};
  util::TimeMs time{0};
  net::Prefix prefix;
  bgp::Asn origin{0};
  /// kLowDropRate: observed drop share; kAttackCorrelated: anomaly level.
  double value{0.0};
  std::string message;
};

struct MonitorConfig {
  util::DurationMs merge_delta{10 * util::kMinute};
  util::DurationMs slot{5 * util::kMinute};
  util::EwmaConfig ewma{};
  /// Alert when an active event's drop share sits below this after at
  /// least `min_drop_samples` packets.
  double low_drop_threshold{0.5};
  std::uint64_t min_drop_samples{50};
  /// Zombie suspicion: active at least this long with fewer than
  /// `zombie_max_packets` sampled packets.
  util::DurationMs zombie_after{2 * util::kDay};
  std::uint64_t zombie_max_packets{10};
  /// Bound on tracked destinations; 0 means unbounded. Past the cap the
  /// least-recently-touched destination is evicted; if its event is still
  /// open a final kEventEnded alert is emitted first.
  std::size_t max_destinations{0};
};

class RtbhMonitor {
 public:
  using AlertSink = std::function<void(const Alert&)>;

  RtbhMonitor(MonitorConfig config, AlertSink sink);

  /// Feed the next BGP update (timestamps must be non-decreasing across
  /// both feeds; out-of-order input within one slot is tolerated).
  void on_update(const bgp::Update& update);

  /// Feed the next sampled flow record.
  void on_flow(const flow::FlowRecord& record);

  /// Advance the clock (fires end-of-event and zombie checks even when no
  /// input arrives). Called implicitly by both feeds.
  void advance(util::TimeMs now);

  /// Flush all open state (end of feed).
  void finish(util::TimeMs now);

  // --- live counters ---
  [[nodiscard]] std::size_t active_events() const;
  [[nodiscard]] std::size_t total_events() const noexcept {
    return total_events_;
  }
 private:
  struct PrefixState {
    static_assert(kFeatureCount == 5, "one detector initialiser per feature");
    explicit PrefixState(const util::EwmaDetector& detector)
        : detectors{detector, detector, detector, detector, detector} {}

    bool announced{false};
    util::TimeMs event_start{0};
    util::TimeMs last_withdraw{0};
    bool in_event{false};
    bgp::Asn origin{0};
    std::uint64_t packets_total{0};
    std::uint64_t packets_dropped{0};
    bool attack_alerted{false};
    bool low_drop_alerted{false};
    bool zombie_alerted{false};
    /// Per-feature detectors over the slotted history of this destination.
    std::array<util::EwmaDetector, kFeatureCount> detectors;
    /// Current (open) slot accumulation.
    std::int64_t slot_index{-1};
    std::int64_t last_closed_slot{std::numeric_limits<std::int64_t>::min()};
    double slot_packets{0};
    double slot_flows{0};
    util::DistinctCounter<std::uint32_t> slot_sources;
    util::DistinctCounter<std::uint16_t> slot_ports;
    double slot_non_tcp{0};
    int last_anomaly_level{0};
    util::TimeMs last_anomaly_at{std::numeric_limits<util::TimeMs>::min()};
    /// Position in lru_ (most-recently-touched first).
    std::list<net::Prefix>::iterator lru_it;
  };

  void emit(AlertKind kind, util::TimeMs t, const net::Prefix& prefix,
            const PrefixState& st, double value, std::string message);
  void close_slot(const net::Prefix& prefix, PrefixState& st);
  void maybe_close_event(const net::Prefix& prefix, PrefixState& st,
                         util::TimeMs now);
  void maybe_end_event(const net::Prefix& prefix, PrefixState& st,
                       util::TimeMs now);
  /// Earliest time a sweep could change this open event's state.
  [[nodiscard]] util::TimeMs due_at(const PrefixState& st) const;
  void sweep(util::TimeMs now);
  PrefixState& state_for(const net::Prefix& prefix);
  void touch(PrefixState& st);
  void evict_over_cap();

  MonitorConfig cfg_;
  AlertSink sink_;
  /// Copied into each new destination's five detector slots.
  util::EwmaDetector empty_detector_;
  std::unordered_map<net::Prefix, PrefixState> prefixes_;
  /// Recency order over prefixes_ keys; front = most recently touched.
  std::list<net::Prefix> lru_;
  /// Tracked non-/32 prefixes (rare), so flow attribution stays O(1)+small.
  /// Longest first: the first covering entry is the longest match.
  std::vector<net::Prefix> wide_prefixes_;
  /// Prefixes with an open event — the only ones advance() must sweep.
  std::unordered_set<net::Prefix> active_;
  util::TimeMs last_sweep_{std::numeric_limits<util::TimeMs>::min()};
  /// No open event can change state in a sweep before this time.
  util::TimeMs next_due_{std::numeric_limits<util::TimeMs>::max()};
  util::TimeMs now_{std::numeric_limits<util::TimeMs>::min()};
  std::size_t total_events_{0};
};

}  // namespace bw::core
