#include "core/monitor.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace bw::core {

namespace {

obs::Counter& monitor_counter(const char* what) {
  return obs::Registry::global().counter(std::string("monitor.") + what);
}

constexpr util::TimeMs kNever = std::numeric_limits<util::TimeMs>::max();

/// t + d, clamped at kNever: a huge configured delay means never.
util::TimeMs saturating_add(util::TimeMs t, util::DurationMs d) {
  return d > 0 && t > kNever - d ? kNever : t + d;
}

}  // namespace

std::string_view to_string(AlertKind k) {
  switch (k) {
    case AlertKind::kEventStarted: return "event-started";
    case AlertKind::kEventEnded: return "event-ended";
    case AlertKind::kAttackCorrelated: return "attack-correlated";
    case AlertKind::kLowDropRate: return "low-drop-rate";
    case AlertKind::kZombieSuspect: return "zombie-suspect";
  }
  return "unknown";
}

RtbhMonitor::RtbhMonitor(MonitorConfig config, AlertSink sink)
    : cfg_(config), sink_(std::move(sink)), empty_detector_(cfg_.ewma) {
  // The state map grows with observed destinations (hundreds of thousands
  // on a real tap); seeding the bucket array avoids the rehash storms that
  // otherwise dominate the first minutes of a replay.
  prefixes_.reserve(1 << 14);
}

RtbhMonitor::PrefixState& RtbhMonitor::state_for(const net::Prefix& prefix) {
  auto [it, fresh] = prefixes_.try_emplace(prefix, empty_detector_);
  if (fresh) {
    if (prefix.length() < 32) {
      // Before the first shorter entry: longest first, ties in arrival order.
      const auto pos = std::find_if(
          wide_prefixes_.begin(), wide_prefixes_.end(),
          [&](const net::Prefix& p) { return p.length() < prefix.length(); });
      wide_prefixes_.insert(pos, prefix);
    }
    // Recency bookkeeping exists only to pick eviction victims; an
    // unbounded monitor (the default, and the replay-bench shape) skips
    // the whole LRU list — one splice per flow is real money at 1M+
    // flows/s and buys nothing when nothing is ever evicted.
    if (cfg_.max_destinations != 0) {
      lru_.push_front(prefix);
      it->second.lru_it = lru_.begin();
      evict_over_cap();
    }
  } else {
    touch(it->second);
  }
  return it->second;
}

void RtbhMonitor::touch(PrefixState& st) {
  if (cfg_.max_destinations == 0) return;
  lru_.splice(lru_.begin(), lru_, st.lru_it);
}

void RtbhMonitor::evict_over_cap() {
  if (cfg_.max_destinations == 0) return;
  // Keep at least the entry just touched (the LRU front) alive, so the
  // caller's reference stays valid even with a cap of 1.
  while (prefixes_.size() > cfg_.max_destinations && lru_.size() > 1) {
    const net::Prefix victim = lru_.back();
    auto it = prefixes_.find(victim);
    PrefixState& st = it->second;
    if (st.in_event) {
      // State is shed loudly: the evicted event gets its final alert so
      // downstream consumers never see an event silently vanish.
      st.in_event = false;
      std::ostringstream os;
      os << victim.to_string() << " evicted with its event still open (LRU"
         << " cap " << cfg_.max_destinations << " destinations)";
      emit(AlertKind::kEventEnded, std::max(now_, st.event_start), victim, st,
           0.0, os.str());
      active_.erase(victim);
    }
    if (victim.length() < 32) {
      wide_prefixes_.erase(
          std::remove(wide_prefixes_.begin(), wide_prefixes_.end(), victim),
          wide_prefixes_.end());
    }
    lru_.pop_back();
    prefixes_.erase(it);
    static obs::Counter& evictions = monitor_counter("evictions");
    evictions.add();
  }
}

void RtbhMonitor::emit(AlertKind kind, util::TimeMs t,
                       const net::Prefix& prefix, const PrefixState& st,
                       double value, std::string message) {
  Alert alert;
  alert.kind = kind;
  alert.time = t;
  alert.prefix = prefix;
  alert.origin = st.origin;
  alert.value = value;
  alert.message = std::move(message);
  static obs::Counter& alerts = monitor_counter("alerts");
  alerts.add();
  if (sink_) sink_(alert);
}

void RtbhMonitor::close_slot(const net::Prefix& prefix, PrefixState& st) {
  if (st.slot_index < 0) return;
  const std::array<double, kFeatureCount> values{
      st.slot_packets, st.slot_flows,
      static_cast<double>(st.slot_sources.size()),
      static_cast<double>(st.slot_ports.size()), st.slot_non_tcp};
  int level = 0;
  for (std::size_t f = 0; f < kFeatureCount; ++f) {
    if (st.detectors[f].push(values[f])) ++level;
  }
  if (level > 0) {
    st.last_anomaly_level = level;
    st.last_anomaly_at = st.slot_index * cfg_.slot;  // slot start
  }
  st.slot_packets = st.slot_flows = st.slot_non_tcp = 0;
  st.slot_sources.clear();
  st.slot_ports.clear();
  st.last_closed_slot = st.slot_index;
  st.slot_index = -1;
  (void)prefix;
}

void RtbhMonitor::maybe_close_event(const net::Prefix& prefix,
                                    PrefixState& st, util::TimeMs now) {
  if (!st.in_event) return;

  // Zombie check while the event is open.
  if (!st.zombie_alerted && st.announced &&
      now - st.event_start >= cfg_.zombie_after &&
      st.packets_total < cfg_.zombie_max_packets) {
    st.zombie_alerted = true;
    std::ostringstream os;
    os << prefix.to_string() << " blackholed since "
       << util::format_time(st.event_start) << " with only "
       << st.packets_total << " sampled packets — forgotten?";
    emit(AlertKind::kZombieSuspect, now, prefix, st,
         static_cast<double>(st.packets_total), os.str());
  }

  maybe_end_event(prefix, st, now);
}

void RtbhMonitor::maybe_end_event(const net::Prefix& prefix, PrefixState& st,
                                  util::TimeMs now) {
  // Event end: withdrawn and the merge window has passed.
  if (!st.in_event) return;
  if (!st.announced && now - st.last_withdraw > cfg_.merge_delta) {
    st.in_event = false;
    std::ostringstream os;
    os << prefix.to_string() << " event ended after "
       << util::format_duration(st.last_withdraw - st.event_start);
    emit(AlertKind::kEventEnded, st.last_withdraw, prefix, st, 0.0, os.str());
  }
}

util::TimeMs RtbhMonitor::due_at(const PrefixState& st) const {
  // The two checks of maybe_close_event, solved for `now`.
  if (!st.announced) {
    return saturating_add(saturating_add(st.last_withdraw, cfg_.merge_delta),
                          1);
  }
  if (!st.zombie_alerted && st.packets_total < cfg_.zombie_max_packets) {
    return saturating_add(st.event_start, cfg_.zombie_after);
  }
  return kNever;  // only a later update or eviction can change it
}

void RtbhMonitor::advance(util::TimeMs now) {
  if (now <= now_) return;
  now_ = now;
  // Sweep only open events, at most once per simulated minute.
  if (last_sweep_ != std::numeric_limits<util::TimeMs>::min() &&
      now - last_sweep_ < util::kMinute) {
    return;
  }
  last_sweep_ = now;
  // The minute still counts for the cadence, but before next_due_ the
  // sweep would change nothing.
  if (now < next_due_) return;
  sweep(now);
}

void RtbhMonitor::sweep(util::TimeMs now) {
  static obs::Counter& sweeps = monitor_counter("sweeps");
  static obs::Counter& visits = monitor_counter("sweep_visits");
  sweeps.add();
  visits.add(active_.size());
  next_due_ = kNever;
  std::vector<net::Prefix> closed;
  for (const auto& prefix : active_) {
    auto& st = prefixes_.at(prefix);
    maybe_close_event(prefix, st, now);
    if (st.in_event) {
      next_due_ = std::min(next_due_, due_at(st));
    } else {
      closed.push_back(prefix);
    }
  }
  for (const auto& prefix : closed) active_.erase(prefix);
}

void RtbhMonitor::on_update(const bgp::Update& update) {
  if (!update.is_blackhole()) return;
  PrefixState& st = state_for(update.prefix);

  if (update.type == bgp::UpdateType::kAnnounce) {
    // Expire the merge window against this announcement's own timestamp.
    // The periodic sweep in advance() only runs when the clock moves, so
    // its cadence depends on how many flow records arrived in between —
    // segmentation must not: a re-announce past merge_delta always closes
    // the stale event and opens a fresh one, however quiet the data plane
    // was (or however much of it a shedding ingest dropped).
    maybe_end_event(update.prefix, st, update.time);
    st.announced = true;
    st.origin = update.origin_asn;
    if (!st.in_event) {
      // Flush the partially-filled slot so a burst immediately preceding
      // the announcement is visible to the correlation check.
      close_slot(update.prefix, st);
      st.in_event = true;
      st.event_start = update.time;
      st.packets_total = 0;
      st.packets_dropped = 0;
      st.attack_alerted = false;
      st.low_drop_alerted = false;
      st.zombie_alerted = false;
      active_.insert(update.prefix);
      ++total_events_;
      static obs::Counter& events = monitor_counter("events_total");
      events.add();
      std::ostringstream os;
      os << update.prefix.to_string() << " blackholed by AS"
         << update.sender_asn;
      emit(AlertKind::kEventStarted, update.time, update.prefix, st, 0.0,
           os.str());

      // Attack correlation: did this destination spike recently?
      if (st.last_anomaly_level > 0 &&
          update.time - st.last_anomaly_at <= cfg_.merge_delta) {
        st.attack_alerted = true;
        std::ostringstream msg;
        msg << update.prefix.to_string() << " anomaly level "
            << st.last_anomaly_level << "/5 within "
            << util::format_duration(
                   std::max<util::DurationMs>(update.time - st.last_anomaly_at, 0))
            << " of the blackhole — DDoS mitigation";
        emit(AlertKind::kAttackCorrelated, update.time, update.prefix, st,
             st.last_anomaly_level, msg.str());
      }
    }
  } else {
    st.announced = false;
    st.last_withdraw = update.time;
  }
  // Updates are the only input that can bring an open event's due time
  // forward (flows only add packets, which can only retire a zombie check).
  if (st.in_event) next_due_ = std::min(next_due_, due_at(st));
  advance(update.time);
}

void RtbhMonitor::on_flow(const flow::FlowRecord& record) {
  PrefixState* st = nullptr;
  // Attribute the record to the longest tracked prefix covering it. The
  // common case is the /32; scan host first, then the tracked wider
  // prefixes, longest first (bounded: tracked prefixes only).
  const net::Prefix host = net::Prefix::host(record.dst_ip);
  if (auto it = prefixes_.find(host); it != prefixes_.end()) {
    st = &it->second;
    touch(*st);
  } else {
    for (const auto& prefix : wide_prefixes_) {
      if (prefix.contains(record.dst_ip)) {
        st = &prefixes_.at(prefix);
        touch(*st);
        break;
      }
    }
  }
  if (st == nullptr) st = &state_for(host);

  // Slotted per-destination features for the anomaly detectors.
  const std::int64_t slot = util::slot_index(record.time, cfg_.slot);
  if (st->slot_index >= 0 && slot != st->slot_index) close_slot(host, *st);
  if (st->slot_index < 0) {
    // Backfill empty slots (bounded by the window) so detector baselines
    // see the silence between bursts, as the offline pipeline does.
    if (st->last_closed_slot != std::numeric_limits<std::int64_t>::min()) {
      const std::int64_t gap = std::clamp<std::int64_t>(
          slot - st->last_closed_slot - 1, 0,
          static_cast<std::int64_t>(cfg_.ewma.window));
      if (gap > 0) {
        for (auto& det : st->detectors) {
          det.push_zeros(static_cast<std::size_t>(gap));
        }
      }
    }
    st->slot_index = slot;
  }
  st->slot_packets += record.packets;
  st->slot_flows += 1;
  st->slot_sources.insert(record.src_ip.value());
  st->slot_ports.insert(record.dst_port);
  if (record.proto != net::Proto::kTcp) st->slot_non_tcp += 1;

  if (st->in_event) {
    st->packets_total += record.packets;
    if (record.dropped()) st->packets_dropped += record.packets;
    if (!st->low_drop_alerted && st->packets_total >= cfg_.min_drop_samples) {
      const double share = static_cast<double>(st->packets_dropped) /
                           static_cast<double>(st->packets_total);
      if (share < cfg_.low_drop_threshold) {
        st->low_drop_alerted = true;
        std::ostringstream os;
        os << "blackhole for " << record.dst_ip.to_string() << " leaking: only "
           << util::fmt_percent(share, 0) << " of " << st->packets_total
           << " sampled packets dropped — peers reject the host route?";
        emit(AlertKind::kLowDropRate, record.time, host, *st, share, os.str());
      }
    }
  }
  advance(record.time);
}

void RtbhMonitor::finish(util::TimeMs now) {
  for (auto& [prefix, st] : prefixes_) {
    close_slot(prefix, st);
    if (st.in_event) {
      // Feed ends with the blackhole still up: close the bookkeeping so
      // counters settle, but zombies stay flagged as such.
      maybe_close_event(prefix, st, now);
      if (st.in_event && !st.announced) st.in_event = false;
    }
  }
  active_.clear();
  now_ = std::max(now_, now);
}

std::size_t RtbhMonitor::active_events() const {
  std::size_t n = 0;
  for (const auto& [prefix, st] : prefixes_) {
    if (st.in_event) ++n;
  }
  return n;
}

}  // namespace bw::core
