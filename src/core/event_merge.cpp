#include "core/event_merge.hpp"

#include <algorithm>
#include <limits>

namespace bw::core {

EventLog::EventLog(util::DurationMs merge_delta, Intervals intervals)
    : delta_(merge_delta), intervals_(intervals) {}

void EventLog::on_update(const bgp::Update& u) {
  if (u.type == bgp::UpdateType::kWithdraw) {
    const std::uint32_t id = index_.find(key_of(u.prefix));
    if (id == kNoTrack || !tracks_[id].open) return;  // no open announce
    Track& track = tracks_[id];
    close(track, std::max(u.time, track.open_since));
    return;
  }

  const auto [id, created] = index_.try_emplace(
      key_of(u.prefix), static_cast<std::uint32_t>(tracks_.size()));
  if (created) {
    tracks_.emplace_back();
    if (std::find(lengths_.begin(), lengths_.end(), u.prefix.length()) ==
        lengths_.end()) {
      lengths_.push_back(u.prefix.length());
    }
  }
  Track& track = tracks_[id];
  if (track.open) return;  // re-announce while active

  track.open = true;
  track.open_since = u.time;
  ++open_;

  RtbhEvent fresh;
  fresh.prefix = u.prefix;
  fresh.sender = u.sender_asn;
  fresh.origin = u.origin_asn;
  fresh.span = {u.time, u.time};
  fresh.announcements = 1;
  if (!created) {
    RtbhEvent& last = events_[track.events.back()];
    // Announces arrive in begin order, so the latest event's end is final.
    if (u.time - last.span.end <= delta_) {
      ++last.announcements;
      return;
    }
    fresh.sender = last.sender;
    fresh.origin = last.origin;
  }
  track.events.push_back(events_.size());
  events_.push_back(std::move(fresh));
}

void EventLog::close(Track& track, util::TimeMs end) {
  RtbhEvent& ev = events_[track.events.back()];
  // The first interval sets the end; a later one can only extend it.
  ev.span.end = ev.announcements == 1 ? end : std::max(ev.span.end, end);
  if (intervals_ == Intervals::kRecord) {
    ev.active.push_back({track.open_since, end});
  }
  track.open = false;
  --open_;
}

void EventLog::finish(util::TimeMs period_end) {
  for (Track& track : tracks_) {
    if (track.open) close(track, period_end);
  }
}

std::int64_t EventLog::last_reaching(const Track& track, util::TimeMs t,
                                     util::DurationMs w) const {
  for (auto it = track.events.rbegin(); it != track.events.rend(); ++it) {
    const RtbhEvent& ev = events_[*it];
    if (ev.span.begin - w > t) continue;  // window starts after t
    const bool open = track.open && it == track.events.rbegin();
    if (open || ev.span.end > t) return static_cast<std::int64_t>(*it);
    // This event ended at or before t. Any earlier event ends before this
    // one begins, i.e. before t too — nothing older can reach t.
    return -1;
  }
  return -1;
}

std::vector<RtbhEvent> EventLog::take_report_order() && {
  std::vector<std::size_t> position;
  position.reserve(events_.size());
  while (position.size() < events_.size()) slot_event(events_, position);
  std::vector<RtbhEvent> out(events_.size());
  for (std::size_t id = 0; id < events_.size(); ++id) {
    out[position[id]] = std::move(events_[id]);
  }
  return out;
}

std::vector<std::pair<net::Ipv4, bgp::Asn>> EventLog::host_universe() const {
  std::vector<std::pair<net::Ipv4, bgp::Asn>> out;
  for (const Track& track : tracks_) {
    const RtbhEvent& first = events_[track.events.front()];
    if (first.prefix.length() != 32) continue;
    out.emplace_back(first.prefix.network(), first.origin);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t slot_event(const std::vector<RtbhEvent>& events,
                       std::vector<std::size_t>& position) {
  const std::size_t idx = position.size();
  const RtbhEvent& ev = events[idx];
  std::size_t pos = idx;
  for (std::size_t j = idx;
       j > 0 && events[j - 1].span.begin == ev.span.begin; --j) {
    if (ev.prefix < events[j - 1].prefix) {
      ++position[j - 1];
      --pos;
    }
  }
  position.push_back(pos);
  return pos;
}

namespace {

/// `updates` when already in replay order, else a sorted copy in `copy`.
const bgp::UpdateLog& in_replay_order(const bgp::UpdateLog& updates,
                                      bgp::UpdateLog& copy) {
  if (std::is_sorted(updates.begin(), updates.end(), bgp::update_before)) {
    return updates;
  }
  copy = updates;
  bgp::sort_updates(copy);
  return copy;
}

EventLog run_log(const bgp::UpdateLog& sorted, util::TimeMs period_end,
                 util::DurationMs delta, EventLog::Intervals intervals) {
  EventLog log(delta, intervals);
  for (const bgp::Update& u : sorted) log.on_update(u);
  log.finish(period_end);
  return log;
}

}  // namespace

std::vector<RtbhEvent> merge_events(const bgp::UpdateLog& blackhole_updates,
                                    util::TimeMs period_end,
                                    util::DurationMs delta) {
  bgp::UpdateLog copy;
  return run_log(in_replay_order(blackhole_updates, copy), period_end, delta,
                 EventLog::Intervals::kRecord)
      .take_report_order();
}

std::vector<MergeSweepPoint> merge_sweep(
    const bgp::UpdateLog& blackhole_updates, util::TimeMs period_end,
    const std::vector<util::DurationMs>& deltas) {
  bgp::UpdateLog copy;
  const bgp::UpdateLog& sorted = in_replay_order(blackhole_updates, copy);
  std::size_t announcements = 0;
  for (const auto& u : sorted) {
    if (u.type == bgp::UpdateType::kAnnounce) ++announcements;
  }
  const double denom =
      announcements > 0 ? static_cast<double>(announcements) : 1.0;

  std::vector<MergeSweepPoint> out;
  out.reserve(deltas.size() + 1);
  const auto point = [&](util::DurationMs d, util::DurationMs log_delta) {
    MergeSweepPoint p;
    p.delta = d;
    p.events = run_log(sorted, period_end, log_delta,
                       EventLog::Intervals::kSkip)
                   .events()
                   .size();
    p.event_fraction = static_cast<double>(p.events) / denom;
    out.push_back(p);
  };
  for (const util::DurationMs d : deltas) point(d, d);
  // Δ = infinity: every announce merges, one event per announced prefix.
  point(-1, std::numeric_limits<util::DurationMs>::max());
  return out;
}

}  // namespace bw::core
