#include "stream/incremental/events.hpp"

#include <algorithm>

namespace bw::stream::incremental {

OnlineEventLog::OnlineEventLog(util::DurationMs merge_delta)
    : delta_(merge_delta) {}

void OnlineEventLog::on_update(const bgp::Update& u) {
  if (u.type == bgp::UpdateType::kWithdraw) {
    const std::uint32_t id = index_.find(key_of(u.prefix));
    if (id == kNoTrack || !tracks_[id].open) return;  // no open announce
    Track& track = tracks_[id];
    OnlineEvent& ev = events_[track.events.back()];
    const util::TimeMs end = std::max(u.time, track.open_since);
    ev.end = std::max(ev.end, end);
    ev.open = false;
    track.open = false;
    --open_;
    return;
  }

  const auto [id, created] = index_.try_emplace(
      key_of(u.prefix), static_cast<std::uint32_t>(tracks_.size()));
  if (created) {
    Track& fresh = tracks_.emplace_back();
    fresh.prefix = u.prefix;
    fresh.sender = u.sender_asn;
    fresh.origin = u.origin_asn;
    if (std::find(lengths_.begin(), lengths_.end(), u.prefix.length()) ==
        lengths_.end()) {
      lengths_.push_back(u.prefix.length());
    }
  }
  Track& track = tracks_[id];
  if (track.open) return;  // re-announce while active: batch no-op

  track.open = true;
  track.open_since = u.time;
  ++open_;

  if (!track.events.empty()) {
    OnlineEvent& last = events_[track.events.back()];
    // The batch merge test against the previous interval's (final, since
    // announces arrive in begin order) event end.
    if (u.time - last.end <= delta_) {
      last.open = true;
      last.end = std::max(last.end, u.time);  // span grows on withdraw
      ++last.announcements;
      return;
    }
  }
  OnlineEvent ev;
  ev.prefix = u.prefix;
  ev.sender = track.sender;
  ev.origin = track.origin;
  ev.begin = u.time;
  ev.end = u.time;
  ev.open = true;
  ev.announcements = 1;
  ev.drop.init(u.prefix.length());
  track.events.push_back(events_.size());
  events_.push_back(std::move(ev));
}

void OnlineEventLog::finish(util::TimeMs period_end) {
  for (Track& track : tracks_) {
    if (!track.open) continue;
    OnlineEvent& ev = events_[track.events.back()];
    // Zombie close: the batch appends {open_since, period_end} verbatim.
    ev.end = std::max(ev.end, period_end);
    ev.open = false;
    track.open = false;
    --open_;
  }
}

std::int64_t OnlineEventLog::last_reaching(const Track& track, util::TimeMs t,
                                           util::DurationMs w) const {
  for (auto it = track.events.rbegin(); it != track.events.rend(); ++it) {
    const OnlineEvent& ev = events_[*it];
    if (ev.begin - w > t) continue;  // window starts after t
    if (ev.open || ev.end > t) return static_cast<std::int64_t>(*it);
    // This event ended at or before t. Any earlier event ends before this
    // one begins, i.e. before t too — nothing older can reach t.
    return -1;
  }
  return -1;
}

std::vector<std::pair<net::Ipv4, bgp::Asn>> OnlineEventLog::host_universe()
    const {
  std::vector<std::pair<net::Ipv4, bgp::Asn>> out;
  for (const Track& track : tracks_) {
    if (track.prefix.length() != 32 || track.events.empty()) continue;
    out.emplace_back(track.prefix.network(), track.origin);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace bw::stream::incremental
