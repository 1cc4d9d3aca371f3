#include "stream/incremental/events.hpp"

#include <algorithm>

namespace bw::stream::incremental {

OnlineEventLog::OnlineEventLog(util::DurationMs merge_delta)
    : delta_(merge_delta) {}

void OnlineEventLog::on_update(const bgp::Update& u) {
  if (u.type == bgp::UpdateType::kWithdraw) {
    const auto it = tracks_.find(u.prefix);
    if (it == tracks_.end() || !it->second.open) return;  // no open announce
    Track& track = it->second;
    OnlineEvent& ev = events_[track.events.back()];
    const util::TimeMs end = std::max(u.time, track.open_since);
    ev.end = std::max(ev.end, end);
    ev.open = false;
    track.open = false;
    --open_;
    return;
  }

  auto [it, created] = tracks_.try_emplace(u.prefix);
  Track& track = it->second;
  if (created) {
    track.sender = u.sender_asn;
    track.origin = u.origin_asn;
    if (std::find(lengths_.begin(), lengths_.end(), u.prefix.length()) ==
        lengths_.end()) {
      lengths_.push_back(u.prefix.length());
    }
  }
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
  for (auto& [prefix, track] : tracks_) {
    if (!track.open) continue;
    OnlineEvent& ev = events_[track.events.back()];
    // Zombie close: the batch appends {open_since, period_end} verbatim.
    ev.end = std::max(ev.end, period_end);
    ev.open = false;
    track.open = false;
    --open_;
  }
}

OnlineEvent* OnlineEventLog::open_event(const net::Prefix& prefix) {
  const auto it = tracks_.find(prefix);
  if (it == tracks_.end() || !it->second.open) return nullptr;
  return &events_[it->second.events.back()];
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

bool OnlineEventLog::excluded(net::Ipv4 ip, util::TimeMs t,
                              util::DurationMs window) const {
  const auto it = tracks_.find(net::Prefix::host(ip));
  if (it == tracks_.end()) return false;
  return last_reaching(it->second, t, window) >= 0;
}

std::vector<std::pair<net::Ipv4, bgp::Asn>> OnlineEventLog::host_universe()
    const {
  std::vector<std::pair<net::Ipv4, bgp::Asn>> out;
  for (const auto& [prefix, track] : tracks_) {
    if (prefix.length() != 32 || track.events.empty()) continue;
    out.emplace_back(prefix.network(), track.origin);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace bw::stream::incremental
