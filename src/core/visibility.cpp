#include "core/visibility.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/stats.hpp"

namespace bw::core {

namespace {

struct SpanInfo {
  util::TimeRange range;
  bgp::Asn sender{0};
  /// Non-empty only when the announcement carried distribution actions:
  /// flag per peer index, 1 = peer does NOT receive this route.
  std::vector<std::uint8_t> excluded;
};

bool has_action_communities(const std::vector<bgp::Community>& communities,
                            std::uint16_t rs_asn) {
  for (const auto& c : communities) {
    if (c.global == 0) return true;
    if (c.global == rs_asn) return true;
  }
  return false;
}

}  // namespace

VisibilityReport compute_visibility(const Dataset& dataset,
                                    const std::vector<bgp::Asn>& peers,
                                    util::DurationMs sample_interval) {
  VisibilityReport report;
  report.sample_interval = std::max<util::DurationMs>(sample_interval, 1);
  if (peers.empty()) return report;

  // The route-server ASN is visible in the control data itself: it is the
  // next-hop-announcing session; we infer it as the most common `global`
  // part of positive action communities (the smallest ASN on a tie),
  // falling back to the default.
  std::uint16_t rs_asn = 64600;
  {
    std::unordered_map<std::uint16_t, std::size_t> votes;
    for (const auto& u : dataset.blackhole_updates()) {
      for (const auto& c : u.communities) {
        if (c.global != 0 && c.global != 65535) ++votes[c.global];
      }
    }
    std::size_t best = 0;
    for (const auto& [asn, n] : votes) {
      if (n > best || (n == best && asn < rs_asn)) {
        best = n;
        rs_asn = asn;
      }
    }
  }
  const bgp::TargetedAnnouncement targeted(rs_asn);

  std::unordered_map<bgp::Asn, std::size_t> peer_index;
  for (std::size_t i = 0; i < peers.size(); ++i) peer_index[peers[i]] = i;

  // Collect spans; precompute exclusion bitmaps for targeted ones.
  std::vector<SpanInfo> spans;
  dataset.rs_index().for_each([&](const net::Prefix&,
                                  const std::vector<bgp::BlackholeIndex::Span>&
                                      prefix_spans) {
    for (const auto& s : prefix_spans) {
      SpanInfo info;
      info.range = s.range;
      info.sender = s.sender;
      if (has_action_communities(s.communities, rs_asn)) {
        info.excluded.resize(peers.size(), 0);
        for (std::size_t i = 0; i < peers.size(); ++i) {
          const auto p16 = static_cast<std::uint16_t>(peers[i] & 0xFFFF);
          if (!targeted.should_announce(s.communities, p16)) {
            info.excluded[i] = 1;
          }
        }
      }
      spans.push_back(std::move(info));
    }
  });

  // Event-driven sweep over sample times.
  struct Edge {
    util::TimeMs time;
    std::size_t span;
    bool open;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    edges.push_back({spans[i].range.begin, i, true});
    edges.push_back({spans[i].range.end, i, false});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    return !a.open && b.open;  // close before open at identical times
  });

  std::unordered_map<bgp::Asn, std::size_t> active_plain_by_sender;
  std::vector<std::size_t> active_targeted;
  std::size_t active_total = 0;
  std::size_t edge_pos = 0;

  const util::TimeRange period = dataset.period();
  std::vector<double> missed(peers.size());
  for (util::TimeMs t = period.begin; t < period.end;
       t += report.sample_interval) {
    while (edge_pos < edges.size() && edges[edge_pos].time <= t) {
      const Edge& e = edges[edge_pos++];
      const SpanInfo& s = spans[e.span];
      if (s.excluded.empty()) {
        auto& n = active_plain_by_sender[s.sender];
        if (e.open) {
          ++n;
          ++active_total;
        } else if (n > 0) {
          --n;
          --active_total;
        }
      } else {
        if (e.open) {
          active_targeted.push_back(e.span);
          ++active_total;
        } else {
          const auto it = std::find(active_targeted.begin(),
                                    active_targeted.end(), e.span);
          if (it != active_targeted.end()) {
            active_targeted.erase(it);
            --active_total;
          }
        }
      }
    }

    VisibilityPoint point;
    point.time = t;
    point.announced = active_total;
    if (active_total > 0) {
      for (std::size_t i = 0; i < peers.size(); ++i) {
        double m = 0.0;
        const auto it = active_plain_by_sender.find(peers[i]);
        if (it != active_plain_by_sender.end()) {
          m += static_cast<double>(it->second);  // own routes not echoed
        }
        for (const std::size_t si : active_targeted) {
          const SpanInfo& s = spans[si];
          if (s.sender == peers[i] || s.excluded[i] != 0) m += 1.0;
        }
        missed[i] = m / static_cast<double>(active_total);
      }
      std::vector<double> sorted = missed;
      std::sort(sorted.begin(), sorted.end());
      point.missed_max = sorted.back();
      point.missed_p99 = util::quantile(sorted, 0.99);
      point.missed_median = util::quantile(sorted, 0.50);
    }
    report.overall_missed_max =
        std::max(report.overall_missed_max, point.missed_max);
    report.overall_missed_median_peak =
        std::max(report.overall_missed_median_peak, point.missed_median);
    report.series.push_back(point);
  }
  return report;
}

}  // namespace bw::core
