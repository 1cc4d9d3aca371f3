#include "stream/incremental/kernels.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace bw::stream::incremental {

namespace {

obs::Counter& kernel_counter(const char* what) {
  return obs::Registry::global().counter(std::string("stream.kernel.") + what);
}

}  // namespace

IncrementalKernels::IncrementalKernels(IncrementalConfig config)
    : cfg_(std::move(config)),
      lag_(std::max(cfg_.ports.reaction_window, cfg_.merge_delta)),
      log_(cfg_.merge_delta),
      topk_(cfg_.topk_capacity, cfg_.topk_exact) {}

void IncrementalKernels::on_event(const StreamEvent& ev) {
  static obs::Counter& seen = kernel_counter("events");
  seen.add();
  ++events_seen_;
  clock_ = ev.time;

  if (ev.kind == EventKind::kBgpUpdate) {
    ++bgp_seen_;
    const std::size_t before = log_.events().size();
    log_.on_update(ev.update);
    if (log_.events().size() != before) {
      static obs::Counter& created = kernel_counter("rtbh_events");
      created.add();
    }
  } else {
    ++flows_seen_;
    const flow::FlowRecord& rec = ev.flow;
    // Drop tally at delivery: the record counts toward every event whose
    // prefix contains its destination and is mid-interval right now —
    // exactly the batch membership (see the header's ordering argument).
    // The tally itself is the batch records engine's (DropEventTally).
    log_.for_each_open(rec.dst_ip, [&](OnlineEvent& event) {
      event.drop.add(rec.packets, rec.bytes, rec.dropped(),
                     event.drop.host_event && cfg_.member_asn
                         ? cfg_.member_asn(rec.src_mac)
                         : std::nullopt);
      event.drop_stale = true;
    });
    topk_.add({rec.proto, rec.dst_port}, rec.packets);
    pending_.push_back(rec);
  }
  drain_pending();
}

void IncrementalKernels::drain_pending() {
  while (!pending_.empty() && pending_.front().time + lag_ < clock_) {
    commit(pending_.front());
    pending_.pop_front();
  }
}

void IncrementalKernels::commit(const flow::FlowRecord& rec) {
  static obs::Counter& committed = kernel_counter("flows_committed");
  committed.add();
  ++flows_committed_;

  const std::int64_t day =
      util::slot_index(rec.time - cfg_.period.begin, util::kDay);
  if (!log_.excluded(rec.dst_ip, rec.time, cfg_.ports.reaction_window)) {
    HostAccumulator& h = port_acc_[rec.dst_ip];
    h.acc.add_inbound(day, rec.src_port, rec.proto, rec.dst_port,
                      rec.packets);
    h.row_stale = true;
  }
  if (!log_.excluded(rec.src_ip, rec.time, cfg_.ports.reaction_window)) {
    HostAccumulator& h = port_acc_[rec.src_ip];
    h.acc.add_outbound(day, rec.src_port, rec.dst_port);
    h.row_stale = true;
  }

  log_.for_each_covering(rec.dst_ip, rec.time, [&](std::size_t event) {
    const std::uint64_t key = (static_cast<std::uint64_t>(event) << 32) |
                              rec.dst_ip.value();
    CollateralCounts& c = collateral_[key][{rec.proto, rec.dst_port}];
    c.packets += rec.packets;
    if (rec.dropped()) c.dropped += rec.packets;
  });
}

void IncrementalKernels::finish(util::TimeMs period_end) {
  log_.finish(period_end);
  while (!pending_.empty()) {
    commit(pending_.front());
    pending_.pop_front();
  }
}

void IncrementalKernels::refresh_drop_deltas() {
  std::deque<OnlineEvent>& events = log_.events();
  // Events in the batch report order (span.begin, prefix). An event's begin
  // is fixed at creation and creation follows delivery time, so a new event
  // sorts after all but the equal-begin tail: the insertion shifts only
  // that tail.
  const auto before = [&events](std::size_t a, std::size_t b) {
    if (events[a].begin != events[b].begin) {
      return events[a].begin < events[b].begin;
    }
    return events[a].prefix < events[b].prefix;
  };
  position_.resize(events.size());
  for (std::size_t idx = order_.size(); idx < events.size(); ++idx) {
    const auto at = std::upper_bound(order_.begin(), order_.end(), idx, before);
    const auto pos = at - order_.begin();
    order_.insert(at, idx);
    deltas_.insert(deltas_.begin() + pos, core::DropEventDelta{});
    for (std::size_t p = static_cast<std::size_t>(pos); p < order_.size();
         ++p) {
      position_[order_[p]] = p;
    }
  }
  // New events start stale, so this also flattens them.
  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    OnlineEvent& event = events[idx];
    if (!event.drop_stale) continue;
    deltas_[position_[idx]] = event.drop.delta();
    event.drop_stale = false;
  }
}

IncrementalSnapshot IncrementalKernels::snapshot(bool final_report,
                                                 std::size_t topk) {
  static obs::Counter& snapshots = kernel_counter("snapshots");
  snapshots.add();

  IncrementalSnapshot snap;
  snap.clock = clock_;
  snap.final_report = final_report;
  snap.events_seen = events_seen_;
  snap.bgp_seen = bgp_seen_;
  snap.flows_seen = flows_seen_;
  snap.flows_committed = flows_committed_;
  snap.flows_pending = pending_.size();
  snap.rtbh_events = log_.events().size();
  snap.open_rtbh_events = log_.open_count();

  // --- drop rates: per-event tallies through the shared assembler ---
  refresh_drop_deltas();
  snap.drop = core::assemble_drop_rate_report(deltas_, cfg_.drop,
                                              deltas_.size());

  // --- port stats: universe hosts with any committed record, finalized by
  // the shared finalize_port_host when their accumulator changed ---
  const auto universe = log_.host_universe();
  snap.ports.blackholed_hosts_total = universe.size();
  snap.ports.hosts.reserve(universe.size());
  for (const auto& [ip, origin] : universe) {
    const auto it = port_acc_.find(ip);
    if (it == port_acc_.end()) continue;  // no record outside RTBH windows
    HostAccumulator& h = it->second;
    core::HostPortStats& row = host_rows_[ip];
    if (h.row_stale) {
      // The origin is frozen at the prefix's first announce, so only the
      // accumulator can invalidate a cached row.
      row = core::finalize_port_host(
          ip, origin != 0 ? std::optional<bgp::Asn>(origin) : std::nullopt,
          h.acc, cfg_.ports);
      h.row_stale = false;
    }
    snap.ports.hosts.push_back(row);
  }
  for (const core::HostPortStats& h : snap.ports.hosts) {
    if (h.classification == core::HostClass::kUnclassified) continue;
    ++snap.ports.eligible_hosts;
    if (h.classification == core::HostClass::kClient) ++snap.ports.clients;
    else ++snap.ports.servers;
  }

  // --- collateral: join the per-(event, host) tallies against the servers
  // just detected, then the shared assembler ---
  std::unordered_map<net::Ipv4, const core::HostPortStats*> servers;
  for (const core::HostPortStats& h : snap.ports.hosts) {
    if (h.classification == core::HostClass::kServer) servers.emplace(h.ip, &h);
  }
  std::vector<core::CollateralEvent> rows;
  rows.reserve(collateral_.size());
  for (const auto& [key, ports] : collateral_) {
    const net::Ipv4 ip(static_cast<std::uint32_t>(key & 0xffffffffu));
    const auto sit = servers.find(ip);
    if (sit == servers.end()) continue;
    const core::HostPortStats* server = sit->second;
    core::CollateralEvent ce;
    ce.server = ip;
    ce.event_index = position_[key >> 32];
    for (const auto& [pp, counts] : ports) {
      // finalize_port_host emits top_ports in key order.
      if (!std::binary_search(server->top_ports.begin(),
                              server->top_ports.end(), pp)) {
        continue;
      }
      ce.packets_to_top_ports += counts.packets;
      ce.packets_actually_dropped += counts.dropped;
    }
    rows.push_back(ce);
  }
  snap.collateral = core::assemble_collateral_report(
      std::move(rows), servers.size(), cfg_.sampling_rate);

  snap.top_ports = topk_.top(topk);
  snap.topk_total = topk_.total_weight();
  snap.topk_max_error = topk_.max_error();
  return snap;
}

}  // namespace bw::stream::incremental
