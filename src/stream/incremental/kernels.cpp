#include "stream/incremental/kernels.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace bw::stream::incremental {

namespace {

obs::Counter& kernel_counter(const char* what) {
  return obs::Registry::global().counter(std::string("stream.kernel.") + what);
}

}  // namespace

IncrementalSnapshot IncrementalKernels::snapshot(bool final_report,
                                                 std::size_t topk) {
  IncrementalSnapshot snap;
  snap.final_report = final_report;
  drop_.snapshot(snap, topk);
  commit_.snapshot(snap);
  return snap;
}

DropKernels::DropKernels(IncrementalConfig config)
    : cfg_(std::move(config)),
      log_(cfg_.merge_delta, core::EventLog::Intervals::kSkip),
      topk_(cfg_.topk_capacity, cfg_.topk_exact) {}

void DropKernels::on_event(const StreamEvent& ev) {
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
      tallies_.emplace_back().init(ev.update.prefix.length());
      stale_.push_back(true);
    }
    return;
  }
  ++flows_seen_;
  const flow::FlowRecord& rec = ev.flow;
  // Drop tally at delivery: the record counts toward every event whose
  // prefix contains its destination and is mid-interval right now —
  // exactly the batch membership (see the header's ordering argument).
  // The tally (DropEventTally) merges through the batch kernel's
  // assemble_drop_rate_report.
  log_.for_each_open(rec.dst_ip, [&](std::size_t event) {
    core::DropEventTally& tally = tallies_[event];
    tally.add(rec.packets, rec.bytes, rec.dropped(),
              tally.host_event && cfg_.member_asn
                  ? cfg_.member_asn(rec.src_mac)
                  : std::nullopt);
    stale_[event] = true;
  });
  topk_.add({rec.proto, rec.dst_port}, rec.packets);
}

void DropKernels::finish(util::TimeMs period_end) { log_.finish(period_end); }

void DropKernels::refresh_drop_deltas() {
  const std::vector<core::RtbhEvent>& events = log_.events();
  while (position_.size() < events.size()) {
    const std::size_t pos = core::slot_event(events, position_);
    deltas_.insert(deltas_.begin() + static_cast<std::ptrdiff_t>(pos),
                   core::DropEventDelta{});
  }
  // New events start stale, so this also flattens them.
  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    if (!stale_[idx]) continue;
    deltas_[position_[idx]] = tallies_[idx].delta();
    stale_[idx] = false;
  }
}

void DropKernels::snapshot(IncrementalSnapshot& snap, std::size_t topk) {
  snap.clock = clock_;
  snap.events_seen = events_seen_;
  snap.bgp_seen = bgp_seen_;
  snap.flows_seen = flows_seen_;
  snap.rtbh_events = log_.events().size();
  snap.open_rtbh_events = log_.open_count();

  // Per-event tallies through the shared assembler.
  refresh_drop_deltas();
  snap.drop = core::assemble_drop_rate_report(deltas_, cfg_.drop,
                                              deltas_.size());

  snap.top_ports = topk_.top(topk);
  snap.topk_total = topk_.total_weight();
  snap.topk_max_error = topk_.max_error();
}

CommitKernels::CommitKernels(IncrementalConfig config)
    : cfg_(std::move(config)),
      lag_(std::max(cfg_.ports.reaction_window, cfg_.merge_delta)),
      log_(cfg_.merge_delta, core::EventLog::Intervals::kSkip) {}

void CommitKernels::on_event(const StreamEvent& ev) {
  clock_ = ev.time;
  if (ev.kind == EventKind::kBgpUpdate) {
    log_.on_update(ev.update);
  } else {
    const flow::FlowRecord& rec = ev.flow;
    pending_.push({rec.time, rec.packets, rec.src_ip, rec.dst_ip,
                   rec.src_port, rec.dst_port, rec.proto, rec.dropped()});
  }
  if (++undrained_ == kDrainBatch) drain_pending();
}

void CommitKernels::PendingRing::grow() {
  std::vector<PendingFlow> bigger(slots_.empty() ? 1024 : slots_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
  }
  slots_ = std::move(bigger);
  head_ = 0;
}

void CommitKernels::drain_pending(bool all) {
  static obs::Counter& commit_us = kernel_counter("commit_us");
  undrained_ = 0;
  const obs::StopWatch watch;
  while (!pending_.empty() && (all || pending_.front().time + lag_ < clock_)) {
    commit(pending_.front());
    pending_.pop();
  }
  commit_us.add(watch.elapsed_us());
}

CommitKernels::HostState& CommitKernels::host(net::Ipv4 ip) {
  const auto [id, created] = host_ids_.try_emplace(
      ip.value(), static_cast<std::uint32_t>(hosts_.size()));
  if (created) hosts_.emplace_back();
  return hosts_[id];
}

void CommitKernels::commit(const PendingFlow& f) {
  static obs::Counter& committed = kernel_counter("flows_committed");
  committed.add();
  ++flows_committed_;

  const std::int64_t day =
      util::slot_index(f.time - cfg_.period.begin, util::kDay);
  const util::DurationMs window = cfg_.ports.reaction_window;
  const std::uint32_t dst_track = log_.host_track(f.dst_ip);
  if (!log_.excluded(dst_track, f.time, window)) {
    HostState& h = host(f.dst_ip);
    h.acc.add_inbound(day, f.src_port, f.proto, f.dst_port, f.packets);
    h.row_stale = true;
  }
  if (!log_.excluded(log_.host_track(f.src_ip), f.time, window)) {
    HostState& h = host(f.src_ip);
    h.acc.add_outbound(day, f.src_port, f.dst_port);
    h.row_stale = true;
  }

  log_.for_each_covering(f.dst_ip, dst_track, f.time, [&](std::size_t event) {
    const auto [group, new_group] = collateral_group_ids_.try_emplace(
        static_cast<std::uint64_t>(event) << 32 | f.dst_ip.value(),
        static_cast<std::uint32_t>(collateral_groups_.size()));
    if (new_group) {
      collateral_groups_.push_back(
          {static_cast<std::uint32_t>(event), f.dst_ip});
    }
    const std::uint32_t port = net::port_key({f.proto, f.dst_port});
    const auto [cell, new_cell] = collateral_ids_.try_emplace(
        static_cast<std::uint64_t>(group) << 32 | port,
        static_cast<std::uint32_t>(collateral_.size()));
    if (new_cell) collateral_.push_back({group, port, 0, 0});
    CollateralCell& c = collateral_[cell];
    c.packets += f.packets;
    if (f.dropped) c.dropped += f.packets;
  });
}

void CommitKernels::finish(util::TimeMs period_end) {
  // Flows the clock already made final commit against the log as it was;
  // only the rest see the zombie close.
  drain_pending();
  log_.finish(period_end);
  drain_pending(/*all=*/true);
}

void CommitKernels::snapshot(IncrementalSnapshot& snap) {
  // Due flows may still wait for their batch; the line reports them
  // committed, as it would had each committed at its own event.
  drain_pending();
  snap.flows_committed = flows_committed_;
  snap.flows_pending = pending_.size();

  // --- port stats: universe hosts with any committed record, finalized by
  // the shared finalize_port_host when their accumulator changed ---
  const auto universe = log_.host_universe();
  snap.ports.blackholed_hosts_total = universe.size();
  snap.ports.hosts.reserve(universe.size());
  for (const auto& [ip, origin] : universe) {
    const std::uint32_t id = host_ids_.find(ip.value());
    if (id == util::FlatIndex::kNone) continue;  // no record outside RTBH
    HostState& h = hosts_[id];
    if (h.row_stale) {
      // The origin is frozen at the prefix's first announce, so only the
      // accumulator can invalidate a cached row.
      h.row = core::finalize_port_host(
          ip, origin != 0 ? std::optional<bgp::Asn>(origin) : std::nullopt,
          h.acc, cfg_.ports);
      h.row_stale = false;
    }
    snap.ports.hosts.push_back(h.row);
  }
  for (const core::HostPortStats& h : snap.ports.hosts) {
    if (h.classification == core::HostClass::kUnclassified) continue;
    ++snap.ports.eligible_hosts;
    if (h.classification == core::HostClass::kClient) ++snap.ports.clients;
    else ++snap.ports.servers;
  }

  // --- collateral: join the (event, host, port) cells against the servers
  // just detected, then the shared assembler. Hosts are in address order,
  // so a group finds its server by binary search; a row's event index is
  // the event's report position. ---
  while (position_.size() < log_.events().size()) {
    core::slot_event(log_.events(), position_);
  }
  const std::vector<core::HostPortStats>& hosts = snap.ports.hosts;
  constexpr std::uint32_t kNoRow = 0xffffffffu;
  std::vector<core::CollateralEvent> rows;
  std::vector<std::uint32_t> row_of(collateral_groups_.size(), kNoRow);
  std::vector<const core::HostPortStats*> server_of(collateral_groups_.size());
  for (std::size_t g = 0; g < collateral_groups_.size(); ++g) {
    const CollateralGroup& group = collateral_groups_[g];
    const auto it = std::lower_bound(
        hosts.begin(), hosts.end(), group.host,
        [](const core::HostPortStats& h, net::Ipv4 ip) { return h.ip < ip; });
    if (it == hosts.end() || it->ip != group.host ||
        it->classification != core::HostClass::kServer) {
      continue;
    }
    row_of[g] = static_cast<std::uint32_t>(rows.size());
    server_of[g] = &*it;
    core::CollateralEvent ce;
    ce.server = group.host;
    ce.event_index = position_[group.event];
    rows.push_back(ce);
  }
  for (const CollateralCell& c : collateral_) {
    if (row_of[c.group] == kNoRow) continue;
    // finalize_port_host emits top_ports in key order.
    const std::vector<net::ProtoPort>& top = server_of[c.group]->top_ports;
    if (!std::binary_search(top.begin(), top.end(),
                            net::from_port_key(c.port))) {
      continue;
    }
    core::CollateralEvent& ce = rows[row_of[c.group]];
    ce.packets_to_top_ports += c.packets;
    ce.packets_actually_dropped += c.dropped;
  }
  snap.collateral = core::assemble_collateral_report(
      std::move(rows), snap.ports.servers, cfg_.sampling_rate);
}

}  // namespace bw::stream::incremental
