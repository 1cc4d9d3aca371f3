#include "obs/manifest.hpp"

#include <sstream>

namespace bw::obs {

namespace {

void append_json_string(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// The "transport" block, in rendering order.
constexpr const char* kTransportCounters[] = {
    "connects",      "connect_failures", "reconnects",   "disconnects",
    "idle_timeouts", "frames",           "heartbeats",   "bytes",
    "discarded_bytes", "resyncs",        "crc_failures", "payload_errors",
    "dead_feeds",    "clean_closes",     "watchdog_fired"};

/// Indent every line of a pre-rendered JSON block by two spaces so the
/// embedded metrics snapshot nests cleanly inside the manifest document.
std::string indent_block(const std::string& block) {
  std::string out;
  out.reserve(block.size() + block.size() / 8);
  for (std::size_t i = 0; i < block.size(); ++i) {
    out.push_back(block[i]);
    if (block[i] == '\n' && i + 1 < block.size()) out.append("  ");
  }
  return out;
}

}  // namespace

void Manifest::populate_from_metrics(const MetricsSnapshot& snapshot) {
  metrics = snapshot;
  cache_hits = snapshot.counter("scenario.cache.hit");
  cache_misses = snapshot.counter("scenario.cache.miss");
  cache_quarantined = snapshot.counter("scenario.cache.quarantined");
  cache_save_failures = snapshot.counter("scenario.cache.save_failure");
  fault_retries = snapshot.counter("retry.backoffs");
  rows_loaded = snapshot.counter("ingest.rows_read");
  rows_skipped = snapshot.counter("ingest.rows_skipped");
  rows_repaired = snapshot.counter("ingest.rows_repaired");
  monitor_alerts = snapshot.counter("monitor.alerts");
  monitor_evictions = snapshot.counter("monitor.evictions");
  if (stream) {
    stream->ingested = snapshot.counter("stream.ingested_bgp") +
                       snapshot.counter("stream.ingested_flow");
    stream->delivered = snapshot.counter("stream.delivered");
    stream->shed = snapshot.counter("stream.shed_total");
    stream->late_dropped = snapshot.counter("stream.late_dropped");
  }
  if (rolling) {
    rolling->snapshots = snapshot.counter("stream.kernel.snapshots");
    rolling->events = snapshot.counter("stream.kernel.events");
    rolling->flows_committed =
        snapshot.counter("stream.kernel.flows_committed");
    rolling->rtbh_events = snapshot.counter("stream.kernel.rtbh_events");
  }
  for (auto& stage : stages) {
    stage.wall_us = snapshot.counter("pipeline.stage." + stage.name + ".wall_us");
    stage.cpu_us = snapshot.counter("pipeline.stage." + stage.name + ".cpu_us");
  }
}

std::string Manifest::to_json() const {
  std::ostringstream os;
  os << "{\n  \"tool\": ";
  append_json_string(os, tool);
  os << ",\n  \"corpus\": ";
  append_json_string(os, corpus);
  os << ",\n  \"scenario_fingerprint\": ";
  append_json_string(os, scenario_fingerprint);
  os << ",\n  \"seed\": ";
  if (has_seed) {
    os << seed;
  } else {
    os << "null";
  }
  os << ",\n  \"threads\": " << threads;
  os << ",\n  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageTime& st = stages[i];
    os << (i == 0 ? "\n    " : ",\n    ") << "{\"name\": ";
    append_json_string(os, st.name);
    os << ", \"wall_us\": " << st.wall_us << ", \"cpu_us\": " << st.cpu_us
       << ", \"degraded\": " << (st.degraded ? "true" : "false")
       << ", \"timed_out\": " << (st.timed_out ? "true" : "false") << "}";
  }
  os << (stages.empty() ? "]" : "\n  ]");
  os << ",\n  \"cache\": {\"hits\": " << cache_hits
     << ", \"misses\": " << cache_misses
     << ", \"quarantined\": " << cache_quarantined
     << ", \"save_failures\": " << cache_save_failures << "}";
  os << ",\n  \"fault_retries\": " << fault_retries;
  os << ",\n  \"ingest\": {\"rows_loaded\": " << rows_loaded
     << ", \"rows_skipped\": " << rows_skipped
     << ", \"rows_repaired\": " << rows_repaired << "}";
  if (monitor) {
    os << ",\n  \"monitor\": {\"alerts\": " << monitor_alerts
       << ", \"evictions\": " << monitor_evictions << "}";
  }
  if (stream) {
    os << ",\n  \"stream\": {\"mode\": ";
    append_json_string(os, stream->mode);
    os << ", \"ingested\": " << stream->ingested
       << ", \"delivered\": " << stream->delivered
       << ", \"shed\": " << stream->shed
       << ", \"late_dropped\": " << stream->late_dropped << "}";
  }
  if (transport) {
    const char* sep = ",\n  \"transport\": {";
    for (const char* name : kTransportCounters) {
      os << sep << '"' << name << "\": "
         << metrics.counter(std::string("stream.transport.") + name);
      sep = ", ";
    }
    os << "}";
  }
  if (rolling) {
    os << ",\n  \"rolling\": {\"report_every_ms\": "
       << rolling->report_every_ms
       << ", \"snapshots\": " << rolling->snapshots
       << ", \"events\": " << rolling->events
       << ", \"flows_committed\": " << rolling->flows_committed
       << ", \"rtbh_events\": " << rolling->rtbh_events << "}";
  }
  os << ",\n  \"metrics\": " << indent_block(metrics.to_json());
  os << "\n}\n";
  return os.str();
}

}  // namespace bw::obs
