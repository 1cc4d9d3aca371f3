#include "obs/metrics.hpp"

#include <chrono>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <ctime>
#endif

namespace bw::obs {

namespace detail {

std::size_t shard_index() noexcept {
  // Dense process-unique thread index: threads that exist concurrently get
  // distinct shards until kMetricShards is exceeded; after that they share.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

}  // namespace detail

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot s;
  // Fixed shard order: the merged result is a plain sum, identical no
  // matter which thread landed in which shard.
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      s.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    s.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (std::size_t b = 0; b < kBucketCount; ++b) s.count += s.counts[b];
  return s;
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

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

}  // namespace

std::string MetricsSnapshot::to_json() const {
  // The input vectors are name-sorted by Registry::snapshot (std::map
  // iteration order), so the rendered object has stable key order.
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    append_json_string(os, counters[i].first);
    os << ": " << counters[i].second;
  }
  os << (counters.empty() ? "}" : "\n  }");
  os << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    append_json_string(os, gauges[i].first);
    os << ": " << gauges[i].second;
  }
  os << (gauges.empty() ? "}" : "\n  }");
  os << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    os << (i == 0 ? "\n    " : ",\n    ");
    append_json_string(os, h.name);
    os << ": {\"count\": " << h.data.count << ", \"sum_us\": " << h.data.sum
       << ", \"bucket_bounds_us\": [";
    for (std::size_t b = 0; b < Histogram::kBucketBounds.size(); ++b) {
      os << (b == 0 ? "" : ", ") << Histogram::kBucketBounds[b];
    }
    os << "], \"bucket_counts\": [";
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      os << (b == 0 ? "" : ", ") << h.data.counts[b];
    }
    os << "]}";
  }
  os << (histograms.empty() ? "}" : "\n  }");
  os << "\n}";
  return os.str();
}

bool is_deterministic_metric(std::string_view name) {
  if (name.starts_with("sched.")) return false;
  // Streaming-ingest counters depend on producer/consumer interleaving in
  // threaded replay (lockstep replay pins them, but the class of the metric
  // is what two arbitrary runs may be compared on).
  if (name.starts_with("stream.")) return false;
  // Store chunk-cache counters depend on thread interleaving once the
  // working set exceeds the cache budget: which chunk is least recently
  // used, and so evicted and later decoded again, follows the schedule.
  // store.chunk.bytes_decoded follows the decode count, so it goes too.
  if (name.starts_with("store.chunk.")) return false;
  if (name.ends_with("_us") || name.ends_with("_ns")) return false;
  return true;
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;  // handles outlive static-destruction order games
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back({name, h->snapshot()});
  }
  return s;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void StopWatch::restart() noexcept {
  start_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t StopWatch::elapsed_ns() const noexcept {
  const auto now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now_ns - start_ns_;
}

std::uint64_t StopWatch::elapsed_us() const noexcept {
  return elapsed_ns() / 1000;
}

std::uint64_t ThreadCpuTimer::now_us() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000u +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
  }
#endif
  return 0;  // platform without thread CPU clocks: cpu_us reads as 0
}

}  // namespace bw::obs
