// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms for the long multi-stage batch runs blackwatch
// executes (34k events, hundreds of millions of sampled flows at paper
// scale). An unobservable run of that size is undebuggable; this registry
// is the always-on, low-overhead substrate every subsystem reports into.
//
// Design constraints, in order:
//   1. Negligible hot-path cost. Counter::add is one relaxed fetch_add on a
//      per-thread shard (cache-line padded, so concurrent writers never
//      bounce a line). No locks, no allocation, no branches beyond the
//      shard index.
//   2. Deterministic snapshots. A snapshot merges shards in fixed shard
//      order and lists metrics in name order, so two runs that performed
//      the same work produce byte-identical metric JSON — the property the
//      obs determinism test pins at BW_THREADS=1 vs 8.
//   3. Stable handles. Metrics are registered once (mutex-protected map
//      lookup) and the returned reference stays valid for the process
//      lifetime; hot paths cache it in a function-local static.
//
// Naming scheme (enforced by convention, checked by is_deterministic_metric):
//   <subsystem>.<what>[.<unit-suffix>]
//   - names ending in "_us" / "_ns" carry wall/cpu time and are expected to
//     differ run to run;
//   - names starting with "sched." describe scheduling shape (chunk/shard
//     counts) and legitimately vary with the thread count;
//   - every other metric must be a pure function of the input data, i.e.
//     identical at any BW_THREADS.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bw::obs {

/// Shards per metric. Threads hash onto shards by a process-unique thread
/// index, so with pool sizes up to the shard count increments are
/// contention-free; beyond that they merely share a line with one peer.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {
/// Dense per-thread index (assigned on first use), folded onto the shard
/// array.
[[nodiscard]] std::size_t shard_index() noexcept;
}  // namespace detail

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum over shards (relaxed; exact once writers are quiescent).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value (e.g. configured thread count).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram (microseconds). Bucket bounds are powers
/// of four from 1 µs to ~4.2 s plus an overflow bucket — coarse enough to
/// be cheap, fine enough to separate "cache hit" from "regeneration".
class Histogram {
 public:
  static constexpr std::array<std::uint64_t, 12> kBucketBounds = {
      1,     4,      16,     64,      256,     1024,
      4096,  16384,  65536,  262144,  1048576, 4194304};
  static constexpr std::size_t kBucketCount = kBucketBounds.size() + 1;

  void record(std::uint64_t value_us) noexcept {
    auto& shard = shards_[detail::shard_index()];
    shard.counts[bucket_for(value_us)].fetch_add(1,
                                                 std::memory_order_relaxed);
    shard.sum.fetch_add(value_us, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::array<std::uint64_t, kBucketCount> counts{};
    std::uint64_t count{0};  ///< total recordings
    std::uint64_t sum{0};    ///< sum of recorded values (µs)
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;
  void reset() noexcept;

  [[nodiscard]] static std::size_t bucket_for(std::uint64_t value_us) noexcept {
    std::size_t b = 0;
    while (b < kBucketBounds.size() && value_us > kBucketBounds[b]) ++b;
    return b;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> counts{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Point-in-time copy of every registered metric, name-sorted. Two runs
/// performing the same work render byte-identical JSON from this.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  struct Hist {
    std::string name;
    Histogram::Snapshot data;
  };
  std::vector<Hist> histograms;

  /// Counter value by exact name; 0 when absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Stable-key-ordered JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with every map in name order.
  [[nodiscard]] std::string to_json() const;
};

/// True unless the name is timing ("_us"/"_ns" suffix), scheduling-shape
/// ("sched." prefix) or interleaving-dependent ("stream." ingest and
/// "store.chunk." cache counters) — the classes allowed to vary across
/// thread counts and runs.
[[nodiscard]] bool is_deterministic_metric(std::string_view name);

class Registry {
 public:
  /// The process-wide registry every subsystem reports into.
  [[nodiscard]] static Registry& global();

  /// Find-or-create; the reference is valid for the registry's lifetime.
  /// Registration takes a mutex — hot paths cache the reference.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every metric value (handles stay registered and valid). Tests
  /// only — production code accumulates for the process lifetime.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Wall-clock stopwatch on std::chrono::steady_clock — the single clock
/// source for stage timing, BENCH_*.json, and --metrics-out output.
class StopWatch {
 public:
  StopWatch() noexcept { restart(); }
  void restart() noexcept;
  [[nodiscard]] std::uint64_t elapsed_ns() const noexcept;
  [[nodiscard]] std::uint64_t elapsed_us() const noexcept;
  [[nodiscard]] double elapsed_seconds() const noexcept {
    return static_cast<double>(elapsed_us()) * 1e-6;
  }

 private:
  std::uint64_t start_ns_{0};
};

/// Add the watch's elapsed time, in µs, to `counter` and restart the
/// watch: one sub-phase of a phase-split counter family such as
/// dataset.load.*_us.
inline void lap(Counter& counter, StopWatch& watch) {
  counter.add(watch.elapsed_us());
  watch.restart();
}

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Measures the stage-guard thread only — parallel kernels fan work out to
/// pool workers whose cycles are not attributed here.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() noexcept : start_us_(now_us()) {}
  [[nodiscard]] std::uint64_t elapsed_us() const noexcept {
    return now_us() - start_us_;
  }

 private:
  [[nodiscard]] static std::uint64_t now_us() noexcept;
  std::uint64_t start_us_{0};
};

/// RAII: adds elapsed wall-clock µs to `counter` on destruction.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Counter& counter) noexcept : counter_(counter) {}
  ~ScopedTimerUs() { counter_.add(watch_.elapsed_us()); }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Counter& counter_;
  StopWatch watch_;
};

}  // namespace bw::obs
