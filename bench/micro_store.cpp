// Out-of-core store microbenchmarks (.bwds v3).
//
// Measures the three costs the chunked store trades between:
//   - encode: Dataset::try_save streaming the corpus into column chunks
//   - decode: Dataset::try_load materializing every chunk back to RAM
//   - scans:  per-event predicate scans, pruned (zone maps + blooms)
//             vs. the decode-everything full chunk walk
//
// After the google-benchmark run, main() writes
// $BW_CSV_DIR/BENCH_store.json in the unified bench schema (v2) consumed
// by tools/bench-gate. The gated metric (flows_per_s_by_threads."1") is
// the materializing-load throughput; `pruned_speedup` carries the
// pushdown win for the CI out-of-core job to assert on.
#include <benchmark/benchmark.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/dataset.hpp"
#include "core/event_merge.hpp"
#include "core/pipeline.hpp"
#include "store/flow_store.hpp"
#include "testing/bench_gate.hpp"

namespace {

using namespace bw;

const core::ScenarioRun& corpus() {
  static const core::ScenarioRun run =
      core::run_scenario(core::default_benchmark_scenario());
  return run;
}

/// The saved v3 file for the benchmark corpus (written once).
const std::string& store_path() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "bw_micro_store.bwds")
            .string();
    const util::Status st = corpus().dataset.try_save(p);
    if (!st.ok()) {
      std::cerr << "micro_store: save failed: " << st.to_string() << "\n";
      std::exit(1);
    }
    return p;
  }();
  return path;
}

/// Blackhole-event predicates — the scans the analysis kernels issue.
const std::vector<core::RtbhEvent>& events() {
  static const std::vector<core::RtbhEvent> evs = core::merge_events(
      corpus().dataset.blackhole_updates(), corpus().dataset.period().end);
  return evs;
}

std::uint64_t pruned_scan_rows(const store::FlowStore& store,
                               std::size_t n_events) {
  std::uint64_t rows = 0;
  for (std::size_t e = 0; e < n_events && e < events().size(); ++e) {
    const core::RtbhEvent& ev = events()[e];
    rows += store.scan_dst(ev.prefix, ev.span,
                           [](const store::ChunkData&, std::size_t) {});
  }
  return rows;
}

std::uint64_t full_scan_rows(const store::FlowStore& store,
                             std::size_t n_events) {
  std::uint64_t rows = 0;
  for (std::size_t e = 0; e < n_events && e < events().size(); ++e) {
    const core::RtbhEvent& ev = events()[e];
    store.for_each_chunk([&](const store::ChunkData& ch) {
      rows += ch.cols.resolve_dst(ev.prefix, ev.span).rows();
    });
  }
  return rows;
}

/// Time `scan(store, n_events)` per iteration on a freshly opened store, so
/// no iteration is served from chunks an earlier one left in the cache.
template <typename Scan>
void cold_scan_benchmark(benchmark::State& state, Scan scan) {
  for (auto _ : state) {
    state.PauseTiming();
    auto store = store::FlowStore::open(store_path());
    if (!store.ok()) {
      state.SkipWithError(store.status().to_string().c_str());
      return;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        scan(**store, static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PrunedEventScan(benchmark::State& state) {
  cold_scan_benchmark(state, pruned_scan_rows);
}
BENCHMARK(BM_PrunedEventScan)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_FullChunkScan(benchmark::State& state) {
  cold_scan_benchmark(state, full_scan_rows);
}
BENCHMARK(BM_FullChunkScan)->Arg(2)->Unit(benchmark::kMillisecond);

[[nodiscard]] double peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // KiB on Linux
#endif
#else
  return 0.0;
#endif
}

/// bench_out/BENCH_store.json: cross-PR perf tracking for the chunked
/// store. Encode/decode are whole-corpus walls; the scan comparison is
/// per-event so the speedup is geometry-independent.
void write_store_json() {
  const char* dir_env = std::getenv("BW_CSV_DIR");
  const std::string dir = dir_env != nullptr ? dir_env : "bench_out";
  std::filesystem::create_directories(dir);

  const core::Dataset& dataset = corpus().dataset;
  const auto summary = dataset.summary();
  const double flow_records = static_cast<double>(summary.flow_records);

  // Encode: re-save the corpus (the fixture save above warmed nothing —
  // try_save streams to a fresh temp file and renames).
  const std::string path = store_path();
  const double save_ms = bench::time_best_ms(2, [&] {
    const util::Status st = dataset.try_save(path);
    if (!st.ok()) std::exit(1);
  });
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(path));

  // Decode: materialize the whole corpus back.
  const double load_ms = bench::time_best_ms(2, [&] {
    auto loaded = core::Dataset::try_load(path);
    if (!loaded.ok()) std::exit(1);
    benchmark::DoNotOptimize(loaded);
  });
  const double fps = load_ms > 0.0 ? flow_records / (load_ms / 1000.0) : 0.0;

  // Scans: per-event cost, pruned vs decode-everything. A fresh store per
  // rep keeps the store's chunk cache from flattering either side across
  // reps; the open itself is not timed.
  const std::size_t kPrunedEvents = 64;
  const std::size_t kFullEvents = 2;
  const auto cold_best_ms = [&](int reps, auto scan, std::size_t n_events) {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      auto fresh = store::FlowStore::open(path);
      if (!fresh.ok()) std::exit(1);
      const double ms = bench::time_best_ms(
          1, [&] { benchmark::DoNotOptimize(scan(**fresh, n_events)); });
      if (r == 0 || ms < best) best = ms;
    }
    return best;
  };
  const double pruned_ms = cold_best_ms(3, pruned_scan_rows, kPrunedEvents);
  const double full_ms = cold_best_ms(2, full_scan_rows, kFullEvents);
  auto store = store::FlowStore::open(path);
  if (!store.ok()) std::exit(1);
  const std::size_t pruned_n = std::min(kPrunedEvents, events().size());
  const std::size_t full_n = std::min(kFullEvents, events().size());
  const double pruned_per_event =
      pruned_n > 0 ? pruned_ms / static_cast<double>(pruned_n) : 0.0;
  const double full_per_event =
      full_n > 0 ? full_ms / static_cast<double>(full_n) : 0.0;
  const double speedup =
      pruned_per_event > 0.0 ? full_per_event / pruned_per_event : 0.0;

  std::cerr << "store save_ms=" << save_ms << " load_ms=" << load_ms
            << " pruned_ms/event=" << pruned_per_event
            << " full_ms/event=" << full_per_event << " speedup=" << speedup
            << "\n";

  std::ofstream os(dir + "/BENCH_store.json", std::ios::trunc);
  os << "{\n";
  os << "  \"bench_schema_version\": " << testing::kBenchSchemaVersion
     << ",\n";
  os << "  \"benchmark\": \"store_v3\",\n";
  os << "  \"scale\": " << core::default_benchmark_scenario().scale << ",\n";
  os << "  \"flow_records\": " << summary.flow_records << ",\n";
  os << "  \"file_bytes\": " << file_bytes << ",\n";
  os << "  \"chunk_count\": " << (*store)->chunk_count() << ",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n";
  os << "  \"save_wall_ms\": " << save_ms << ",\n";
  os << "  \"encode_mb_per_s\": "
     << (save_ms > 0.0 ? file_bytes / 1.0e6 / (save_ms / 1000.0) : 0.0)
     << ",\n";
  os << "  \"decode_mb_per_s\": "
     << (load_ms > 0.0 ? file_bytes / 1.0e6 / (load_ms / 1000.0) : 0.0)
     << ",\n";
  os << "  \"pruned_scan_ms_per_event\": " << pruned_per_event << ",\n";
  os << "  \"full_scan_ms_per_event\": " << full_per_event << ",\n";
  os << "  \"pruned_speedup\": " << speedup << ",\n";
  os << "  \"peak_rss_bytes\": " << peak_rss_bytes() << ",\n";
  os << "  \"wall_ms_by_threads\": {\n";
  os << "    \"1\": " << load_ms << "\n";
  os << "  },\n";
  os << "  \"flows_per_s_by_threads\": {\n";
  os << "    \"1\": " << fps << "\n";
  os << "  }\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_store_json();
  std::error_code ec;
  std::filesystem::remove(store_path(), ec);
  return 0;
}
