// End-to-end analysis pipeline and scenario runner.
//
// `run_pipeline` executes the paper's full analysis chain over a Dataset;
// `run_scenario` produces (or loads from cache) the synthetic measurement
// corpus for a scenario configuration. Together they are what every
// example and experiment harness builds on.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/collateral.hpp"
#include "core/dataset.hpp"
#include "core/drop_rate.hpp"
#include "core/event_merge.hpp"
#include "core/filtering.hpp"
#include "core/ingest.hpp"
#include "core/load.hpp"
#include "core/participation.hpp"
#include "core/port_stats.hpp"
#include "core/pre_rtbh.hpp"
#include "core/protocol_mix.hpp"
#include "core/radviz.hpp"
#include "core/time_offset.hpp"
#include "core/visibility.hpp"
#include "gen/scenario.hpp"
#include "util/deadline.hpp"

namespace bw::core {

struct AnalysisConfig {
  util::DurationMs merge_delta{kDefaultMergeDelta};
  PreRtbhConfig pre{};
  DropRateConfig drop{};
  ProtocolMixConfig protocols{};
  PortStatsConfig ports{};
  ClassifyConfig classify{};
  std::uint32_t sampling_rate{10000};
  /// Thread pool for the stage graph and the per-event kernels; null uses
  /// the process-wide pool (sized by $BW_THREADS). The report is identical
  /// for every pool size.
  util::ThreadPool* pool{nullptr};
  /// Per-stage wall-clock budget; 0 = unsupervised. Each stage gets its own
  /// deadline at entry; an over-budget stage is cancelled at its next
  /// cooperative checkpoint and recorded as a timed-out degraded stage —
  /// the rest of the run completes normally.
  util::DurationMs stage_timeout{0};
  /// Fault injection: stages named here throw at entry, exercising the
  /// degraded-mode path (names as in DataQuality::stages). Testing only.
  std::vector<std::string> inject_stage_faults{};
  /// Fault injection: stages named here wedge (poll-sleep loop) until their
  /// deadline expires, exercising the watchdog path deterministically.
  /// Requires stage_timeout > 0. Testing only.
  std::vector<std::string> inject_stage_hangs{};
};

/// Outcome of one pipeline stage. A stage that throws (or reports a Status
/// error) is marked degraded; its report section stays default-constructed
/// and every other section is computed normally.
struct StageStatus {
  std::string name;
  bool degraded{false};
  bool timed_out{false};  ///< degraded specifically by the stage watchdog
  std::string error;      ///< failure description when degraded

  friend bool operator==(const StageStatus&, const StageStatus&) = default;
};

/// One self-healing event on the scenario cache: a cache file that failed
/// validation (or could not be written) and what was done about it. A run
/// with incidents is complete — the corpus was regenerated — but the report
/// must say the cache misbehaved.
struct CacheIncident {
  std::string path;            ///< cache file involved
  std::string quarantined_to;  ///< where the bad bytes went; "" if removed
  std::string error;           ///< the Status that triggered the incident

  friend bool operator==(const CacheIncident&, const CacheIncident&) = default;
};

/// The report's account of how trustworthy this run is: what ingest and
/// sanitation dropped, and which analysis stages failed.
struct DataQuality {
  Dataset::Quality dataset;       ///< quarantine/dedupe accounting
  std::vector<LoadReport> files;  ///< per-file ingest reports (CSV loads)
  std::vector<StageStatus> stages;  ///< every stage, in fixed order
  std::vector<CacheIncident> cache_incidents;  ///< self-healed cache faults

  [[nodiscard]] bool degraded() const {
    for (const auto& s : stages) {
      if (s.degraded) return true;
    }
    return false;
  }
  [[nodiscard]] bool timed_out() const {
    for (const auto& s : stages) {
      if (s.timed_out) return true;
    }
    return false;
  }
  [[nodiscard]] bool clean() const {
    if (degraded() || !dataset.clean() || !cache_incidents.empty()) {
      return false;
    }
    for (const auto& f : files) {
      if (!f.clean()) return false;
    }
    return true;
  }
};

struct AnalysisReport {
  Dataset::Summary summary;
  std::vector<RtbhEvent> events;
  PreRtbhReport pre;
  DropRateReport drop;
  ProtocolMixReport protocols;
  FilteringReport filtering;
  ParticipationReport participation;
  PortStatsReport ports;
  RadvizReport radviz;
  CollateralReport collateral;
  ClassificationReport classes;
  DataQuality data_quality;
};

/// Run the full chain: merge -> pre-RTBH -> drop rates -> protocol mix ->
/// filtering -> participation -> port stats -> RadViz -> collateral ->
/// classification. Stages are isolated: a stage failure degrades its own
/// report section (recorded in data_quality.stages) and never aborts the
/// run or disturbs other sections.
[[nodiscard]] AnalysisReport run_pipeline(const Dataset& dataset,
                                          const AnalysisConfig& config = {});

/// A generated scenario with everything benches/examples need.
struct ScenarioRun {
  Dataset dataset;
  pdb::Registry registry;
  std::vector<bgp::Asn> peer_asns;
  gen::GroundTruth truth;  ///< generator ground truth (validation only)
  /// Cache files this run healed around (load failures quarantined and
  /// regenerated, save failures tolerated). Copy into the analysis report's
  /// DataQuality so the incidents are visible in the rendered document.
  std::vector<CacheIncident> cache_incidents;
};

/// Generate the corpus for `config`, reusing an on-disk cache of the
/// Dataset when available (key: config fingerprint). The cache directory is
/// $BW_CACHE_DIR, defaulting to "bw_cache" under the current directory; an
/// empty cache_dir disables caching.
///
/// Generation is sharded over `pool` (null: the process-wide pool, sized by
/// $BW_THREADS): the scenario's emission plan is cut into contiguous time
/// slices, each replayed concurrently against the prepared platform, and
/// the slice outputs are stitched with a deterministic ordered merge. The
/// corpus is byte-identical at every pool size.
///
/// Robustness: a cache file that fails validation is treated as a cache
/// *miss* — the bad bytes are quarantined to `<name>.corrupt`, the corpus
/// is regenerated, and the incident is recorded in the returned
/// ScenarioRun. Cache writes go through an atomic temp-then-rename commit
/// with a bounded retry on transient filesystem errors; a write that still
/// fails is recorded, never fatal. A non-null `deadline` bounds generation
/// cooperatively (checked per shard chunk and per emission unit); expiry
/// raises util::DeadlineExceeded.
[[nodiscard]] ScenarioRun run_scenario(
    const gen::ScenarioConfig& config,
    std::optional<std::string> cache_dir = std::nullopt,
    util::ThreadPool* pool = nullptr,
    const util::Deadline* deadline = nullptr);

/// Shard count used when generating with `concurrency`-way parallelism: a
/// few shards per worker so the cost-balanced planner can even out slices.
[[nodiscard]] std::size_t generation_shards(std::size_t concurrency);

/// The cache file name (and de-facto scenario fingerprint) run_scenario
/// derives from `config` — e.g. "scenario_3fa9c1d2e47b8a05.bwds". Exposed so
/// tools can record the fingerprint in their run manifests.
[[nodiscard]] std::string scenario_cache_name(const gen::ScenarioConfig& config);

/// The scenario configuration used by all exp_* harnesses: paper-shaped
/// counts at the scale given by $BW_SCALE (default 0.25).
[[nodiscard]] gen::ScenarioConfig default_benchmark_scenario();

}  // namespace bw::core
