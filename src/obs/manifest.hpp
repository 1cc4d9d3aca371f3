// Auditable run manifests.
//
// Reproduction work in this space (Eumann et al.'s reproducibility study of
// inter-domain spoofing detection) shows that a measurement pipeline's
// numbers are only trustworthy when each run records what ran, on what
// corpus, with what parameters, and what the intermediate counts were. A
// Manifest is that record: one stable-key-ordered JSON document per run,
// combining run identity (tool, corpus, scenario fingerprint, seed, thread
// count), per-stage wall/CPU time, the self-healing counters (cache
// hit/miss/quarantine, fault retries), ingest row totals, monitor
// alert/eviction counts, and the full metrics snapshot.
//
// Two manifests from runs over the same corpus must agree on every
// deterministic field (see obs::is_deterministic_metric); only the timing
// entries may differ. That is what makes manifests comparable across runs,
// machines, and thread counts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace bw::obs {

struct Manifest {
  // --- run identity ---
  std::string tool;    ///< e.g. "bw-analyze"
  std::string corpus;  ///< input path (or cache file name for generation)
  std::string scenario_fingerprint;  ///< cache key; "" when not a scenario
  bool has_seed{false};
  std::uint64_t seed{0};
  std::size_t threads{0};  ///< configured pool concurrency

  // --- per-stage accounting (pipeline runs only, fixed stage order) ---
  struct StageTime {
    std::string name;
    std::uint64_t wall_us{0};
    std::uint64_t cpu_us{0};  ///< stage-guard thread CPU (see ThreadCpuTimer)
    bool degraded{false};
    bool timed_out{false};
  };
  std::vector<StageTime> stages;

  // --- headline counters, duplicated out of `metrics` for easy diffing ---
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t cache_quarantined{0};
  std::uint64_t cache_save_failures{0};
  std::uint64_t fault_retries{0};  ///< retry_with_backoff sleeps taken
  std::uint64_t rows_loaded{0};    ///< CSV rows accepted across all files
  std::uint64_t rows_skipped{0};
  std::uint64_t rows_repaired{0};
  std::uint64_t monitor_alerts{0};
  std::uint64_t monitor_evictions{0};

  // The blocks below are emitted only by the runs that own them: a tool
  // engages a block (emplace, or the flag) before populate_from_metrics.

  bool monitor{false};  ///< a monitor ran: render the "monitor" block

  // --- streaming ingest (bw-monitor --replay and live runs) ---
  struct StreamBlock {
    std::string mode;            ///< shed-mode name
    std::uint64_t ingested{0};   ///< events produced by the feeds
    std::uint64_t delivered{0};  ///< events that reached the monitor
    std::uint64_t shed{0};       ///< events shed by backpressure policy
    std::uint64_t late_dropped{0};  ///< events behind their watermark
  };
  std::optional<StreamBlock> stream;

  // --- live transport sessions (bw-monitor --listen/--connect): when set,
  // to_json renders every stream.transport.* counter as the "transport"
  // block, which the chaos harness reconciles against its ground-truth
  // fault log. ---
  bool transport{false};

  // --- rolling incremental reports (bw-monitor --rolling-out running the
  // kernels). Mirrors stream.kernel.*; the final snapshot of a no-shed
  // replay is the batch kernels' fixed point. ---
  struct RollingBlock {
    std::uint64_t report_every_ms{0};  ///< event-time cadence, 0 = final only
    std::uint64_t snapshots{0};
    std::uint64_t events{0};           ///< StreamEvents into the kernels
    std::uint64_t flows_committed{0};  ///< records past the commit horizon
    std::uint64_t rtbh_events{0};      ///< online merged events created
  };
  std::optional<RollingBlock> rolling;

  /// Full registry snapshot embedded under "metrics".
  MetricsSnapshot metrics;

  /// Fill the headline counters, the engaged blocks and per-stage wall/cpu
  /// times from a snapshot (by the documented metric names). Stage entries
  /// must already be present (pushed in pipeline order by the caller);
  /// only their timings are filled in.
  void populate_from_metrics(const MetricsSnapshot& snapshot);

  /// Stable-key-ordered JSON document (fixed field order; maps inside the
  /// embedded snapshot are name-sorted).
  [[nodiscard]] std::string to_json() const;
};

}  // namespace bw::obs
