// Rolling report emission for the incremental kernels.
//
// A RollingReporter sits behind the stream consumer: every delivered event
// goes into both halves of the incremental kernels, and whenever delivered
// event time crosses a `report_every` boundary a snapshot is rendered as
// one JSONL line. Cadence is *event time* — driven by the
// watermark-ordered delivery clock, not wall time — so lockstep and
// threaded no-shed runs of the same corpus emit byte-identical snapshot
// sequences.
//
// Line shape (stable field order):
//
//   {"snapshot":N,"final":B,"clock":T,...counters...,"topk":[...],
//    "topk_stability":S,"figures":{...}}
//
// "figures" is rendered by figures_json() — the one renderer shared with
// the batch side — and deliberately placed last, so a consumer (or the
// convergence tests) can compare the figures of two lines by substring
// from `"figures":`. The convergence contract: the final line's figures of
// a full no-shed replay equal figures_json() of the batch reports, byte
// for byte.
//
// Each half of the kernels (kernels.hpp) keeps its own cadence and renders
// its parts of every line, which are stitched in field order: drop head
// ("snapshot" .. "flows"), commit head ("committed", "pending"), drop
// middle ("rtbh_events" .. "figures":{"drop":..), commit tail
// (,"ports":..,"collateral":..}}). So the halves may run on two threads.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "stream/incremental/kernels.hpp"
#include "util/atomic_file.hpp"
#include "util/status.hpp"

namespace bw::stream::incremental {

struct RollingConfig {
  IncrementalConfig kernels;
  /// Event-time snapshot cadence; 0 emits only the final snapshot. The
  /// cadence anchors at the first delivered event's time.
  util::DurationMs report_every{0};
  /// JSONL output path. Each line streams to its temp file as it is
  /// stitched, and finish() renames it over the path; a reporter dropped
  /// before finish() leaves neither. Empty keeps the lines in memory for
  /// lines() instead.
  std::string out_path;
  /// Entries of the "topk" array in each line.
  std::size_t topk_k{10};
};

class RollingReporter {
 public:
  explicit RollingReporter(RollingConfig config);

  /// Feed one delivered event (call after the monitor saw it) to both
  /// halves of the kernels, in sequence. Emits zero or more snapshot
  /// lines. Single-consumer, like the kernels.
  void on_event(const StreamEvent& ev);

  /// The two halves of the kernels: DropKernels and CommitKernels.
  enum class Half : std::uint8_t { kDrop, kCommit };

  /// Feed one delivered event to one half. The two halves may be fed on
  /// two threads at once, each every event in delivery order; a line is
  /// stitched once both halves have rendered their parts of it.
  void on_event(Half half, const StreamEvent& ev);

  /// End of stream: finish the kernels and emit the final snapshot line
  /// (always, regardless of cadence), then commit out_path if set. Once
  /// only: later calls return OK.
  [[nodiscard]] util::Status finish(util::TimeMs period_end);

  /// Whether out_path's temp file opened (util::AtomicFile::status());
  /// OK without out_path. Read it before feeding, so an unwritable path
  /// fails a run up front instead of at finish().
  [[nodiscard]] util::Status status() const {
    return out_ ? out_->status() : util::Status();
  }

  /// The stitched lines when no out_path is set (empty otherwise); read
  /// them while no half is being fed.
  [[nodiscard]] const std::vector<std::string>& lines() const noexcept {
    return lines_;
  }
  /// Lines stitched so far, in either mode.
  [[nodiscard]] std::size_t snapshots() const noexcept { return stitched_; }

  /// The shared figures renderer: deterministic JSON of the three report
  /// sections the convergence contract covers. Used for every rolling
  /// line, and by the batch side (bw-monitor without --replay, the tests)
  /// to produce the comparison oracle.
  [[nodiscard]] static std::string figures_json(
      const core::DropRateReport& drop, const core::PortStatsReport& ports,
      const core::CollateralReport& collateral);

 private:
  /// One half's two parts of a line, in stitching order.
  using Parts = std::array<std::string, 2>;

  /// Render one half's parts of its next line, then stitch every line
  /// both halves have rendered.
  void emit(Half half, bool final_report);
  [[nodiscard]] Parts render_drop(bool final_report);
  [[nodiscard]] Parts render_commit();  ///< the drop head carries "final"

  RollingConfig cfg_;
  // Per half, owned by its feeding thread: the kernels, the next boundary
  // and the previous line's larger part plus slack, reserved up front.
  DropKernels drop_;
  CommitKernels commit_;
  std::array<std::optional<util::TimeMs>, 2> next_emit_;
  std::array<std::size_t, 2> reserve_{4096, 4096};
  std::size_t drop_lines_{0};
  std::vector<TopKPorts::Entry> last_top_;

  std::mutex mu_;  ///< guards parts_, out_, lines_ and stitched_
  std::array<std::deque<Parts>, 2> parts_;  ///< per half, not yet stitched
  std::optional<util::AtomicFile> out_;     ///< set with out_path
  std::vector<std::string> lines_;          ///< kept without out_path
  std::size_t stitched_{0};
  bool finished_{false};
};

}  // namespace bw::stream::incremental
