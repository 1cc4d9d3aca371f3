// The joint measurement corpus (Section 3).
//
// A Dataset bundles exactly what the paper's analysts had: the route-server
// BGP log (control plane), the sampled flow log (data plane), the MAC ->
// member-AS mapping of the switching fabric, and a BGP-derived source-IP ->
// origin-AS resolver. It additionally builds the indices every analysis
// module needs: the route-server blackhole activity index and the columnar
// flow table (flow/columns.hpp), whose dst-ordered rows serve destination
// scans and whose src-ordered columns serve source-address scans. The
// columns are the only resident copy of the flows: flows() rebuilds the
// time-ordered log from them on access.
#pragma once

#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/blackhole_index.hpp"
#include "bgp/message.hpp"
#include "core/engine.hpp"
#include "flow/columns.hpp"
#include "flow/record.hpp"
#include "ixp/platform.hpp"
#include "net/mac.hpp"
#include "net/prefix_trie.hpp"
#include "store/flow_store.hpp"
#include "util/status.hpp"

namespace bw::util {
class ThreadPool;
namespace container {
struct Toc;
}
}  // namespace bw::util

namespace bw::core {

class FlowView;

class Dataset {
 public:
  using OriginResolver = std::function<std::optional<bgp::Asn>(net::Ipv4)>;

  /// Ingest sanitation policy. Defaults are pass-through (trust the
  /// corpus); tolerant loaders (load_dataset_csv under kSkip/kRepair)
  /// enable quarantine so dirty telemetry costs records, not the run.
  struct BuildOptions {
    /// Drop exact-duplicate flow records (all fields equal), keeping one.
    bool dedupe_flows{false};
    /// Drop control updates / flow records whose timestamp falls outside
    /// the measurement period by more than `period_slack`.
    bool quarantine_out_of_period{false};
    /// Clock-skew tolerance before a record counts as out-of-period: the
    /// control and data planes legitimately disagree by seconds (the paper
    /// estimates the offset in Section 3.2), not hours.
    util::DurationMs period_slack{5 * util::kMinute};
  };

  /// What sanitation saw and did. Reordered counts are input-order
  /// inversions (always measured — sorting repairs them); quarantine and
  /// dedupe counts are non-zero only when enabled in BuildOptions.
  struct Quality {
    std::size_t reordered_updates{0};   ///< control rows out of time order
    std::size_t reordered_flows{0};     ///< flow rows out of time order
    std::size_t out_of_period_updates{0};
    std::size_t out_of_period_flows{0};
    std::size_t duplicate_flows{0};
    std::size_t unknown_mac_flows{0};   ///< flows with an unattributable MAC

    [[nodiscard]] bool clean() const {
      return reordered_updates == 0 && reordered_flows == 0 &&
             out_of_period_updates == 0 && out_of_period_flows == 0 &&
             duplicate_flows == 0 && unknown_mac_flows == 0;
    }
    friend bool operator==(const Quality&, const Quality&) = default;
  };

  /// Build from a platform replay. Copies the MAC table and origin table
  /// out of the platform so the Dataset is self-contained afterwards.
  /// `pool` (null: the global pool) runs the index build.
  static Dataset from_run(ixp::RunResult run, const ixp::Platform& platform,
                          util::ThreadPool* pool = nullptr);

  /// Build from raw corpora (e.g. deserialised from disk). Sanitation is
  /// applied per `options` before the indices are built, over `pool`
  /// (null: the global pool); the result is identical at any thread count.
  /// `data` is released once the columns hold it.
  Dataset(bgp::UpdateLog control, flow::FlowLog data,
          std::unordered_map<net::Mac, bgp::Asn> mac_to_asn,
          std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes,
          util::TimeRange period, const BuildOptions& options,
          util::ThreadPool* pool = nullptr);
  /// Pass-through build (no sanitation) — the trusting default.
  Dataset(bgp::UpdateLog control, flow::FlowLog data,
          std::unordered_map<net::Mac, bgp::Asn> mac_to_asn,
          std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes,
          util::TimeRange period)
      : Dataset(std::move(control), std::move(data), std::move(mac_to_asn),
                std::move(origin_prefixes), period, BuildOptions()) {}

  // --- raw corpora ---
  [[nodiscard]] const bgp::UpdateLog& control() const noexcept {
    return control_;
  }
  /// The flow log in time order, rebuilt record by record from the
  /// columns (ties keep their input order). A by-value view valid while
  /// this Dataset is neither moved nor destroyed. Empty in chunked
  /// (out-of-core) mode; the analysis kernels read view() instead, and the
  /// record walkers (replay, CSV export) require a materializing load.
  [[nodiscard]] flow::TimeOrderView flows() const noexcept {
    return {columns_, mac_dict_, time_order_};
  }
  [[nodiscard]] util::TimeRange period() const noexcept { return period_; }

  /// Only the RTBH-related updates, in time order.
  [[nodiscard]] const bgp::UpdateLog& blackhole_updates() const noexcept {
    return control_is_blackholes_ ? control_ : blackhole_updates_;
  }

  /// Route-server blackhole activity rebuilt from the control log.
  [[nodiscard]] const bgp::BlackholeIndex& rs_index() const noexcept {
    return rs_index_;
  }

  /// Sanitation accounting from construction (see BuildOptions).
  [[nodiscard]] const Quality& quality() const noexcept { return quality_; }

  // --- attribution ---
  [[nodiscard]] std::optional<bgp::Asn> member_asn(net::Mac mac) const;
  [[nodiscard]] std::optional<bgp::Asn> origin_asn(net::Ipv4 src) const;
  [[nodiscard]] const std::unordered_map<net::Mac, bgp::Asn>& mac_table()
      const noexcept {
    return mac_to_asn_;
  }
  [[nodiscard]] const std::vector<std::pair<net::Prefix, bgp::Asn>>&
  origin_prefixes() const noexcept {
    return origin_prefixes_;
  }

  /// Member source ASes in ascending ASN order. The columnar src_member
  /// column stores indices into this table, so a flat-array accumulation
  /// iterated by dense id visits ASes in the same ascending order a
  /// std::map<Asn, ...> would — the key to byte-identical source reports.
  [[nodiscard]] std::size_t source_as_count() const noexcept {
    return source_as_.size();
  }
  [[nodiscard]] bgp::Asn source_as(std::uint32_t id) const {
    return source_as_[id];
  }

  /// The structure-of-arrays flow table (see flow/columns.hpp for the
  /// layout invariants); its MAC ids index the sorted MAC dictionary this
  /// Dataset keeps. The raw-log constructor builds it by radix-sorting
  /// row positions by address (build_indices); try_load decodes it
  /// straight from the file's dst- and src-ordered chunks, which already
  /// hold these columns in these orders, so no sort runs. Empty in chunked
  /// mode; kernels should go through view() instead, which serves both
  /// modes with identical visit order. Source-address scans use the s_*
  /// columns (src_run).
  [[nodiscard]] const flow::FlowColumns& columns() const noexcept {
    return columns_;
  }

  /// Uniform columnar access for both residency modes (core/flow_view.hpp).
  [[nodiscard]] FlowView view() const;

  /// True when the flows live in a .bwds v3 store on disk and are decoded
  /// chunk-at-a-time instead of being materialized in columns_.
  [[nodiscard]] bool chunked() const noexcept { return store_ != nullptr; }
  [[nodiscard]] const store::FlowStore* store() const noexcept {
    return store_.get();
  }

  // --- persistence (binary .bwds v3) ---
  /// The Status carries what failed and where (path, magic, truncation
  /// point). try_save writes the chunked .bwds v3 format (column chunks +
  /// zone maps); `pool` (null: the global pool) encodes at most its
  /// concurrency of chunks at a time, straight from the columns, and they
  /// are written in order; the rows' time positions are time_order_
  /// inverted. Its bytes depend only on the corpus and the chunk size —
  /// never on the pool — so try_save(try_load(f)) reproduces f at the
  /// chunk size f was written with. try_load materializes
  /// a v3 file back into RAM — decoding every chunk in parallel straight
  /// into the final columns, with no sort — and refuses v1/v2 and unknown
  /// versions with data_loss. Its result equals the raw-log constructor's
  /// over the same logs; every structural invariant the constructor's sorts
  /// would establish is checked instead and a violation fails with
  /// data_loss naming the section.
  [[nodiscard]] util::Status try_save(const std::string& path,
                                      util::ThreadPool* pool = nullptr) const;
  /// `pool` (null: the global pool) runs the chunk decode; the result is
  /// identical at any thread count.
  [[nodiscard]] static util::Result<Dataset> try_load(
      const std::string& path, util::ThreadPool* pool = nullptr);

  /// Open a v3 file *without* materializing the flows: control-plane
  /// tables and indices are built as usual, while flow scans stream
  /// decoded chunks through the zone-map/bloom pruned FlowStore. Reports
  /// produced in this mode are byte-identical to the in-RAM path.
  [[nodiscard]] static util::Result<Dataset> try_open_chunked(
      const std::string& path);

  // --- summary ---
  struct Summary {
    std::size_t control_updates{0};
    std::size_t blackhole_updates{0};
    std::size_t blackholed_prefixes{0};
    std::size_t flow_records{0};
    std::uint64_t sampled_packets{0};
    std::uint64_t sampled_bytes{0};
    std::uint64_t dropped_packets{0};
    std::uint64_t dropped_bytes{0};
  };
  /// Corpus totals; the volume sums shard over `pool` (null: the global
  /// pool) and are exact at any thread count and in either residency mode.
  [[nodiscard]] Summary summary(
      util::ThreadPool* pool = nullptr,
      KernelEngine = KernelEngine::kColumnar) const;

 private:
  /// Chunked-open shell; fields are filled by try_open_chunked.
  Dataset() = default;

  /// Both v3 load modes read the control-plane tables here: the PERI,
  /// CTRL, MACS and ORIG sections `toc` lists, from `is` into period_,
  /// control_, mac_to_asn_ and origin_prefixes_.
  util::Status read_tables(std::istream& is,
                           const util::container::Toc& toc);

  void sanitize(flow::FlowLog& data, const BuildOptions& options,
                util::ThreadPool& pool);
  /// Raw-log build: sort the control log by time, stable-sort the flow log
  /// by time unless it already is, collect its MAC dictionary, radix-sort
  /// the src and then the dst permutation by address, and gather the
  /// columns through each. `data` is released as soon as the columns hold
  /// it; time_order_ is the inverse of the dst permutation.
  void build_indices(flow::FlowLog data, util::ThreadPool& pool);
  /// try_load's control-plane task: read_tables, then (when they read)
  /// the control log's input order and build_control_indices(). Yields
  /// the member ids, or the table error.
  using ControlTask =
      std::shared_future<util::Result<std::vector<std::uint32_t>>>;
  /// try_load's flow build: every CHNK/SCHK chunk of `store` decoded over
  /// `pool` into columns_ and time_order_, validating as it goes, while
  /// `control` runs; then the member columns from its ids. A failed
  /// `control` is returned as is.
  util::Status fill_from_store(const store::FlowStore& store,
                               util::ThreadPool& pool,
                               const ControlTask& control);
  /// Control-plane half of build_indices (sorting, blackhole replay, LPM,
  /// member tables) — everything a chunked dataset needs besides flows.
  /// Returns member_tables().
  std::vector<std::uint32_t> build_control_indices();
  void replay_blackholes();
  /// Fill source_as_ and return the dense member id of every mac_dict_
  /// entry (FlowColumns::kNoMember for a MAC without a member).
  std::vector<std::uint32_t> member_tables();

  bgp::UpdateLog control_;
  std::unordered_map<net::Mac, bgp::Asn> mac_to_asn_;
  std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes_;
  util::TimeRange period_;

  Quality quality_;
  /// Unused, and empty, when every control update is an RTBH one.
  bgp::UpdateLog blackhole_updates_;
  bool control_is_blackholes_{false};
  bgp::BlackholeIndex rs_index_;
  net::FlatLpm<bgp::Asn> origin_lpm_;
  std::vector<bgp::Asn> source_as_;  ///< ascending unique member source ASes
  flow::FlowColumns columns_;  ///< SoA table in (dst, time) / (src, time) order
  /// Every distinct flow MAC, ascending: what the columns' MAC ids index.
  std::vector<std::uint64_t> mac_dict_;
  /// Time position -> dst row: flows()[p] is columns_ row time_order_[p].
  std::vector<std::uint32_t> time_order_;
  /// Non-null in chunked mode: the on-disk v3 store flows are read from.
  std::shared_ptr<const store::FlowStore> store_;
};

}  // namespace bw::core
