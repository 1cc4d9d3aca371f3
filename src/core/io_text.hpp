// Text (CSV) interchange for measurement corpora.
//
// The binary .bwds format is compact but private; these readers/writers
// speak plain CSV so (a) real control-plane/flow exports can be converted
// into a Dataset with any scripting language, and (b) our synthetic corpora
// can be inspected and plotted outside this library.
//
// Control plane (one row per BGP update):
//   time_ms,type,sender_asn,origin_asn,prefix,next_hop,communities
//   communities are space-separated "global:local" pairs.
//
// Flow records (one row per sampled packet record):
//   time_ms,src_ip,dst_ip,proto,src_port,dst_port,src_mac,dst_mac,packets,bytes
//
// Attribution tables:
//   mac,asn                (MAC -> member AS)
//   prefix,asn             (source prefix -> origin AS)
//
// The readers are streaming and fault-tolerant: lines are processed one at
// a time (CRLF-terminated lines from Windows-edited files are handled), and
// LoadOptions selects what a malformed row costs. Under Strictness::kStrict
// the first fault fails the load with a line-numbered Status; under kSkip a
// fault costs exactly one record; kRepair additionally salvages rows whose
// damage is confined to recoverable fields (malformed communities, a
// truncated packets/bytes tail). Every reader fills a LoadReport so callers
// can account for precisely what was dropped or repaired.
#pragma once

#include <iosfwd>
#include <string>

#include "core/dataset.hpp"
#include "core/ingest.hpp"
#include "util/status.hpp"

namespace bw::core {

// --- writers ---
void write_control_csv(std::ostream& os, const bgp::UpdateLog& log);
void write_flows_csv(std::ostream& os, const flow::FlowLog& flows);
void write_macs_csv(std::ostream& os,
                    const std::unordered_map<net::Mac, bgp::Asn>& macs);
void write_origins_csv(
    std::ostream& os,
    const std::vector<std::pair<net::Prefix, bgp::Asn>>& origins);

/// Write all five files of a dataset under `directory` (created if absent):
/// control.csv, flows.csv, macs.csv, origins.csv, period.csv.
void export_dataset_csv(const Dataset& dataset, const std::string& directory);

// --- streaming readers ---
// `report` (optional) receives per-row accounting; its `file` field is
// defaulted to the canonical file name when empty.
[[nodiscard]] util::Result<bgp::UpdateLog> read_control_csv(
    std::istream& is, const LoadOptions& options, LoadReport* report = nullptr);
[[nodiscard]] util::Result<flow::FlowLog> read_flows_csv(
    std::istream& is, const LoadOptions& options, LoadReport* report = nullptr);
[[nodiscard]] util::Result<std::unordered_map<net::Mac, bgp::Asn>>
read_macs_csv(std::istream& is, const LoadOptions& options,
              LoadReport* report = nullptr);
[[nodiscard]] util::Result<std::vector<std::pair<net::Prefix, bgp::Asn>>>
read_origins_csv(std::istream& is, const LoadOptions& options,
                 LoadReport* report = nullptr);
/// period.csv holds the measurement window itself; it cannot be skipped, so
/// a malformed period is an error at every strictness level.
[[nodiscard]] util::Result<util::TimeRange> read_period_csv(std::istream& is);

/// Load a dataset from a directory written by export_dataset_csv. Under
/// kSkip/kRepair the Dataset is built with quarantine enabled (exact
/// duplicate flows deduplicated, out-of-period records dropped) and the
/// corpus survives any fault that leaves period.csv intact.
[[nodiscard]] util::Result<Dataset> load_dataset_csv(
    const std::string& directory, const LoadOptions& options = {},
    IngestReport* report = nullptr);

}  // namespace bw::core
