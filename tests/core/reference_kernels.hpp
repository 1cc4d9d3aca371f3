// Naive reference kernels: the test oracle for the production analyses.
//
// Each function recomputes one batch analysis the slow, obvious way: every
// event is answered by a linear filter over the materialized record log
// (Dataset::flows()), O(events x flows), with ordered sets and maps where
// the production kernels use dense ids, arenas and sort-unique. Nothing
// here touches core::FlowView, flow::FlowColumns or store::FlowStore, so a
// scan bug in those cannot hide in both sides.
//
// The reference does feed the same shared finalisers the production and
// streaming kernels use (DropEventTally, assemble_drop_rate_report,
// PortAccumulator, finalize_port_host, assemble_collateral_report,
// radviz_projection and the EWMA/CUSUM detectors), so a mismatch points at
// which rows a kernel visited or how it tallied them, not at shared
// arithmetic.
#pragma once

#include "core/pipeline.hpp"
#include "core/whatif.hpp"

namespace bw::core::reference {

/// What run_pipeline returns for `dataset`, which must be materialized
/// (flows() holds every record). No stage is degraded.
[[nodiscard]] AnalysisReport run_pipeline(const Dataset& dataset,
                                          const AnalysisConfig& config = {});

[[nodiscard]] ParticipationReport participation(
    const Dataset& dataset, const std::vector<RtbhEvent>& events,
    const PreRtbhReport& pre);

[[nodiscard]] WhatIfReport whatif(const Dataset& dataset,
                                  const std::vector<RtbhEvent>& events,
                                  const PreRtbhReport& pre);

}  // namespace bw::core::reference
