// Per-kernel scan instrumentation, plus the vestigial KernelEngine tag.
//
// Every analysis kernel has one implementation: a columnar scan through
// core::FlowView, which serves in-RAM and out-of-core datasets alike.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace bw::core {

/// Placeholder with no effect. The kernels used to choose between a
/// columnar and a records implementation; only the columnar one is left.
/// The kernels still accept it as an unnamed trailing parameter because
/// the performance ledger (ledger/harness.cpp) passes kColumnar, and
/// ledger/ changes only together with its benchmark definition. The next
/// benchmark change drops the argument there and deletes this type.
enum class KernelEngine : std::uint8_t { kColumnar };

/// Per-kernel scan counters, registered as kernel.<name>.scan_rows and
/// kernel.<name>.scan_ns. Rows counts resolved range sizes and is invariant
/// across thread counts; the _ns suffix exempts the timing counter from the
/// determinism contract (see obs::is_deterministic_metric).
struct KernelScanMetrics {
  obs::Counter* rows;
  obs::Counter* ns;
};

/// Registry handles for one kernel's scan counters. Call once per kernel
/// (function-local static in the kernel body) — the lookup hits the global
/// registry map, the returned pointers are then hot-loop safe.
[[nodiscard]] KernelScanMetrics make_kernel_scan_metrics(
    std::string_view kernel);

}  // namespace bw::core
