#include "core/engine.hpp"

namespace bw::core {

KernelScanMetrics make_kernel_scan_metrics(std::string_view kernel) {
  auto& reg = obs::Registry::global();
  const std::string base = "kernel." + std::string(kernel);
  return KernelScanMetrics{&reg.counter(base + ".scan_rows"),
                           &reg.counter(base + ".scan_ns")};
}

}  // namespace bw::core
