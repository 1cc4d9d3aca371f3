// bench-gate: the CI perf-regression tripwire.
//
// Compares a freshly measured bench JSON (unified schema v2, written by the
// micro_* benches) against the committed baseline and fails when the
// single-thread throughput regressed by more than the allowed fraction.
//
//   bench-gate --baseline BENCH_pipeline.json
//              --current bench_out/BENCH_pipeline.json
//              [--max-regression 0.10] [--threads 1]
//
// Exit codes:
//   0  within budget (improvements always pass)
//   1  regression beyond --max-regression, or schema/metric mismatch —
//      the failure message names the offending metric
//   2  usage error
//   3  a JSON file was missing or malformed
#include <cstdlib>
#include <iostream>
#include <string>

#include "testing/bench_gate.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitGateFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitData = 3;

void usage(std::ostream& os) {
  os << "usage: bench-gate --baseline FILE --current FILE\n"
     << "                  [--max-regression FRACTION] [--threads N]\n"
     << "\n"
     << "Fails (exit 1) when flows_per_s_by_threads.N in --current is more\n"
     << "than FRACTION below --baseline (default 0.10 = 10%).\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double max_regression = 0.10;
  std::string threads = "1";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--current" && i + 1 < argc) {
      current_path = argv[++i];
    } else if (arg == "--max-regression" && i + 1 < argc) {
      max_regression = std::atof(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return kExitOk;
    } else {
      std::cerr << "bench-gate: unknown or incomplete argument: " << arg
                << "\n";
      usage(std::cerr);
      return kExitUsage;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::cerr << "bench-gate: --baseline and --current are required\n";
    usage(std::cerr);
    return kExitUsage;
  }
  if (max_regression < 0.0 || max_regression >= 1.0) {
    std::cerr << "bench-gate: --max-regression must be in [0, 1)\n";
    return kExitUsage;
  }

  auto baseline = bw::testing::load_bench_json(baseline_path);
  if (!baseline.ok()) {
    std::cerr << "bench-gate: " << baseline.status().to_string() << "\n";
    return kExitData;
  }
  auto current = bw::testing::load_bench_json(current_path);
  if (!current.ok()) {
    std::cerr << "bench-gate: " << current.status().to_string() << "\n";
    return kExitData;
  }

  const bw::testing::GateResult result = bw::testing::check_regression(
      baseline.value(), current.value(), max_regression, threads);
  std::cout << result.message << "\n";
  return result.pass ? kExitOk : kExitGateFailed;
}
