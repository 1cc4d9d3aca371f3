// bw-faultgen: corrupt a measurement corpus in controlled, seeded ways.
//
//   bw-faultgen --in DIR|FILE.bwds --out DIR [--seed N] [--faults SPEC]
//   bw-faultgen --in FILE.bwds --out FILE.bwds --binary KIND [--seed N]
//
// Text mode: the input is either a CSV corpus directory (as written by
// `bw-generate --csv` / export_dataset_csv) or a .bwds dataset, which is
// exported to CSV first. Faults are applied at the text level and the
// corrupted corpus is written under --out, with a ground-truth log of what
// was damaged printed to stdout. Without --faults the default mix runs:
// every fault kind once, at small magnitudes.
//
// SPEC is comma-separated `kind[:file[:arg]]`, e.g.
//   --faults truncate:flows.csv:0.05,byteflip:control.csv:4,dropmacs::3
//
// Binary mode (--binary): the input .bwds container is copied to --out and
// corrupted at the byte level with KIND: truncate | bitflip | torn | swap.
// The checksummed container must turn every one of these into a precise
// load error — the persistence fault suite drives this mode.
#include <filesystem>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "core/dataset.hpp"
#include "core/io_text.hpp"
#include "testing/fault.hpp"

namespace {

void usage() {
  std::cerr << "usage: bw-faultgen --in DIR|FILE.bwds --out DIR"
               " [--seed N] [--faults SPEC]\n"
               "       bw-faultgen --in FILE.bwds --out FILE.bwds"
               " --binary KIND [--seed N]\n"
               "  SPEC: comma-separated kind[:file[:arg]] with kinds\n"
               "        truncate(arg: fraction), byteflip, dup, reorder,\n"
               "        mangle, dropmacs (arg: count), skew (arg: ms)\n"
               "  KIND: truncate | bitflip | torn | swap (byte-level faults\n"
               "        on the .bwds container)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bw;
  std::string in;
  std::string out;
  std::string spec;
  std::string binary_kind;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(tools::kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--in") in = value();
    else if (arg == "--out") out = value();
    else if (arg == "--seed") seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--faults") spec = value();
    else if (arg == "--binary") binary_kind = value();
    else if (arg == "--help" || arg == "-h") {
      usage();
      return tools::kExitOk;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      usage();
      return tools::kExitUsage;
    }
  }
  if (in.empty() || out.empty()) {
    usage();
    return tools::kExitUsage;
  }

  try {
    if (!binary_kind.empty()) {
      if (!spec.empty()) {
        std::cerr << "bw-faultgen: --binary and --faults are exclusive\n";
        usage();
        return tools::kExitUsage;
      }
      auto kind = testing::parse_binary_fault_kind(binary_kind);
      if (!tools::check("bw-faultgen", kind.status())) return tools::kExitUsage;
      if (std::filesystem::is_directory(in)) {
        std::cerr << "bw-faultgen: --binary needs a .bwds file, not a "
                     "directory\n";
        return tools::kExitUsage;
      }
      std::error_code ec;
      std::filesystem::copy_file(
          in, out, std::filesystem::copy_options::overwrite_existing, ec);
      if (ec) {
        std::cerr << "bw-faultgen: cannot copy " << in << " -> " << out
                  << ": " << ec.message() << "\n";
        return tools::kExitData;
      }
      auto applied = testing::apply_binary_fault(out, *kind, seed);
      if (!tools::check("bw-faultgen", applied.status())) {
        return tools::kExitData;
      }
      std::cout << "Applied binary fault " << testing::to_string(*kind)
                << " (seed " << seed << ") to " << out << ": "
                << applied->detail << "\n";
      return tools::kExitOk;
    }

    testing::FaultPlan plan = testing::FaultPlan::default_mix(seed);
    if (!spec.empty()) {
      auto parsed = testing::parse_fault_spec(spec, seed);
      if (!tools::check("bw-faultgen", parsed.status())) {
        return tools::kExitUsage;
      }
      plan = std::move(parsed).value();
    }

    std::string csv_dir = in;
    if (!std::filesystem::is_directory(in)) {
      // .bwds input: materialise the CSV corpus under --out, corrupt there.
      auto dataset = core::Dataset::try_load(in);
      if (!tools::check("bw-faultgen", dataset.status())) {
        return tools::kExitData;
      }
      core::export_dataset_csv(dataset.value(), out);
      csv_dir = out;
    }

    auto corpus = testing::CsvCorpus::load(csv_dir);
    if (!tools::check("bw-faultgen", corpus.status())) return tools::kExitData;

    const testing::FaultLog log = testing::apply_faults(corpus.value(), plan);
    if (!tools::check("bw-faultgen", corpus.value().save(out))) {
      return tools::kExitData;
    }
    std::cout << "Applied " << plan.faults.size() << " fault(s) (seed " << seed
              << ") to " << out << ":\n"
              << log.summary();
    return tools::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "bw-faultgen: internal error: " << e.what() << "\n";
    return tools::kExitInternal;
  }
}
