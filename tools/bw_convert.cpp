// bw-convert: rewrite or export a .bwds corpus.
//
//   bw-convert IN.bwds --out OUT.bwds   rewrite as .bwds v3 (byte-identical
//                                       to IN at the same chunk size)
//   bw-convert IN.bwds --csv DIR        export the corpus as CSV files
//
// The input goes through the materializing loader, so every section is
// verified on the way; v1/v2 and unknown-version files are refused with a
// data error. Writes are atomic (temp -> fsync -> rename), so an
// interrupted conversion never leaves a torn output file.
//
// Exit codes: 0 ok, 2 usage, 3 data error, 4 internal (see tools/cli.hpp).
#include <iostream>
#include <string>

#include "cli.hpp"
#include "core/dataset.hpp"
#include "core/io_text.hpp"
#include "obs/manifest.hpp"

namespace {

void usage() {
  std::cerr << "usage: bw-convert IN.bwds (--out OUT.bwds | --csv DIR)\n"
               "  --out OUT.bwds    write the chunked v3 format (the format\n"
               "                    bw-analyze reads, in-RAM or --out-of-core)\n"
               "  --csv DIR         export control/flows/macs/origins/period\n"
               "                    CSV files under DIR\n"
            << bw::tools::kObsUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bw;
  std::string in_path;
  std::string out_bwds;
  std::string out_csv;
  tools::ObsOptions obs_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs_options.parse(argc, argv, i)) {
      continue;
    } else if (arg == "--out" && i + 1 < argc) {
      out_bwds = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      out_csv = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return tools::kExitOk;
    } else if (!arg.empty() && arg[0] != '-') {
      in_path = arg;
    } else {
      usage();
      return tools::kExitUsage;
    }
  }
  if (in_path.empty() || out_bwds.empty() == out_csv.empty()) {
    usage();
    return tools::kExitUsage;
  }
  obs_options.arm();

  try {
    std::cout << "Loading " << in_path << "...\n";
    auto loaded = core::Dataset::try_load(in_path);
    if (!tools::check("bw-convert", loaded.status())) return tools::kExitData;
    const core::Dataset dataset = std::move(loaded).value();

    if (!out_csv.empty()) {
      core::export_dataset_csv(dataset, out_csv);
      std::cout << "Wrote CSV corpus to " << out_csv << "/\n";
    } else {
      if (!tools::check("bw-convert", dataset.try_save(out_bwds))) {
        return tools::kExitData;
      }
      std::cout << "Wrote v3 corpus to " << out_bwds << "\n";
    }

    obs::Manifest manifest;
    manifest.tool = "bw-convert";
    manifest.corpus = in_path;
    manifest.populate_from_metrics(obs::Registry::global().snapshot());
    if (!obs_options.emit("bw-convert", manifest)) return tools::kExitData;
    return tools::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "bw-convert: internal error: " << e.what() << "\n";
    return tools::kExitInternal;
  }
}
