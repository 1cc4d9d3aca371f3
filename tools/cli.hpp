// Shared CLI conventions for the bw-* tools.
//
// Exit codes are part of the tool contract (scripts and CI branch on them):
//   0  success
//   2  usage error (bad flags/arguments; nothing was attempted)
//   3  data error (input missing, malformed, or rejected by --strict;
//      also a generation run cancelled by --stage-timeout-s, which leaves
//      no usable corpus)
//   4  internal error (unexpected exception; a bug, not an input problem)
//
// Watchdog note: an *analysis* stage cancelled by --stage-timeout-s is the
// degraded-but-complete success path — bw-analyze still exits 0 and the
// timeout is reported in the data-quality section, mirroring how injected
// stage faults behave.
#pragma once

#include <charconv>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/io_text.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"

namespace bw::tools {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitData = 3;
inline constexpr int kExitInternal = 4;

/// Print a failed `st` to stderr as `TOOL: CODE: message`; true when OK.
inline bool check(std::string_view tool, const util::Status& st) {
  if (!st.ok()) std::cerr << tool << ": " << st.to_string() << "\n";
  return st.ok();
}

/// Open `file` on `path`, when set: an output that streams to its temp
/// file and is committed by commit_output at the end of the run. False,
/// after printing why, when the temp file cannot be opened.
inline bool open_output(std::string_view tool, const std::string& path,
                        std::optional<util::AtomicFile>& file) {
  return path.empty() || check(tool, file.emplace(path).status());
}

/// Commit an output open_output opened; false after printing why not.
inline bool commit_output(std::string_view tool,
                          std::optional<util::AtomicFile>& file) {
  return !file || check(tool, file->commit());
}

/// Strict parse of an integer flag value: decimal digits (a sign only
/// where `Int` is signed), nothing after them, no overflow, and at least
/// `min`. On failure prints why to stderr and returns false; the caller
/// exits kExitUsage. A size flag must never wrap "-1" into SIZE_MAX.
template <typename Int>
bool parse_int(std::string_view tool, std::string_view flag,
               std::string_view text, std::type_identity_t<Int> min,
               Int& out) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end || value < min) {
    std::cerr << tool << ": " << flag << " must be an integer >= " << min
              << ", got '" << text << "'\n";
    return false;
  }
  out = value;
  return true;
}

/// Observability outputs every bw-* tool offers:
///   --metrics-out FILE  run manifest + full metrics snapshot (JSON)
///   --trace-out FILE    Chrome trace (chrome://tracing, Perfetto)
/// Collection itself never alters results; the reports stay byte-identical
/// with these on or off.
struct ObsOptions {
  std::string metrics_out;
  std::string trace_out;

  /// Handle one argv slot. Returns true when consumed (possibly advancing
  /// `i` past the flag's value).
  bool parse(int argc, char** argv, int& i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
      return true;
    }
    if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
      return true;
    }
    return false;
  }

  /// Call after argument parsing: turns span collection on when a trace
  /// file was requested (spans are free while off).
  void arm() const {
    if (!trace_out.empty()) obs::trace_enable(true);
  }

  /// Write the requested outputs (atomic commit, like every other tool
  /// artifact). Returns false after printing to stderr if a write failed.
  bool emit(const char* tool, const obs::Manifest& manifest) const {
    return (metrics_out.empty() ||
            check(tool, util::atomic_write_file(metrics_out,
                                                manifest.to_json()))) &&
           (trace_out.empty() ||
            check(tool, util::atomic_write_file(trace_out,
                                                obs::render_chrome_trace())));
  }
};

inline constexpr const char* kObsUsage =
    "  --metrics-out FILE   write a run manifest + metrics snapshot (JSON)\n"
    "  --trace-out FILE     write a Chrome-trace JSON timeline\n";

/// The strictness flags every corpus-consuming tool accepts (the 0/2/3/4
/// exit-code contract depends on all tools honouring the same trio):
///   --strict        fail on the first malformed CSV row (default)
///   --skip-bad-rows drop malformed rows, accounted in data quality
///   --repair        like skip, salvaging recoverably-damaged rows
struct StrictnessOptions {
  core::LoadOptions load_options;  // default: Strictness::kStrict

  /// Handle one argv slot; returns true when it was a strictness flag.
  bool parse(std::string_view arg) {
    if (arg == "--strict") {
      load_options.strictness = core::Strictness::kStrict;
    } else if (arg == "--skip-bad-rows") {
      load_options.strictness = core::Strictness::kSkip;
    } else if (arg == "--repair") {
      load_options.strictness = core::Strictness::kRepair;
    } else {
      return false;
    }
    return true;
  }
};

inline constexpr const char* kStrictnessUsage =
    "  --strict             fail on the first malformed CSV row (default)\n"
    "  --skip-bad-rows      drop malformed rows; account in data quality\n"
    "  --repair             like --skip-bad-rows, salvaging rows whose\n"
    "                       damage is confined to recoverable fields\n";

/// Load CORPUS — a .bwds container or a CSV directory — under `options`,
/// printing a per-file summary line to stderr for every unclean CSV file.
/// On failure the caller reports the status and exits kExitData.
inline util::Result<core::Dataset> load_corpus(
    const std::string& path, const core::LoadOptions& options,
    core::IngestReport* ingest = nullptr) {
  if (std::filesystem::is_directory(path)) {
    core::IngestReport local;
    core::IngestReport* report = ingest != nullptr ? ingest : &local;
    auto loaded = core::load_dataset_csv(path, options, report);
    if (loaded.ok()) {
      for (const auto& f : report->files) {
        if (!f.clean()) std::cerr << f.summary() << "\n";
      }
    }
    return loaded;
  }
  return core::Dataset::try_load(path);
}

}  // namespace bw::tools
