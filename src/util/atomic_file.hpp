// Crash-safe file replacement: write temp → flush → fsync → rename.
//
// A dataset save or report emission interrupted half-way must never leave a
// half-written file under the final name — a later run would ingest it.
// An AtomicFile streams the bytes, as they are produced, into `<path>.tmp`
// in the same directory, fsyncs it and renames it over the target, so at
// every instant the target is either the complete old file or the
// complete new file, and no output is held in memory whole. Dropped
// uncommitted, it removes the temp; a stale `.tmp` from a crashed run is
// simply overwritten by the next attempt.
//
// Test hooks expose the two interesting kill points (temp written but not
// renamed; about to rename) so crash-point tests can assert the invariant
// without actually killing the process.
#pragma once

#include <fstream>
#include <functional>
#include <string>

#include "util/status.hpp"
#include "util/time.hpp"

namespace bw::util {

/// Kill-point hooks for crash simulation (tests only). A hook that throws
/// models the process dying at that instant: the temp file is left behind
/// exactly as a real crash would leave it.
struct AtomicWriteHooks {
  std::function<void()> after_temp_write;  ///< temp complete, fsync'd
  std::function<void()> before_rename;     ///< last instant before commit
};

/// The temp path an AtomicFile stages under (target + ".tmp").
[[nodiscard]] std::string atomic_temp_path(const std::string& path);

/// One atomically replaced file. The constructor opens the temp (status()
/// is kUnavailable when it cannot); stream() takes the bytes; commit()
/// flushes (kDataLoss when a write did not stick), fsyncs and renames
/// (kUnavailable), removing the temp on any failure, as the destructor
/// does for a file never committed.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] std::ostream& stream() noexcept { return os_; }

  /// Once only: a later call, or one after a failed open, is an error.
  [[nodiscard]] Status commit(const AtomicWriteHooks* hooks = nullptr);

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream os_;
  Status status_;
  bool pending_{false};  ///< the temp is open and ours to commit or remove
};

/// Write `path` atomically: commit what `writer` streams into an
/// AtomicFile if it returns OK; else pass its failure through.
[[nodiscard]] Status atomic_write_file(
    const std::string& path,
    const std::function<Status(std::ostream&)>& writer,
    const AtomicWriteHooks* hooks = nullptr);

/// Convenience: atomically replace `path` with `content`.
[[nodiscard]] Status atomic_write_file(const std::string& path,
                                       std::string_view content);

/// Run `op` up to `attempts` times, sleeping `backoff` (doubling each try)
/// between attempts. Retries only transient failures (kUnavailable);
/// anything else — including corruption — returns immediately.
[[nodiscard]] Status retry_with_backoff(std::size_t attempts,
                                        DurationMs backoff,
                                        const std::function<Status()>& op);

}  // namespace bw::util
