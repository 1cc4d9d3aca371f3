#include "util/atomic_file.hpp"

#include <filesystem>
#include <limits>
#include <thread>

#include "obs/metrics.hpp"
#include "util/backoff.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace bw::util {

namespace {

/// Flush `path`'s bytes to stable storage. Best-effort on platforms
/// without fsync; failure is reported so callers can retry.
Status sync_file(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::error(StatusCode::kUnavailable,
                         "atomic_write_file: cannot reopen for fsync: " + path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::error(StatusCode::kUnavailable,
                         "atomic_write_file: fsync failed: " + path);
  }
#else
  (void)path;
#endif
  return ok_status();
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace

std::string atomic_temp_path(const std::string& path) { return path + ".tmp"; }

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)),
      tmp_(atomic_temp_path(path_)),
      os_(tmp_, std::ios::binary | std::ios::trunc),
      pending_(static_cast<bool>(os_)) {
  if (!pending_) {
    status_ = Status::error(StatusCode::kUnavailable,
                            "atomic_write_file: cannot open temp file " + tmp_);
  }
}

AtomicFile::~AtomicFile() {
  if (!pending_) return;
  os_.close();
  remove_quietly(tmp_);
}

Status AtomicFile::commit(const AtomicWriteHooks* hooks) {
  if (!status_.ok()) return status_;
  if (!pending_) {
    return failed_precondition("atomic_write_file: committed twice: " + path_);
  }
  // From here the temp is complete or removed: a throwing hook leaves it
  // behind, as a crash would.
  pending_ = false;
  os_.flush();
  const bool flushed = static_cast<bool>(os_);
  os_.close();
  Status st = flushed ? sync_file(tmp_)
                      : data_loss("atomic_write_file: flush failed: " + tmp_);
  if (!st.ok()) {
    remove_quietly(tmp_);
    return st;
  }
  if (hooks != nullptr && hooks->after_temp_write) hooks->after_temp_write();
  if (hooks != nullptr && hooks->before_rename) hooks->before_rename();

  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    remove_quietly(tmp_);
    return Status::error(StatusCode::kUnavailable,
                         "atomic_write_file: rename to " + path_ +
                             " failed: " + ec.message());
  }
  // Make the rename itself durable (directory entry). Best-effort: the
  // data is already safe under the final name on any POSIX filesystem.
#if defined(__unix__) || defined(__APPLE__)
  const std::string dir = std::filesystem::path(path_).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  return ok_status();
}

Status atomic_write_file(const std::string& path,
                         const std::function<Status(std::ostream&)>& writer,
                         const AtomicWriteHooks* hooks) {
  AtomicFile file(path);
  if (!file.status().ok()) return file.status();
  if (Status st = writer(file.stream()); !st.ok()) return st;
  return file.commit(hooks);
}

Status atomic_write_file(const std::string& path, std::string_view content) {
  AtomicFile file(path);
  file.stream().write(content.data(),
                      static_cast<std::streamsize>(content.size()));
  return file.commit();
}

Status retry_with_backoff(std::size_t attempts, DurationMs backoff,
                          const std::function<Status()>& op) {
  static obs::Counter& attempt_count =
      obs::Registry::global().counter("retry.attempts");
  static obs::Counter& backoff_count =
      obs::Registry::global().counter("retry.backoffs");
  // The legacy deterministic schedule, expressed through the shared policy:
  // base doubles uncapped, no jitter, budget = sleeps between attempts.
  BackoffConfig cfg;
  cfg.base = backoff;
  cfg.cap = std::numeric_limits<DurationMs>::max() / 2;
  cfg.budget = attempts > 0 ? attempts - 1 : 0;
  cfg.full_jitter = false;
  BackoffPolicy policy(cfg);
  Status st = internal_error("retry_with_backoff: zero attempts");
  for (std::size_t i = 0; i < attempts; ++i) {
    attempt_count.add();
    st = op();
    if (st.ok() || st.code() != StatusCode::kUnavailable) return st;
    const std::optional<DurationMs> sleep = policy.next();
    if (!sleep) break;
    if (*sleep > 0) {
      backoff_count.add();
      std::this_thread::sleep_for(std::chrono::milliseconds(*sleep));
    }
  }
  return st;
}

}  // namespace bw::util
