// Kill-point tests for the atomic temp-then-rename commit: at every crash
// instant the target path holds either the complete old file or the
// complete new file — never a torn mix.
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace bw::util {
namespace {

namespace fs = std::filesystem;

struct SimulatedCrash : std::runtime_error {
  SimulatedCrash() : std::runtime_error("simulated crash") {}
};

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bw_atomic_file_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    target_ = (dir_ / "report.md").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::optional<std::string> read(const std::string& path) const {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }

  fs::path dir_;
  std::string target_;
};

TEST_F(AtomicFileTest, WritesContentAndCleansTemp) {
  ASSERT_TRUE(atomic_write_file(target_, "hello\n").ok());
  EXPECT_EQ(read(target_), "hello\n");
  EXPECT_FALSE(fs::exists(atomic_temp_path(target_)));
}

TEST_F(AtomicFileTest, ReplacesExistingContent) {
  ASSERT_TRUE(atomic_write_file(target_, "old").ok());
  ASSERT_TRUE(atomic_write_file(target_, "new and longer").ok());
  EXPECT_EQ(read(target_), "new and longer");
}

TEST_F(AtomicFileTest, CrashAfterTempWriteLeavesOldFileIntact) {
  ASSERT_TRUE(atomic_write_file(target_, "old contents").ok());
  AtomicWriteHooks hooks;
  hooks.after_temp_write = [] { throw SimulatedCrash(); };
  EXPECT_THROW(
      (void)atomic_write_file(
          target_,
          [](std::ostream& os) -> Status {
            os << "new contents";
            return ok_status();
          },
          &hooks),
      SimulatedCrash);
  // The crash happened with the temp staged but not committed: the target
  // is the complete old file and the temp is the complete new file — the
  // exact debris a real kill would leave.
  EXPECT_EQ(read(target_), "old contents");
  EXPECT_EQ(read(atomic_temp_path(target_)), "new contents");
  // The next attempt simply overwrites the stale temp.
  ASSERT_TRUE(atomic_write_file(target_, "recovered").ok());
  EXPECT_EQ(read(target_), "recovered");
  EXPECT_FALSE(fs::exists(atomic_temp_path(target_)));
}

TEST_F(AtomicFileTest, CrashBeforeRenameLeavesOldFileIntact) {
  ASSERT_TRUE(atomic_write_file(target_, "old contents").ok());
  AtomicWriteHooks hooks;
  hooks.before_rename = [] { throw SimulatedCrash(); };
  EXPECT_THROW(
      (void)atomic_write_file(
          target_,
          [](std::ostream& os) -> Status {
            os << "new contents";
            return ok_status();
          },
          &hooks),
      SimulatedCrash);
  EXPECT_EQ(read(target_), "old contents");
}

TEST_F(AtomicFileTest, WriterFailureRemovesTempAndKeepsTarget) {
  ASSERT_TRUE(atomic_write_file(target_, "old contents").ok());
  const Status st = atomic_write_file(target_, [](std::ostream& os) -> Status {
    os << "partial";
    return data_loss("writer gave up half-way");
  });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(read(target_), "old contents");
  EXPECT_FALSE(fs::exists(atomic_temp_path(target_)));
}

TEST_F(AtomicFileTest, MissingDirectoryIsUnavailable) {
  const std::string bad = (dir_ / "no_such_dir" / "x.md").string();
  const Status st = atomic_write_file(bad, "content");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fs::exists(bad));
}

TEST_F(AtomicFileTest, StreamedWritesCommitTheBytesOfTheStringOverload) {
  std::string content;
  for (int i = 0; i < 5000; ++i) {
    content += "line " + std::to_string(i) + std::string(1, '\0') + "\n";
  }
  const std::string whole = (dir_ / "whole.md").string();
  ASSERT_TRUE(atomic_write_file(whole, content).ok());

  ASSERT_TRUE(atomic_write_file(target_, "old contents").ok());
  AtomicFile file(target_);
  ASSERT_TRUE(file.status().ok());
  for (std::size_t at = 0; at < content.size(); at += 777) {
    file.stream() << std::string_view(content).substr(at, 777);
  }
  // Nothing is visible under the target until the commit.
  EXPECT_EQ(read(target_), "old contents");
  ASSERT_TRUE(file.commit().ok());
  EXPECT_EQ(read(target_), read(whole));
  EXPECT_FALSE(fs::exists(atomic_temp_path(target_)));
  EXPECT_EQ(file.commit().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AtomicFileTest, UncommittedFileRemovesTempAndKeepsTarget) {
  ASSERT_TRUE(atomic_write_file(target_, "old contents").ok());
  {
    AtomicFile file(target_);
    file.stream() << "new contents, never committed";
    EXPECT_TRUE(fs::exists(atomic_temp_path(target_)));
  }
  EXPECT_EQ(read(target_), "old contents");
  EXPECT_FALSE(fs::exists(atomic_temp_path(target_)));
}

TEST_F(AtomicFileTest, UnopenableFileFailsUpFrontAndAtCommit) {
  const std::string bad = (dir_ / "no_such_dir" / "x.md").string();
  AtomicFile file(bad);
  EXPECT_EQ(file.status().code(), StatusCode::kUnavailable);
  file.stream() << "dropped";
  EXPECT_EQ(file.commit(), file.status());
  EXPECT_FALSE(fs::exists(bad));
}

TEST(RetryWithBackoffTest, RetriesOnlyUnavailable) {
  int calls = 0;
  // Transient failure, then success: retried.
  Status st = retry_with_backoff(3, 0, [&]() -> Status {
    ++calls;
    if (calls < 3) return Status::error(StatusCode::kUnavailable, "busy");
    return ok_status();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);

  // Corruption is never retried: one call, error passed through.
  calls = 0;
  st = retry_with_backoff(3, 0, [&]() -> Status {
    ++calls;
    return data_loss("bad checksum");
  });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);

  // Exhausted attempts report the last transient error.
  calls = 0;
  st = retry_with_backoff(2, 0, [&]() -> Status {
    ++calls;
    return Status::error(StatusCode::kUnavailable, "still busy");
  });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace bw::util
