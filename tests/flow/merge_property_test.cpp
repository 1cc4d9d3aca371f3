// Property: merge_sorted_flows equals sort_flows of the in-order
// concatenation of its parts — for 0 to 33 parts, for 64 to 256 equal short
// parts, with empty parts, with heavy and total timestamp ties, and on pools
// of 1, 2 and 8 threads. Each record carries its part and position, so a tie
// resolved in the wrong order shows. Carries the "tsan" label with the rest of bw_parallel_test:
// the ranges merge concurrently into one output.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flow/record.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bw::flow {
namespace {

enum class Ties { kFew, kHeavy, kAll };

/// Part `p` of `rows` time-sorted records; `packets`/`bytes` tag each
/// record with its part and position.
FlowLog make_part(util::Rng& rng, std::size_t p, std::size_t rows, Ties ties) {
  const std::int64_t span =
      ties == Ties::kFew ? 1'000'000'000 : ties == Ties::kHeavy ? 16 : 0;
  FlowLog part;
  for (std::size_t i = 0; i < rows; ++i) {
    FlowRecord r;
    r.time = rng.uniform_int(0, span);
    r.packets = static_cast<std::uint32_t>(p);
    part.push_back(r);
  }
  sort_flows(part);
  for (std::size_t i = 0; i < rows; ++i) part[i].bytes = i;
  return part;
}

/// `k` time-sorted parts; part sizes are drawn up to `max_rows`, and about
/// one part in five is empty.
std::vector<FlowLog> make_parts(util::Rng& rng, std::size_t k,
                                std::size_t max_rows, Ties ties) {
  std::vector<FlowLog> parts(k);
  for (std::size_t p = 0; p < k; ++p) {
    if (rng.chance(0.2)) continue;
    const auto rows = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_rows)));
    parts[p] = make_part(rng, p, rows, ties);
  }
  return parts;
}

void expect_merge_matches_sort(const std::vector<FlowLog>& parts,
                               util::ThreadPool& pool) {
  FlowLog expected;
  for (const FlowLog& p : parts) {
    expected.insert(expected.end(), p.begin(), p.end());
  }
  sort_flows(expected);
  const FlowLog merged = merge_sorted_flows(parts, pool);
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged[i].time, expected[i].time) << "row " << i;
    ASSERT_EQ(merged[i].packets, expected[i].packets) << "row " << i;
    ASSERT_EQ(merged[i].bytes, expected[i].bytes) << "row " << i;
  }
}

class MergeSortedFlowsTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// A pool of GetParam() threads: workers plus the caller.
  util::ThreadPool pool_{GetParam() - 1};
};

TEST_P(MergeSortedFlowsTest, EqualsSortOfConcatenationForEveryPartCount) {
  util::Rng rng(20191021 + GetParam());
  for (const Ties ties : {Ties::kFew, Ties::kHeavy, Ties::kAll}) {
    for (std::size_t k = 0; k <= 33; ++k) {
      SCOPED_TRACE(::testing::Message() << "parts " << k << ", ties "
                                        << static_cast<int>(ties));
      expect_merge_matches_sort(make_parts(rng, k, 300, ties), pool_);
    }
  }
}

TEST_P(MergeSortedFlowsTest, EqualsSortOfConcatenationAcrossManyRanges) {
  // Enough rows that the merge cuts its output into several time ranges.
  util::Rng rng(7 + GetParam());
  for (const Ties ties : {Ties::kFew, Ties::kHeavy, Ties::kAll}) {
    for (const std::size_t k : {2u, 5u, 16u, 33u}) {
      SCOPED_TRACE(::testing::Message() << "parts " << k << ", ties "
                                        << static_cast<int>(ties));
      expect_merge_matches_sort(make_parts(rng, k, 300'000 / k, ties), pool_);
    }
  }
}

TEST_P(MergeSortedFlowsTest, EqualsSortOfConcatenationForManyShortParts) {
  // As many equal slices as run_scenario cuts on a wide pool, each shorter
  // than half the merge's sampling stride: every part must still give a
  // pivot sample, or the range cuts have nothing to split at.
  util::Rng rng(64 + GetParam());
  for (const Ties ties : {Ties::kFew, Ties::kHeavy, Ties::kAll}) {
    for (const auto& [k, rows] : {std::pair<std::size_t, std::size_t>{64, 600},
                                 {128, 400},
                                 {256, 200}}) {
      SCOPED_TRACE(::testing::Message() << "parts " << k << " x " << rows
                                        << ", ties " << static_cast<int>(ties));
      std::vector<FlowLog> parts;
      for (std::size_t p = 0; p < k; ++p) {
        parts.push_back(make_part(rng, p, rows, ties));
      }
      expect_merge_matches_sort(parts, pool_);
    }
  }
}

TEST_P(MergeSortedFlowsTest, SinglePartAndEmptyPartsPassThrough) {
  util::Rng rng(42);
  std::vector<FlowLog> parts = make_parts(rng, 1, 1000, Ties::kHeavy);
  FlowRecord last;
  last.time = 1'000'000;
  parts[0].push_back(last);
  parts.insert(parts.begin(), FlowLog{});
  parts.emplace_back();
  expect_merge_matches_sort(parts, pool_);
  EXPECT_TRUE(merge_sorted_flows({}, pool_).empty());
  EXPECT_TRUE(merge_sorted_flows({FlowLog{}, FlowLog{}}, pool_).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Pools, MergeSortedFlowsTest, ::testing::Values(1u, 2u, 8u),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return "threads" + std::to_string(param.param);
    });

}  // namespace
}  // namespace bw::flow
