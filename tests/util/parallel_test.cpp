#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "util/ewma.hpp"

namespace bw::util {
namespace {

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(3);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, SerialPoolRunsInlineInOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::vector<int> order;
  auto a = pool.submit([&] { order.push_back(1); });
  auto b = pool.submit([&] { order.push_back(2); });
  a.get();
  b.get();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, NestedSubmitCompletes) {
  ThreadPool pool(1);  // a single worker must not deadlock on nesting
  auto outer = pool.submit([&] {
    // The inner future is returned, not awaited on the worker thread.
    return pool.submit([] { return 7; });
  });
  auto inner = outer.get();
  EXPECT_EQ(inner.get(), 7);
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 3u, 7u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, PropagatesFirstException) {
  for (const std::size_t workers : {0u, 3u}) {
    ThreadPool pool(workers);
    std::atomic<int> executed{0};
    EXPECT_THROW(parallel_for(pool, 100,
                              [&](std::size_t i) {
                                executed.fetch_add(1);
                                if (i == 17) throw std::runtime_error("bad");
                              },
                              1),
                 std::runtime_error);
    // Remaining chunks are skipped, never lost: the call still returns.
    EXPECT_GE(executed.load(), 1);
  }
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16 * 64);
  parallel_for(
      pool, 16,
      [&](std::size_t outer) {
        parallel_for(
            pool, 64,
            [&](std::size_t inner) { hits[outer * 64 + inner].fetch_add(1); },
            1);
      },
      1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedUseInsideSubmittedTask) {
  ThreadPool pool(2);
  auto f = pool.submit([&] {
    long sum = 0;
    std::mutex m;
    parallel_for(pool, 500, [&](std::size_t i) {
      const std::lock_guard<std::mutex> lock(m);
      sum += static_cast<long>(i);
    });
    return sum;
  });
  EXPECT_EQ(f.get(), 500L * 499 / 2);
}

TEST(ParallelForTest, EwmaDetectorsShareWeightTablesAcrossThreads) {
  // EWMA detectors share one process-wide weight table per window length,
  // built on first use. The windows here are used by no other test, so
  // the first constructions race on pool workers (as pre_rtbh's do); under
  // TSan this must be clean, and every detector must see the same table.
  const auto run = [](std::size_t i) {
    EwmaDetector det({.window = 301 + i % 16});
    for (std::size_t s = 0; s < 2000; ++s) {
      det.push((s * 7 + i) % 13 == 0 ? 5.0 + static_cast<double>(s % 3) : 0.0);
    }
    det.push_zeros(50);
    return det.current_stddev();
  };
  ThreadPool pool(4);
  std::vector<double> parallel(64);
  parallel_for(pool, parallel.size(),
               [&](std::size_t i) { parallel[i] = run(i); });
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i], run(i)) << "detector " << i;
  }
}

TEST(ParallelMapTest, ResultsAreInIndexOrderAtAnyThreadCount) {
  std::vector<std::vector<int>> results;
  for (const std::size_t workers : {0u, 1u, 7u}) {
    ThreadPool pool(workers);
    results.push_back(parallel_map(
        pool, 257, [](std::size_t i) { return static_cast<int>(i * i); }));
  }
  for (std::size_t i = 0; i < 257; ++i) {
    EXPECT_EQ(results[0][i], static_cast<int>(i * i));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelSortTest, MatchesStableSortAtAnyThreadCount) {
  // Keys collide heavily so stability is actually exercised.
  std::mt19937 rng(1234);
  std::vector<std::pair<int, int>> base(200000);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = {static_cast<int>(rng() % 97), static_cast<int>(i)};
  }
  auto comp = [](const auto& a, const auto& b) { return a.first < b.first; };

  auto expected = base;
  std::stable_sort(expected.begin(), expected.end(), comp);

  for (const std::size_t workers : {0u, 1u, 3u, 7u}) {
    ThreadPool pool(workers);
    auto sorted = base;
    parallel_sort(pool, sorted.begin(), sorted.end(), comp);
    EXPECT_EQ(sorted, expected) << "workers=" << workers;
  }
}

TEST(ParallelSortTest, SmallAndEmptyRanges) {
  ThreadPool pool(3);
  std::vector<int> empty;
  parallel_sort(pool, empty.begin(), empty.end());
  EXPECT_TRUE(empty.empty());

  std::vector<int> small{3, 1, 2};
  parallel_sort(pool, small.begin(), small.end());
  EXPECT_EQ(small, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolTest, ConfiguredConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::configured_concurrency(), 1u);
}

}  // namespace
}  // namespace bw::util
