#include "stream/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace bw::stream {
namespace {

TEST(CeilPow2Test, RoundsUp) {
  EXPECT_EQ(ceil_pow2(0), 1u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(4), 4u);
  EXPECT_EQ(ceil_pow2(5), 8u);
  EXPECT_EQ(ceil_pow2(1000), 1024u);
  EXPECT_EQ(ceil_pow2(1024), 1024u);
}

TEST(CeilPow2Test, LargestPowerIsTheBoundary) {
  // Above 2^63 no power of two fits: ceil_pow2 must report 0 rather than
  // shift p out to 0 and spin.
  constexpr std::size_t kTop = std::size_t{1} << 63;
  EXPECT_EQ(ceil_pow2(kTop - 1), kTop);
  EXPECT_EQ(ceil_pow2(kTop), kTop);
  EXPECT_EQ(ceil_pow2(kTop + 1), 0u);
  EXPECT_EQ(ceil_pow2(SIZE_MAX), 0u);
  EXPECT_THROW(SpscRing<int>{SIZE_MAX}, std::length_error);
}

TEST(SpscRingTest, CapacityRoundsToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
}

TEST(SpscRingTest, FifoOrderAcrossWraparound) {
  SpscRing<int> ring(4);
  int next_pop = 0;
  // Push/pop far past the capacity so head and tail wrap many times:
  // fill to the brim, then drain 3 of 4, so the cursors land on every
  // offset modulo the capacity.
  for (int v = 0; v < 1000; ++v) {
    ASSERT_TRUE(ring.try_push(v));
    if (ring.size() == ring.capacity()) {
      for (int k = 0; k < 3; ++k) {
        int out = -1;
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out, next_pop++);
      }
    }
  }
  int out = -1;
  while (ring.try_pop(out)) EXPECT_EQ(out, next_pop++);
  EXPECT_EQ(next_pop, 1000);
}

TEST(SpscRingTest, FullRejectsAndEmptyRejects) {
  SpscRing<int> ring(2);
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out)) << "empty ring must reject pop";
  EXPECT_TRUE(ring.empty());
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  int rejected = 3;
  EXPECT_FALSE(ring.try_push(rejected)) << "full ring must reject push";
  EXPECT_EQ(rejected, 3) << "rejected element must be left untouched";
  EXPECT_EQ(ring.size(), 2u);
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.try_push(rejected));  // room again after the pop
}

TEST(SpscRingTest, CapacityOneIsAHandoffCell) {
  SpscRing<int> ring(1);
  EXPECT_EQ(ring.capacity(), 1u);
  for (int v = 0; v < 100; ++v) {
    ASSERT_TRUE(ring.try_push(v));
    int blocked = -1;
    EXPECT_FALSE(ring.try_push(blocked));
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, v);
    EXPECT_FALSE(ring.try_pop(out));
  }
}

TEST(SpscRingTest, FrontPeeksWithoutPopping) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.front(), nullptr);
  ASSERT_TRUE(ring.try_push(7));
  ASSERT_TRUE(ring.try_push(8));
  ASSERT_NE(ring.front(), nullptr);
  EXPECT_EQ(*ring.front(), 7);
  EXPECT_EQ(ring.size(), 2u) << "front must not consume";
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_EQ(*ring.front(), 8);
}

TEST(SpscRingTest, BulkPopDrainsInFifoOrder) {
  SpscRing<int> ring(8);
  int out[8] = {};
  EXPECT_EQ(ring.try_pop_bulk(out, 8), 0u) << "empty ring yields nothing";

  // Drive the cursors across many wraparounds with mixed batch sizes; the
  // bulk path must deliver exactly the pushed sequence, interleaving
  // cleanly with single pops.
  int pushed = 0;
  int popped = 0;
  while (pushed < 1000) {
    while (pushed < 1000 && ring.try_push(pushed)) ++pushed;
    const std::size_t batch = 1 + static_cast<std::size_t>(pushed % 5);
    const std::size_t got = ring.try_pop_bulk(out, batch);
    ASSERT_LE(got, batch);
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], popped++);
    if (pushed % 3 == 0) {
      int one = -1;
      if (ring.try_pop(one)) {
        EXPECT_EQ(one, popped++);
      }
    }
  }
  std::size_t got = 0;
  while ((got = ring.try_pop_bulk(out, 8)) > 0) {
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], popped++);
  }
  EXPECT_EQ(popped, 1000);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, BulkPopIsCappedByAvailability) {
  SpscRing<int> ring(8);
  for (int v = 0; v < 3; ++v) ASSERT_TRUE(ring.try_push(v));
  int out[8] = {};
  EXPECT_EQ(ring.try_pop_bulk(out, 8), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 2);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, BulkPushFillsToCapacityAndReportsThePartial) {
  SpscRing<int> ring(8);
  int in[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(ring.try_push_bulk(in, 10), 8u) << "room for 8 of 10";
  EXPECT_EQ(ring.try_push_bulk(in + 8, 2), 0u) << "full ring pushes nothing";
  int out = -1;
  for (int v = 0; v < 8; ++v) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(ring.empty());
  // The two rejected elements were never consumed and push fine later.
  EXPECT_EQ(ring.try_push_bulk(in + 8, 2), 2u);
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 8);
}

TEST(SpscRingTest, BulkPushInterleavesWithPopsAcrossWraparound) {
  SpscRing<int> ring(8);
  int in[8] = {};
  int out[8] = {};
  int pushed = 0;
  int popped = 0;
  while (pushed < 1000) {
    const std::size_t batch =
        std::min<std::size_t>(1 + static_cast<std::size_t>(pushed % 7),
                              static_cast<std::size_t>(1000 - pushed));
    for (std::size_t i = 0; i < batch; ++i) {
      in[i] = pushed + static_cast<int>(i);
    }
    pushed += static_cast<int>(ring.try_push_bulk(in, batch));
    const std::size_t got = ring.try_pop_bulk(out, 1 + (popped % 5));
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], popped++);
  }
  std::size_t got = 0;
  while ((got = ring.try_pop_bulk(out, 8)) > 0) {
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], popped++);
  }
  EXPECT_EQ(popped, 1000) << "bulk push must preserve the exact sequence";
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, BulkPushMovesOnlyWhatFit) {
  SpscRing<std::unique_ptr<int>> ring(2);
  std::unique_ptr<int> in[3] = {std::make_unique<int>(0),
                                std::make_unique<int>(1),
                                std::make_unique<int>(2)};
  EXPECT_EQ(ring.try_push_bulk(in, 3), 2u);
  EXPECT_EQ(in[0], nullptr) << "pushed elements are moved from";
  EXPECT_EQ(in[1], nullptr);
  ASSERT_NE(in[2], nullptr) << "rejected element must be left intact";
  EXPECT_EQ(*in[2], 2);
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 0);
}

TEST(SpscRingTest, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

}  // namespace
}  // namespace bw::stream
