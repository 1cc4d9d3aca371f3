// Unit tests for the bump-allocation arena backing the columnar kernels'
// per-event scratch arrays.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "util/arena.hpp"

namespace bw::util {
namespace {

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena(128);
  for (const std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    for (int i = 0; i < 8; ++i) {
      void* p = arena.allocate(3, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "align=" << align;
    }
  }
}

TEST(ArenaTest, AllocZeroedIsZeroAndWritable) {
  Arena arena;
  auto* a = arena.alloc_zeroed<std::uint64_t>(1000);
  ASSERT_NE(a, nullptr);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(a[i], 0u);
  for (std::size_t i = 0; i < 1000; ++i) a[i] = i;
  // A second array must not alias the first.
  auto* b = arena.alloc_zeroed<std::uint64_t>(1000);
  ASSERT_NE(b, nullptr);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(b[i], 0u);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(a[i], i);
}

TEST(ArenaTest, AllocationLargerThanBlockSucceeds) {
  Arena arena(64);
  auto* big = arena.alloc_array<std::uint8_t>(1 << 20);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xAB, 1 << 20);
  EXPECT_GE(arena.bytes_used(), std::size_t{1} << 20);
}

TEST(ArenaTest, ResetReusesBlocksWithoutNewReservations) {
  Arena arena(1 << 12);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 64; ++i) {
      auto* p = arena.alloc_zeroed<std::uint64_t>(512);
      ASSERT_NE(p, nullptr);
      p[0] = 1;  // dirty the memory so zeroing is actually exercised
      p[511] = 2;
    }
    arena.reset();
  }
  const std::size_t reserved_after_warmup = arena.bytes_reserved();
  EXPECT_GT(reserved_after_warmup, 0u);
  // Steady state: the same allocation pattern must be served entirely from
  // retained blocks.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) {
      auto* p = arena.alloc_zeroed<std::uint64_t>(512);
      ASSERT_NE(p, nullptr);
      for (int k = 0; k < 512; ++k) ASSERT_EQ(p[k], 0u);
      p[0] = 0xFF;
    }
    arena.reset();
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(ArenaTest, BytesUsedTracksAllocations) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  const std::uint32_t* block = arena.alloc_array<std::uint32_t>(10);
  EXPECT_NE(block, nullptr);
  EXPECT_GE(arena.bytes_used(), 40u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
}

}  // namespace
}  // namespace bw::util
