// Unit tests for the flat key -> id index behind the streaming kernels'
// dense tables: every operation sequence must agree with a std map oracle,
// across growth and SpaceSaving-style erase-and-replace churn (erase shifts
// later probe-run entries back, so a wrong shift loses keys).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/flat_index.hpp"
#include "util/rng.hpp"

namespace bw::util {
namespace {

TEST(FlatIndexTest, EmptyFindsNothingAndEraseIsANoOp) {
  FlatIndex index;
  EXPECT_EQ(index.find(0), FlatIndex::kNone);
  EXPECT_EQ(index.find(42), FlatIndex::kNone);
  index.erase(42);
  EXPECT_EQ(index.size(), 0u);
}

TEST(FlatIndexTest, TryEmplaceKeepsTheFirstId) {
  FlatIndex index;
  using Result = std::pair<std::uint32_t, bool>;
  EXPECT_EQ(index.try_emplace(7, 3), Result(3, true));
  EXPECT_EQ(index.try_emplace(7, 9), Result(3, false));
  EXPECT_EQ(index.find(7), 3u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndexTest, RandomOperationsMatchAMapOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FlatIndex index;
    std::unordered_map<std::uint64_t, std::uint32_t> oracle;
    // A narrow key range forces collisions, long probe runs and re-inserts
    // of erased keys; the wide keys exercise the high bits of the hash.
    const auto key = [&rng] {
      const auto k = static_cast<std::uint64_t>(rng.uniform_int(0, 3000));
      return rng.chance(0.5) ? k : k << 40 | 0x5a5a;
    };
    for (std::uint32_t op = 0; op < 40000; ++op) {
      const std::uint64_t k = key();
      if (rng.chance(0.35)) {
        index.erase(k);
        oracle.erase(k);
      } else {
        const auto [id, inserted] = index.try_emplace(k, op);
        const auto [it, want_inserted] = oracle.try_emplace(k, op);
        ASSERT_EQ(inserted, want_inserted);
        ASSERT_EQ(id, it->second);
      }
      ASSERT_EQ(index.size(), oracle.size());
    }
    for (std::uint64_t k = 0; k <= 3000; ++k) {
      for (const std::uint64_t probe : {k, k << 40 | 0x5a5a}) {
        const auto it = oracle.find(probe);
        ASSERT_EQ(index.find(probe),
                  it == oracle.end() ? FlatIndex::kNone : it->second)
            << probe;
      }
    }
  }
}

}  // namespace
}  // namespace bw::util
