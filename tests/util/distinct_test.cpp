// Unit tests for the flat distinct counter behind the per-slot cardinality
// features: insert must report a key's first sighting exactly once per
// clear(), across table growth and the wrap of the clear() version tag,
// where stale entries of equal keys sit in the table.
#include <gtest/gtest.h>

#include <cstdint>

#include "util/distinct.hpp"

namespace bw::util {
namespace {

TEST(DistinctCounterTest, InsertIsTrueOncePerKeyPerClear) {
  // An 8-bit tag wraps every 255 clears; the same keys come back each
  // round, and the key count rises so the table also grows after a wrap.
  DistinctCounter<std::uint64_t, std::uint8_t> counter;
  for (std::uint64_t round = 0; round < 600; ++round) {
    const std::uint64_t n = 1 + round;
    for (std::uint64_t k = 0; k < n; ++k) {
      ASSERT_TRUE(counter.insert(k * 0x9E3779B1u)) << round << ": " << k;
      ASSERT_FALSE(counter.insert(k * 0x9E3779B1u)) << round << ": " << k;
    }
    for (std::uint64_t k = 0; k < n; ++k) {
      ASSERT_FALSE(counter.insert(k * 0x9E3779B1u)) << round << ": " << k;
    }
    ASSERT_EQ(counter.size(), n);
    counter.clear();
    ASSERT_EQ(counter.size(), 0u);
  }
}

}  // namespace
}  // namespace bw::util
