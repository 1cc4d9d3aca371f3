// util::LazyMt19937_64 must yield exactly std::mt19937_64's sequence: every
// corpus, ledger pin and golden hash was generated through the standard
// engine, and util::Rng swaps in the lazy one to skip the seeding work that
// a short-lived substream never reads. These tests hold the two engines
// side by side: raw words across block boundaries, copies taken at each
// boundary of the lazy first block, std::shuffle, and every distribution
// util::Rng wraps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "util/rng.hpp"

namespace bw::util {
namespace {

constexpr std::uint64_t kSeed = 20191021;

// Both engines' next `count` words; false (with a message) at the first
// word where they differ.
testing::AssertionResult same_words(LazyMt19937_64& lazy,
                                    std::mt19937_64& ref, int count) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t want = ref();
    const std::uint64_t got = lazy();
    if (got != want) {
      return testing::AssertionFailure()
             << "word " << i << ": " << got << " != " << want;
    }
  }
  return testing::AssertionSuccess();
}

TEST(LazyMtTest, MatchesStdOverDerivedAndEdgeSeeds) {
  // 1,000 outputs cross the end of the lazy half (156), the first block
  // (312) and the second block (624).
  std::vector<std::uint64_t> seeds{0, 1, 5489,
                                   std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t tag = 0; tag < 10000; ++tag) {
    seeds.push_back(Rng::derive_seed(kSeed, tag));
  }
  for (const std::uint64_t seed : seeds) {
    LazyMt19937_64 lazy(seed);
    std::mt19937_64 ref(seed);
    ASSERT_TRUE(same_words(lazy, ref, 1000)) << "seed " << seed;
  }
}

TEST(LazyMtTest, CopiesContinueIdentically) {
  // Each cut sits on a boundary of the lazy state: before any word is
  // seeded, after the first word, at the end of the word-by-word half, at
  // the second half of the first twist, and at the first full twist.
  for (const int drawn : {0, 1, 155, 156, 311, 312, 313, 624}) {
    LazyMt19937_64 lazy(Rng::derive_seed(kSeed, 99));
    std::mt19937_64 ref(Rng::derive_seed(kSeed, 99));
    ASSERT_TRUE(same_words(lazy, ref, drawn)) << "drawn " << drawn;
    LazyMt19937_64 copy = lazy;
    std::mt19937_64 ref_copy = ref;
    EXPECT_TRUE(same_words(copy, ref_copy, 1000)) << "copy after " << drawn;
    EXPECT_TRUE(same_words(lazy, ref, 1000)) << "original after " << drawn;
  }
}

TEST(LazyMtTest, ShuffleMatchesStd) {
  // Small ranges take libstdc++'s two-indices-per-word path, large ones
  // one word per index.
  for (const int size : {2, 7, 1000, 100000}) {
    std::vector<int> a(static_cast<std::size_t>(size));
    std::iota(a.begin(), a.end(), 0);
    std::vector<int> b = a;
    LazyMt19937_64 lazy(Rng::derive_seed(kSeed, 7));
    std::mt19937_64 ref(Rng::derive_seed(kSeed, 7));
    std::shuffle(a.begin(), a.end(), lazy);
    std::shuffle(b.begin(), b.end(), ref);
    EXPECT_EQ(a, b) << "size " << size;
  }
}

// Draws `count` values from an Rng method and from the std distribution
// it wraps on a std::mt19937_64 with the same seed, and compares them.
template <typename FromRng, typename FromStd>
void expect_same_draws(std::uint64_t tag, FromRng from_rng,
                       FromStd from_std, int count = 700) {
  Rng rng(Rng::derive_seed(kSeed, tag));
  std::mt19937_64 ref(Rng::derive_seed(kSeed, tag));
  for (int i = 0; i < count; ++i) {
    const auto got = from_rng(rng);
    const auto want = from_std(ref);
    ASSERT_EQ(got, want) << "tag " << tag << ", draw " << i;
  }
}

TEST(LazyMtTest, RngDistributionsMatchStd) {
  expect_same_draws(
      1, [](Rng& r) { return r.uniform_int(-5, 1000); },
      [](std::mt19937_64& e) {
        return std::uniform_int_distribution<std::int64_t>(-5, 1000)(e);
      });
  expect_same_draws(
      2, [](Rng& r) { return r.uniform(2.0, 3.0); },
      [](std::mt19937_64& e) {
        return std::uniform_real_distribution<double>(2.0, 3.0)(e);
      });
  expect_same_draws(
      3, [](Rng& r) { return r.chance(0.3); },
      [](std::mt19937_64& e) { return std::bernoulli_distribution(0.3)(e); });
  expect_same_draws(
      4, [](Rng& r) { return r.exponential(0.5); },
      [](std::mt19937_64& e) {
        return std::exponential_distribution<double>(0.5)(e);
      });
  expect_same_draws(
      5, [](Rng& r) { return r.normal(10.0, 2.0); },
      [](std::mt19937_64& e) {
        return std::normal_distribution<double>(10.0, 2.0)(e);
      });
  expect_same_draws(
      6, [](Rng& r) { return r.lognormal(1.0, 0.5); },
      [](std::mt19937_64& e) {
        return std::lognormal_distribution<double>(1.0, 0.5)(e);
      });
  expect_same_draws(
      7, [](Rng& r) { return r.pareto(2.0, 1.5); },
      [](std::mt19937_64& e) {
        const double u = std::uniform_real_distribution<double>(
            std::numeric_limits<double>::min(), 1.0)(e);
        return 2.0 / std::pow(u, 1.0 / 1.5);
      });
}

TEST(LazyMtTest, BinomialMatchesStdAroundItsRejectionThreshold) {
  // libstdc++ switches to its lgamma rejection sampler (which util::Rng
  // draws under a lock) from n * min(p, 1 - p) >= 8 on; cover both sides
  // of it, from both sides of p = 0.5, plus the 1:10,000 sampling case.
  struct Case {
    std::int64_t n;
    double p;
  };
  const Case cases[] = {{10000, 0.0001}, {150, 0.05},  {160, 0.05},
                        {1000, 0.05},    {100, 0.97},  {1000, 0.9},
                        {5000000, 0.0001}, {17, 0.5}};
  std::uint64_t tag = 100;
  for (const Case c : cases) {
    expect_same_draws(
        ++tag, [&](Rng& r) { return r.binomial(c.n, c.p); },
        [&](std::mt19937_64& e) {
          return std::binomial_distribution<std::int64_t>(c.n, c.p)(e);
        });
  }
}

TEST(LazyMtTest, PoissonMatchesStdAroundItsRejectionThreshold) {
  // The rejection sampler starts at mean >= 12.
  std::uint64_t tag = 200;
  for (const double mean : {0.5, 3.0, 11.9, 12.0, 50.0, 4000.0}) {
    expect_same_draws(
        ++tag, [&](Rng& r) { return r.poisson(mean); },
        [&](std::mt19937_64& e) {
          return std::poisson_distribution<std::int64_t>(mean)(e);
        });
  }
}

}  // namespace
}  // namespace bw::util
