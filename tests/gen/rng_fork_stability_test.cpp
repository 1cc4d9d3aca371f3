// Golden test for RNG fork stability: the scenario keys every substream
// off util::Rng::derive_seed with fixed named tags, and sharded generation
// depends on those streams never moving. If any of these numbers change,
// every previously generated corpus (and the serial-vs-sharded determinism
// contract) silently changes with it — bump the dataset cache fingerprint
// and regenerate the goldens deliberately, never casually.
//
// util::Rng draws through util::LazyMt19937_64, which yields exactly the
// sequence of the fully specified mt19937_64 (rng_engine_test holds the two
// side by side), and splitmix64 is fully specified too, so these values are
// platform-independent.
#include <gtest/gtest.h>

#include <cstdint>

#include "util/rng.hpp"

namespace bw {
namespace {

// The named fork tags used by gen::Scenario (see src/gen/scenario.cpp).
constexpr std::uint64_t kScenarioTags[] = {
    1,  // members
    2,  // origins
    3,  // hosts
    4,  // remotes
    5,  // amplifiers
    6,  // registry
    7,  // events
    8,  // legit
    9,  // scan
    1000000,  // attack stream base (+ event id)
};
constexpr std::uint64_t kSeed = 20191021;  // the documented corpus seed
constexpr int kDraws = 4;

TEST(RngForkStabilityTest, DeriveSeedGolden) {
  // First layer of the substream tree: derive_seed(seed, tag).
  constexpr std::uint64_t kExpected[] = {
      0xce9ada18f46e1d33ULL,  // tag 1
      0xf3fd90f079cf8a8cULL,  // tag 2
      0xf903bb400085ccbbULL,  // tag 3
      0xa05357d5f123e63eULL,  // tag 4
      0x3c0a6cb0e5ba5fc2ULL,  // tag 5
      0xe73a3079be8fcb98ULL,  // tag 6
      0xe39e7f5756e7f42bULL,  // tag 7
      0xa97e96430a66f41bULL,  // tag 8
      0xd8c008903671a28bULL,  // tag 9
      0x3caaa2c5548799d2ULL,  // tag 1000000
  };
  for (std::size_t i = 0; i < std::size(kScenarioTags); ++i) {
    EXPECT_EQ(util::Rng::derive_seed(kSeed, kScenarioTags[i]), kExpected[i])
        << "tag " << kScenarioTags[i];
  }
}

TEST(RngForkStabilityTest, ForkedStreamGolden) {
  // First kDraws raw engine outputs of each named fork.
  constexpr std::uint64_t kExpected[std::size(kScenarioTags)][kDraws] = {
      {0xbb46b771b9cebbf6ULL, 0xdacebee62128417bULL, 0x6092e8a1b10c1a35ULL,
       0x0095a5ee8e723aa3ULL},
      {0x0a93a66997634d0dULL, 0x8d35ffb505486c35ULL, 0x7e0e11a259c5a26aULL,
       0xd5d37d19f66ddf86ULL},
      {0x81997a8628d0a1ddULL, 0xdf9bd49c03e5c37eULL, 0xc1cfc6f21de1244dULL,
       0xa56b40509957ba29ULL},
      {0x4970955276dab4f7ULL, 0x3b0caa51f7f82a17ULL, 0xeea5e0c0f57a79a1ULL,
       0xa6988d730c6613a3ULL},
      {0x7ea6c40b00f847b5ULL, 0x3d3498508148f147ULL, 0xd52d340d68a9018fULL,
       0x87b81b39504228e4ULL},
      {0x8250cccd871efaaaULL, 0x3d9859e4ac413394ULL, 0x9957651512e493b9ULL,
       0x8177708b7bc2885eULL},
      {0xd9d7bcded20f6707ULL, 0x77ee2449b2c4c7dbULL, 0x3584ea152350517fULL,
       0xd10a786bf931b8d2ULL},
      {0x2900a74b1e30e8f9ULL, 0xf6b8fbd8a6558c51ULL, 0x08316eb4bbdb9b92ULL,
       0xd1841fa49b48faceULL},
      {0xd5eb7455f8fc6e75ULL, 0xf41c84e20c5f889aULL, 0xbbc3ac5932e610a7ULL,
       0x14c30509aea1e28bULL},
      {0x04fc0f02bdc3ee10ULL, 0xa32f82059cae5301ULL, 0x6ca0d17fff205720ULL,
       0x55d9189ad0e0f916ULL},
  };
  for (std::size_t i = 0; i < std::size(kScenarioTags); ++i) {
    util::Rng stream = util::Rng(kSeed).fork(kScenarioTags[i]);
    for (int d = 0; d < kDraws; ++d) {
      EXPECT_EQ(stream.engine()(), kExpected[i][d])
          << "tag " << kScenarioTags[i] << " draw " << d;
    }
  }
}

TEST(RngForkStabilityTest, ChainedDerivationGolden) {
  // The per-unit seed chains used by sharded emission: legit
  // derive(derive(derive(seed, 8), host), day) and scan
  // derive(derive(seed, 9), day) — plus a burst id one level deeper.
  const std::uint64_t legit =
      util::Rng::derive_seed(util::Rng::derive_seed(
                                 util::Rng::derive_seed(kSeed, 8), 17),
                             42);
  const std::uint64_t scan =
      util::Rng::derive_seed(util::Rng::derive_seed(kSeed, 9), 42);
  EXPECT_EQ(legit, 0xc560d4a67acb811aULL);
  EXPECT_EQ(scan, 0xf97bfa468c94e0ebULL);
  EXPECT_EQ(util::Rng::derive_seed(legit, 1), 0x47e40b8a8d1bebcfULL);
}

TEST(RngForkStabilityTest, ForkMatchesDeriveSeed) {
  // fork(tag) is defined as reseeding with derive_seed — the property the
  // sharded driver relies on to reconstruct streams without a parent Rng.
  for (const std::uint64_t tag : kScenarioTags) {
    util::Rng forked = util::Rng(kSeed).fork(tag);
    util::Rng derived(util::Rng::derive_seed(kSeed, tag));
    for (int d = 0; d < kDraws; ++d) {
      EXPECT_EQ(forked.engine()(), derived.engine()());
    }
  }
}

}  // namespace
}  // namespace bw
