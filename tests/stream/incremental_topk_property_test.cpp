// Property suite for the streaming top-K port tracker: random weighted
// port streams diffed against a brute-force exact-count oracle, over 5
// seeds, plus a hand-built stream that pins the SpaceSaving victim order.
//
//   exact mode          every reported entry matches the oracle count,
//                       zero error, and the top list IS the oracle's
//                       (same total order).
//   space-saving mode   the classic SpaceSaving guarantees, checked per
//                       key: estimate - err <= true <= estimate; the
//                       reported max_error() bounds every entry's error;
//                       any key whose true count exceeds the smallest
//                       tracked estimate is tracked; and the counter
//                       budget is never exceeded.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "stream/incremental/topk.hpp"
#include "util/rng.hpp"

namespace bw::stream::incremental {
namespace {

struct Draw {
  net::ProtoPort pp;
  std::uint64_t weight;
};

/// A skewed random stream: a small hot set gets most of the traffic (the
/// regime SpaceSaving is built for), plus a uniform cold tail that forces
/// evictions.
std::vector<Draw> random_stream(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<Draw> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Draw d;
    const net::Proto proto =
        rng.uniform(0.0, 1.0) < 0.5 ? net::Proto::kTcp : net::Proto::kUdp;
    if (rng.uniform(0.0, 1.0) < 0.7) {
      d.pp = {proto, static_cast<std::uint16_t>(rng.uniform_int(1, 16))};
      d.weight = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
    } else {
      d.pp = {proto, static_cast<std::uint16_t>(rng.uniform_int(1, 60000))};
      d.weight = static_cast<std::uint64_t>(rng.uniform_int(1, 10));
    }
    out.push_back(d);
  }
  return out;
}

std::map<net::ProtoPort, std::uint64_t> oracle_counts(
    const std::vector<Draw>& stream) {
  std::map<net::ProtoPort, std::uint64_t> exact;
  for (const Draw& d : stream) exact[d.pp] += d.weight;
  return exact;
}

TEST(TopKPortsPropertyTest, ExactModeMatchesOracleEverySeed) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto stream = random_stream(seed, 20000);
    const auto exact = oracle_counts(stream);

    TopKPorts tracker(/*capacity=*/8, /*exact=*/true);  // capacity ignored
    std::uint64_t total = 0;
    for (const Draw& d : stream) {
      tracker.add(d.pp, d.weight);
      total += d.weight;
    }

    EXPECT_EQ(tracker.total_weight(), total);
    EXPECT_EQ(tracker.tracked(), exact.size());
    EXPECT_EQ(tracker.evictions(), 0u);
    EXPECT_EQ(tracker.max_error(), 0u);

    // Every entry of the full top list is the oracle count, and the list
    // is the oracle's own (count desc, key asc) order.
    const auto top = tracker.top(exact.size());
    ASSERT_EQ(top.size(), exact.size());
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].count, exact.at(top[i].pp));
      EXPECT_EQ(top[i].err, 0u);
      if (i > 0) {
        EXPECT_TRUE(top[i - 1].count > top[i].count ||
                    (top[i - 1].count == top[i].count &&
                     top[i - 1].pp < top[i].pp));
      }
    }
  }
}

TEST(TopKPortsPropertyTest, SpaceSavingBoundsHoldEverySeed) {
  constexpr std::size_t kCapacity = 64;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto stream = random_stream(seed, 20000);
    const auto exact = oracle_counts(stream);
    ASSERT_GT(exact.size(), kCapacity) << "stream must force evictions";

    TopKPorts sketch(kCapacity, /*exact=*/false);
    for (const Draw& d : stream) sketch.add(d.pp, d.weight);

    EXPECT_LE(sketch.tracked(), kCapacity);
    EXPECT_GT(sketch.evictions(), 0u);

    const auto top = sketch.top(sketch.tracked());
    ASSERT_EQ(top.size(), sketch.tracked());
    std::uint64_t min_estimate = UINT64_MAX;
    for (const auto& e : top) {
      const auto it = exact.find(e.pp);
      const std::uint64_t truth = it == exact.end() ? 0 : it->second;
      // The SpaceSaving sandwich, with the entry's own error bound.
      EXPECT_LE(truth, e.count) << "estimate must over-approximate";
      EXPECT_LE(e.count - e.err, truth)
          << "error never exceeds the reported bound";
      EXPECT_LE(e.err, sketch.max_error());
      min_estimate = std::min(min_estimate, e.count);
    }

    // Hitters above the smallest tracked estimate cannot have been lost.
    for (const auto& [pp, truth] : exact) {
      if (truth <= min_estimate) continue;
      EXPECT_TRUE(std::any_of(top.begin(), top.end(),
                              [&pp = pp](const TopKPorts::Entry& e) {
                                return e.pp == pp;
                              }))
          << "true heavy hitter evicted";
    }
  }
}

TEST(TopKPortsPropertyTest, DeterministicAcrossIdenticalRuns) {
  const auto stream = random_stream(42, 20000);
  TopKPorts a(32, false);
  TopKPorts b(32, false);
  for (const Draw& d : stream) {
    a.add(d.pp, d.weight);
    b.add(d.pp, d.weight);
  }
  EXPECT_EQ(a.top(32), b.top(32));
  EXPECT_EQ(a.evictions(), b.evictions());
}

/// Tracked key -> (count, err), read back through the public top list.
std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>> counters_of(
    const TopKPorts& sketch) {
  std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& e : sketch.top(sketch.tracked())) {
    out[e.pp.port] = {e.count, e.err};
  }
  return out;
}

TEST(TopKPortsPropertyTest, SpaceSavingEvictsMinimumByCountThenErrThenKey) {
  const auto tcp = [](std::uint16_t port) {
    return net::ProtoPort{net::Proto::kTcp, port};
  };
  using Counters =
      std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>>;
  TopKPorts sketch(3, /*exact=*/false);
  // Keys arrive in descending order, so the smallest key of a tie does not
  // sit in the first slot.
  sketch.add(tcp(30), 5);
  sketch.add(tcp(20), 5);
  sketch.add(tcp(10), 5);

  // All three tie on (count 5, err 0): the smallest key goes.
  sketch.add(tcp(40), 1);
  EXPECT_EQ(counters_of(sketch),
            (Counters{{20, {5, 0}}, {30, {5, 0}}, {40, {6, 5}}}));

  // All three tie on count 6; err breaks the tie before the key does, so
  // 20 (err 0, smaller key than 30) goes and 40 (err 5) survives.
  sketch.add(tcp(30), 1);
  sketch.add(tcp(20), 1);
  sketch.add(tcp(50), 1);
  EXPECT_EQ(counters_of(sketch),
            (Counters{{30, {6, 0}}, {40, {6, 5}}, {50, {7, 6}}}));

  // Count comes first: 30 (count 6) goes although 40 and 50 carry errors.
  sketch.add(tcp(40), 2);
  sketch.add(tcp(1), 1);
  EXPECT_EQ(counters_of(sketch),
            (Counters{{1, {7, 6}}, {40, {8, 5}}, {50, {7, 6}}}));
  EXPECT_EQ(sketch.evictions(), 3u);
  EXPECT_EQ(sketch.max_error(), 6u);
}

TEST(TopKPortsPropertyTest, StabilityScoreIsJaccard) {
  TopKPorts a(8, true);
  TopKPorts b(8, true);
  a.add({net::Proto::kTcp, 80}, 10);
  a.add({net::Proto::kTcp, 443}, 5);
  b.add({net::Proto::kTcp, 80}, 7);
  b.add({net::Proto::kUdp, 53}, 3);
  // {80,443} vs {80,53}: intersection 1, union 3.
  EXPECT_DOUBLE_EQ(topk_stability(a.top(2), b.top(2)), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(topk_stability({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(topk_stability(a.top(2), a.top(2)), 1.0);
}

}  // namespace
}  // namespace bw::stream::incremental
