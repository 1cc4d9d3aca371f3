// Deterministic random-number facade.
//
// Every stochastic component in blackwatch draws through an Rng instance that
// is seeded explicitly, so a scenario run is exactly reproducible from its
// seed. Sub-streams are derived with `fork(tag)` (splitmix-style) so that
// adding draws to one generator never perturbs another.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

namespace bw::util {

/// std::mt19937_64, seeded lazily. It yields exactly the standard engine's
/// output sequence, but its first block seeds and twists only the state
/// words that the outputs drawn so far depend on: output k < 156 needs the
/// seeding recurrence through word k + 156 and the in-place twist of word
/// k. An engine that draws one word thus seeds 157 words and twists one,
/// where the standard engine seeds 312 and twists 312. From output 156 on
/// it runs the ordinary twist.
/// It is a UniformRandomBitGenerator, so std::shuffle and every
/// std::*_distribution draw the same values from it as from the standard
/// engine with the same seed.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit LazyMt19937_64(result_type seed) noexcept { x_[0] = seed; }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (next_ == ready_) [[unlikely]] refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kWords = 312;  // n: state words per block
  static constexpr std::size_t kShift = 156;  // m: the twist's middle word

  /// Makes output next_ ready (next_ == ready_ on entry).
  void refill() noexcept;

  // Value-initialised, so a copy never reads an indeterminate word.
  std::array<result_type, kWords> x_{};
  std::size_t next_ = 0;    // the word the next output tempers
  std::size_t ready_ = 0;   // words [0, ready_) of this block are twisted
  std::size_t seeded_ = 1;  // words [0, seeded_) hold the seeding recurrence
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream. Identical (seed, tag) pairs always
  /// yield the identical stream.
  [[nodiscard]] Rng fork(std::uint64_t tag) const {
    return Rng(derive_seed(seed_, tag));
  }

  /// The seed a fork(tag) child would use. Exposed so content-keyed
  /// substreams (e.g. per-burst sampling in sharded generation) can chain
  /// derivations without constructing intermediate engines.
  [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t seed,
                                                 std::uint64_t tag) noexcept {
    // splitmix64 finalizer over (seed ^ rotated tag)
    std::uint64_t z =
        seed ^ (tag + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Binomial(n, p) — used by the IPFIX sampler to thin packet bursts.
  std::int64_t binomial(std::int64_t n, double p);

  std::int64_t poisson(double mean);

  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  double normal(double mean, double sd) {
    return std::normal_distribution<double>(mean, sd)(engine_);
  }

  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto draw with scale x_m and shape alpha (heavy-tailed volumes).
  double pareto(double x_m, double alpha) {
    const double u = uniform(std::numeric_limits<double>::min(), 1.0);
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Pick an index in [0, weights.size()) with probability proportional to
  /// the weight. Empty or all-zero weights pick index 0.
  std::size_t weighted_index(std::span<const double> weights);

  /// Pick a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size) {
    return size <= 1 ? 0
                     : static_cast<std::size_t>(
                           uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  /// Sample k distinct indices out of [0, n) (k clamped to n).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  LazyMt19937_64& engine() noexcept { return engine_; }

 private:
  LazyMt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace bw::util
