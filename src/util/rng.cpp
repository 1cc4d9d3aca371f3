#include "util/rng.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

namespace bw::util {

namespace {

/// One step of the mt19937_64 twist: the new value of a word from its old
/// value (hi), the next word's old value (lo) and the word m places on.
std::uint64_t twist(std::uint64_t far, std::uint64_t hi,
                    std::uint64_t lo) noexcept {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
  return far ^ (y >> 1) ^ ((y & 1) != 0 ? 0xb5026f5aa96619e9ULL : 0);
}

/// glibc's lgamma writes the process-wide `signgam`, and libstdc++'s
/// binomial and poisson call it on their rejection paths. Draws on those
/// paths take this lock so concurrent generator threads never race on it.
constinit std::mutex lgamma_mutex;

std::unique_lock<std::mutex> lock_if_rejection(bool rejection) {
  return rejection ? std::unique_lock(lgamma_mutex)
                   : std::unique_lock<std::mutex>();
}

}  // namespace

void LazyMt19937_64::refill() noexcept {
  if (next_ == kWords) {
    // A later block: the ordinary twist. Its first half reads only old
    // words; the second half follows when next_ reaches kShift.
    for (std::size_t k = 0; k < kShift; ++k) {
      x_[k] = twist(x_[k + kShift], x_[k], x_[k + 1]);
    }
    next_ = 0;
    ready_ = kShift;
  } else if (ready_ < kShift) {
    // The first block, in runs that double: one word for the first draw,
    // then words [next_, 2 * next_ + 1), so an engine that draws k words
    // seeds at most k + kShift of them in log2(k) + 1 refills.
    const std::size_t last = std::min(kShift, 2 * next_ + 1) - 1;
    // Twisting word k in place reads seed words k, k + 1 and k + kShift.
    std::size_t i = seeded_;
    std::uint64_t prev = x_[i - 1];
    for (; i < last + kShift + 1; ++i) {
      prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
      x_[i] = prev;
    }
    seeded_ = i;
    for (std::size_t k = next_; k <= last; ++k) {
      x_[k] = twist(x_[k + kShift], x_[k], x_[k + 1]);
    }
    ready_ = last + 1;
  } else {
    // The second half of a block reads the first half's new words.
    for (std::size_t k = kShift; k + 1 < kWords; ++k) {
      x_[k] = twist(x_[k - kShift], x_[k], x_[k + 1]);
    }
    x_[kWords - 1] = twist(x_[kShift - 1], x_[kWords - 1], x_[0]);
    ready_ = kWords;
  }
}

std::int64_t Rng::binomial(std::int64_t n, double p) {
  if (n <= 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // libstdc++ sets up and draws by rejection, with lgamma, from
  // n * min(p, 1 - p) >= 8 on (bits/random.tcc, binomial _M_initialize).
  const double p12 = p <= 0.5 ? p : 1.0 - p;
  const auto lock = lock_if_rejection(static_cast<double>(n) * p12 >= 8);
  return std::binomial_distribution<std::int64_t>(n, p)(engine_);
}

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  // Likewise from mean >= 12 on (poisson _M_initialize).
  const auto lock = lock_if_rejection(mean >= 12);
  return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (weights.empty() || total <= 0.0) return 0;
  double target = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  k = std::min(k, n);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  // Partial Fisher-Yates: only the first k positions need shuffling.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(uniform_int(
                0, static_cast<std::int64_t>(n - i) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace bw::util
