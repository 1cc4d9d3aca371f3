#include "util/ewma.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bw::util {
namespace {

// Naive reference implementation following the paper's formulas directly.
class NaiveEwma {
 public:
  explicit NaiveEwma(std::size_t window) : window_(window) {
    const double alpha = 2.0 / (static_cast<double>(window) + 1.0);
    double w = 1.0;
    for (std::size_t i = 0; i < window; ++i) {
      weights_.push_back(w);
      w *= (1.0 - alpha);
    }
  }

  void push(double x) {
    values_.insert(values_.begin(), x);  // newest first
    if (values_.size() > window_) values_.resize(window_);
  }

  [[nodiscard]] double average() const {
    return weighted_mean(values_, {weights_.data(), values_.size()});
  }
  [[nodiscard]] double stddev() const {
    return weighted_stddev(values_, {weights_.data(), values_.size()});
  }

 private:
  std::size_t window_;
  std::vector<double> weights_;
  std::vector<double> values_;
};

// The dense-ring detector the sparse layout replaced, arithmetic unchanged,
// as the bit-exactness oracle: one `window`-double ring and a private
// weight table per detector, zeros stored like any other value.
class DenseEwma {
 public:
  explicit DenseEwma(EwmaConfig config) : cfg_(config) {
    if (cfg_.window == 0) cfg_.window = 1;
    ring_.assign(cfg_.window, 0.0);
    weights_.resize(cfg_.window);
    const double alpha = 2.0 / (static_cast<double>(cfg_.window) + 1.0);
    decay_ = 1.0 - alpha;
    double w = 1.0;
    for (std::size_t i = 0; i < cfg_.window; ++i) {
      weights_[i] = w;
      w *= decay_;
    }
    oldest_weight_ = weights_.back() * decay_;
  }

  [[nodiscard]] bool window_full() const { return seen_ >= cfg_.window; }

  [[nodiscard]] double current_average() const {
    return weight_total_ > 0.0 ? weighted_sum_ / weight_total_ : 0.0;
  }

  [[nodiscard]] double current_stddev() const {
    if (weight_total_ <= 0.0) return 0.0;
    const double mean = weighted_sum_ / weight_total_;
    const double var = weighted_sq_sum_ / weight_total_ - mean * mean;
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

  bool push(double x) {
    bool anomalous = false;
    if (window_full()) {
      const double avg = current_average();
      const double sd = std::max(current_stddev(), cfg_.min_sd);
      anomalous = x > avg + cfg_.threshold_sd * sd;
    }
    const double evicted = size_ == cfg_.window ? ring_[head_] : 0.0;
    weighted_sum_ = x + decay_ * weighted_sum_ - oldest_weight_ * evicted;
    weighted_sq_sum_ =
        x * x + decay_ * weighted_sq_sum_ - oldest_weight_ * evicted * evicted;
    if (size_ < cfg_.window) {
      weight_total_ = weight_total_ * decay_ + 1.0;
    }
    if (evicted != 0.0) --nonzero_;
    if (x != 0.0) ++nonzero_;
    ring_[head_] = x;
    head_ = (head_ + 1) % cfg_.window;
    size_ = std::min(size_ + 1, cfg_.window);
    ++seen_;
    if (seen_ % (cfg_.window * 4) == 0) recompute_sums();
    return anomalous;
  }

  void push_zeros(std::size_t n) {
    if (n == 0) return;
    if (n >= cfg_.window) {
      if (nonzero_ != 0) std::fill(ring_.begin(), ring_.end(), 0.0);
      nonzero_ = 0;
      if (size_ < cfg_.window) {
        weight_total_ = (1.0 - oldest_weight_) / (1.0 - decay_);
      }
      head_ = (head_ + n) % cfg_.window;
      size_ = cfg_.window;
      seen_ += n;
      weighted_sum_ = 0.0;
      weighted_sq_sum_ = 0.0;
      return;
    }
    double zs = 0.0;
    double zq = 0.0;
    if (nonzero_ != 0) {
      std::size_t idx = head_;
      for (std::size_t k = 0; k < n; ++k) {
        const double v = ring_[idx];
        if (v != 0.0) {
          const double w = weights_[n - 1 - k];
          zs += w * v;
          zq += w * v * v;
          ring_[idx] = 0.0;
          --nonzero_;
        }
        if (++idx == cfg_.window) idx = 0;
      }
    }
    const double dn = weights_[n];
    weighted_sum_ = dn * weighted_sum_ - oldest_weight_ * zs;
    weighted_sq_sum_ = dn * weighted_sq_sum_ - oldest_weight_ * zq;
    if (size_ < cfg_.window) {
      const std::size_t g = std::min(n, cfg_.window - size_);
      weight_total_ =
          weight_total_ * weights_[g] + (1.0 - weights_[g]) / (1.0 - decay_);
    }
    head_ = (head_ + n) % cfg_.window;
    size_ = std::min(size_ + n, cfg_.window);
    const std::size_t period = cfg_.window * 4;
    const bool crossed = seen_ / period != (seen_ + n) / period;
    seen_ += n;
    if (crossed) recompute_sums();
  }

 private:
  void recompute_sums() {
    std::vector<double> values;
    for (std::size_t i = 0; i < size_; ++i) {
      values.push_back(ring_[(head_ + cfg_.window - 1 - i) % cfg_.window]);
    }
    weighted_sum_ = 0.0;
    weighted_sq_sum_ = 0.0;
    weight_total_ = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      weighted_sum_ += weights_[i] * values[i];
      weighted_sq_sum_ += weights_[i] * values[i] * values[i];
      weight_total_ += weights_[i];
    }
  }

  EwmaConfig cfg_;
  std::vector<double> ring_;
  std::vector<double> weights_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t nonzero_{0};
  std::size_t seen_{0};
  double decay_{1.0};
  double oldest_weight_{0.0};
  double weighted_sum_{0.0};
  double weighted_sq_sum_{0.0};
  double weight_total_{0.0};
};

TEST(EwmaTest, NoAnomalyBeforeFullWindow) {
  EwmaDetector det({.window = 10, .threshold_sd = 2.5});
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(det.push(1000.0 * i)) << "window not yet full at " << i;
  }
  EXPECT_FALSE(det.window_full());
  det.push(0.0);
  EXPECT_TRUE(det.window_full());
}

TEST(EwmaTest, DetectsSpikeAfterFlatBaseline) {
  EwmaDetector det({.window = 20, .threshold_sd = 2.5});
  Rng rng(1);
  for (int i = 0; i < 50; ++i) det.push(10.0 + rng.uniform(-0.5, 0.5));
  EXPECT_TRUE(det.push(100.0));
}

TEST(EwmaTest, NoAnomalyOnFlatSeries) {
  EwmaDetector det({.window = 20});
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(det.push(5.0));
  }
}

TEST(EwmaTest, DipsAreNotAnomalies) {
  EwmaDetector det({.window = 20});
  Rng rng(2);
  for (int i = 0; i < 50; ++i) det.push(100.0 + rng.uniform(-1.0, 1.0));
  EXPECT_FALSE(det.push(0.0));  // only positive deviations count
}

TEST(EwmaTest, RecentValuesWeighHeavier) {
  EwmaDetector det({.window = 4});
  det.push(0.0);
  det.push(0.0);
  det.push(0.0);
  det.push(100.0);  // newest
  // Weighted average with newest-heavy weights must exceed the plain mean.
  EXPECT_GT(det.current_average(), 25.0);
}

TEST(EwmaTest, ResetClearsState) {
  EwmaDetector det({.window = 5});
  for (int i = 0; i < 10; ++i) det.push(3.0);
  det.reset();
  EXPECT_EQ(det.samples_seen(), 0u);
  EXPECT_FALSE(det.window_full());
  EXPECT_EQ(det.current_average(), 0.0);
}

TEST(EwmaTest, ScanMatchesDetector) {
  Rng rng(3);
  std::vector<double> series;
  for (int i = 0; i < 500; ++i) series.push_back(rng.uniform(0.0, 10.0));
  series[400] = 500.0;
  const EwmaConfig cfg{.window = 50};
  std::vector<int> level(series.size(), 0);
  ewma_count_anomalies(series, cfg, level);
  EwmaDetector det(cfg);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(det.push(series[i]) ? 1 : 0, level[i]) << "at " << i;
  }
  EXPECT_EQ(level[400], 1);
}

// Property: the one-pass scan flags exactly the samples a detector fed one
// push at a time flags, over seeded windows of 1 to 300 slots, thresholds
// below, at and above zero, nonzero-sample densities from 0% to 100%, and
// series that cross the 4 x window recompute period. A few negative
// samples drive the average below zero, where zeros must be tested too,
// and every seventh series is flat, where the SD floor decides.
TEST(EwmaTest, CountAnomaliesMatchesPushOnSeededSeries) {
  Rng rng(20191021);
  const double thresholds[] = {-0.5, 0.0, 2.5};
  std::size_t flags = 0;
  std::size_t zero_flags[3] = {0, 0, 0};
  for (int trial = 0; trial < 330; ++trial) {
    const auto window = static_cast<std::size_t>(
        trial < 3 ? 1 : trial < 6 ? 300 : rng.uniform_int(1, 300));
    const EwmaConfig cfg{.window = window,
                         .threshold_sd = thresholds[trial % 3]};
    const double density = static_cast<double>(trial % 11) / 10.0;
    const auto length = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(4 * window + 1),
        static_cast<std::int64_t>(9 * window + 8)));
    std::vector<double> series(length, 0.0);
    for (double& x : series) {
      if (!rng.chance(density)) continue;
      const double r = rng.uniform();
      x = r < 0.03   ? std::floor(rng.uniform(100.0, 5000.0))
          : r < 0.15 ? -std::floor(rng.uniform(1.0, 30.0))
                     : std::floor(rng.uniform(1.0, 30.0));
    }
    if (trial % 7 == 0) std::fill(series.begin(), series.end(), 0.7);
    // The scan adds to the levels it is given, as one feature of five.
    std::vector<int> level(length);
    for (std::size_t s = 0; s < length; ++s) level[s] = static_cast<int>(s % 3);
    ewma_count_anomalies(series, cfg, level);
    EwmaDetector det(cfg);
    for (std::size_t s = 0; s < length; ++s) {
      const bool flag = det.push(series[s]);
      ASSERT_EQ(level[s] - static_cast<int>(s % 3), flag ? 1 : 0)
          << "trial " << trial << " window " << window << " threshold "
          << cfg.threshold_sd << " density " << density << " slot " << s;
      flags += flag ? 1 : 0;
      zero_flags[trial % 3] += flag && series[s] == 0.0 ? 1 : 0;
    }
  }
  EXPECT_GT(flags, zero_flags[0] + zero_flags[1] + zero_flags[2]);
  EXPECT_GT(zero_flags[0], 0u) << "a negative threshold flags zeros";
  EXPECT_GT(zero_flags[1], 0u) << "so does a negative average";
}

TEST(EwmaTest, PaperParameters) {
  const EwmaDetector det;  // defaults
  EXPECT_EQ(det.config().window, 288u);
  EXPECT_DOUBLE_EQ(det.config().threshold_sd, 2.5);
}

// Bit-exactness: the sparse detector against the dense ring it replaced,
// driven by seeded scripts of push(x), push(0.0) and push_zeros(n). The
// scripts start with gaps while the window is still growing, include runs
// of n >= window, and run long enough to cross the 4 x window recompute
// period many times, both inside single pushes and inside zero runs.
class EwmaDenseEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(EwmaDenseEquivalenceTest, BitIdenticalToDenseRing) {
  const auto [window, seed] = GetParam();
  const EwmaConfig cfg{.window = window, .threshold_sd = 2.5};
  EwmaDetector sparse(cfg);
  DenseEwma dense(cfg);
  Rng rng(seed);
  const auto w = static_cast<std::int64_t>(window);
  std::size_t zero_runs = 0;
  std::size_t long_runs = 0;
  std::size_t anomalies = 0;
  for (int step = 0; step < 6000; ++step) {
    const double r = rng.uniform();
    std::string op;
    if (r < 0.15 || (step < 3 && window > 2)) {
      // Gap backfill; early steps land in the growing phase.
      const std::int64_t n = rng.chance(0.2)
                                 ? rng.uniform_int(w, 3 * w)
                                 : rng.uniform_int(1, std::max<std::int64_t>(1, w - 1));
      sparse.push_zeros(static_cast<std::size_t>(n));
      dense.push_zeros(static_cast<std::size_t>(n));
      op = "push_zeros(" + std::to_string(n) + ")";
      ++zero_runs;
      if (n >= w) ++long_runs;
    } else {
      double x = 0.0;
      if (r < 0.55) {
        x = rng.uniform(0.0, 20.0);
      } else if (r < 0.57) {
        x = rng.uniform(100.0, 5000.0);  // spikes
      } else if (r < 0.58) {
        x = -rng.uniform(0.0, 5.0);  // the detector takes any sign
      }
      const bool a = sparse.push(x);
      ASSERT_EQ(a, dense.push(x)) << "step " << step << " push(" << x << ")";
      if (a) ++anomalies;
      op = "push(" + std::to_string(x) + ")";
    }
    ASSERT_EQ(sparse.window_full(), dense.window_full()) << op;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(sparse.current_average()),
              std::bit_cast<std::uint64_t>(dense.current_average()))
        << "step " << step << " after " << op;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(sparse.current_stddev()),
              std::bit_cast<std::uint64_t>(dense.current_stddev()))
        << "step " << step << " after " << op;
  }
  EXPECT_GT(zero_runs, 100u);
  EXPECT_GT(long_runs, 10u);
  EXPECT_GT(sparse.samples_seen(), 8 * window) << "crosses the period";
  if (window >= 7) {
    EXPECT_GT(anomalies, 0u) << "flags are compared too";
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndSeeds, EwmaDenseEquivalenceTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 48, 288),
                       ::testing::Values<std::uint64_t>(5, 71, 2019)));

TEST(EwmaTest, PushZerosAtEveryGrowingPhaseOffsetIsBitIdentical) {
  // Every (prefix length, run length) pair on a small window: runs that
  // end inside the growing phase, end exactly at window, and wrap past it.
  const std::size_t window = 9;
  for (std::size_t prefix = 0; prefix <= 2 * window; ++prefix) {
    for (std::size_t n = 1; n <= 2 * window; ++n) {
      EwmaDetector sparse({.window = window});
      DenseEwma dense({.window = window});
      for (std::size_t i = 0; i < prefix; ++i) {
        const double x = (i % 3 == 1) ? 0.0 : 1.0 + static_cast<double>(i);
        sparse.push(x);
        dense.push(x);
      }
      sparse.push_zeros(n);
      dense.push_zeros(n);
      const bool a = sparse.push(50.0);
      ASSERT_EQ(a, dense.push(50.0)) << prefix << "+" << n;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sparse.current_average()),
                std::bit_cast<std::uint64_t>(dense.current_average()))
          << prefix << "+" << n;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sparse.current_stddev()),
                std::bit_cast<std::uint64_t>(dense.current_stddev()))
          << prefix << "+" << n;
    }
  }
}

TEST(EwmaTest, PushZerosMatchesRepeatedZeroPushes) {
  // push_zeros(n) is a closed-form shortcut for n x push(0.0); the two
  // round differently, so this holds within tolerance, not bit for bit.
  for (const std::size_t window : {1u, 5u, 48u, 288u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    EwmaDetector bulk({.window = window});
    EwmaDetector single({.window = window});
    Rng rng(window + 3);
    for (int step = 0; step < 3000; ++step) {
      if (rng.chance(0.2)) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(
            1, 2 * static_cast<std::int64_t>(window)));
        bulk.push_zeros(n);
        for (std::size_t i = 0; i < n; ++i) single.push(0.0);
      } else {
        const double x = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 30.0);
        bulk.push(x);
        single.push(x);
      }
      ASSERT_EQ(bulk.samples_seen(), single.samples_seen());
      ASSERT_EQ(bulk.window_full(), single.window_full());
      const double tol = 1e-9 * (1.0 + std::abs(single.current_average()));
      ASSERT_NEAR(bulk.current_average(), single.current_average(), tol)
          << "step " << step;
      ASSERT_NEAR(bulk.current_stddev(), single.current_stddev(), 1e-6)
          << "step " << step;
    }
  }
}

TEST(EwmaTest, CopiesAreIndependent) {
  EwmaDetector a({.window = 6});
  for (int i = 0; i < 4; ++i) a.push(2.0 + i);
  EwmaDetector b = a;
  b.push_zeros(10);
  a.push(9.0);
  EXPECT_EQ(b.current_average(), 0.0);
  EXPECT_GT(a.current_average(), 0.0);
  EXPECT_EQ(a.samples_seen(), 5u);
  EXPECT_EQ(b.samples_seen(), 14u);
}

// Property: the O(1) incremental moments match the naive recomputation.
class EwmaPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(EwmaPropertyTest, IncrementalMatchesNaive) {
  const auto [window, seed] = GetParam();
  EwmaDetector det({.window = window});
  NaiveEwma naive(window);
  Rng rng(seed);
  for (int i = 0; i < 700; ++i) {
    // Mix of sparse zeros and occasional spikes, like real slot series.
    double x = rng.chance(0.7) ? 0.0 : rng.uniform(0.0, 20.0);
    if (rng.chance(0.01)) x = rng.uniform(100.0, 1000.0);
    det.push(x);
    naive.push(x);
    // Tolerance scales with magnitude: the sum-of-squares variance form
    // loses precision via cancellation when values are large.
    const double tol = 1e-6 + 1e-6 * std::abs(naive.average()) +
                       1e-9 * naive.average() * naive.average();
    ASSERT_NEAR(det.current_average(), naive.average(), tol) << "step " << i;
    ASSERT_NEAR(det.current_stddev(), naive.stddev(), tol + 1e-4)
        << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndSeeds, EwmaPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 7, 50, 288),
                       ::testing::Values<std::uint64_t>(1, 99)));

}  // namespace
}  // namespace bw::util
