// Exponentially Weighted Moving Average anomaly detection, exactly as
// specified in Section 5.3 of the paper:
//
//   alpha = 2 / (s + 1)   with window s = 288 five-minute slots (24 h)
//   w_i   = (1 - alpha)^i  (i = 0 is the most recent value)
//   y_t   = sum_i w_i * x_{t-i} / sum_i w_i
//
// A value is anomalous when it exceeds the moving average of the *preceding*
// window by `threshold_sd` weighted standard deviations (2.5 by default; the
// paper reports stable results up to 10). Detection requires a full window:
// no anomaly can fire within the first `window` samples.
//
// Layout. The monitor's per-destination slot series are mostly zeros, so a
// detector keeps only its nonzero samples: (sequence number, value) pairs,
// oldest first from a head index, at most `window` of them. A sample's age
// is `samples_seen() - 1 - seq`, which indexes the weight table directly.
// The weight table (w_i, its in-order prefix sums, decay and decay^window)
// depends only on the window length, so it is built once per length,
// never changes and is shared by every detector of the process; building
// it is serialised, reading it needs no lock.
//
// Exactness. Every running sum keeps the expression form and accumulation
// order of a dense ring walk. A zero sample would add w * 0.0 = +0.0 to an
// accumulator that starts at +0.0 and so is never -0.0, and an evicted zero
// subtracts +0.0 either way, so skipping zeros changes no bit: averages,
// SDs and anomaly flags are those of the dense ring this layout replaced.
// A pushed -0.0 is kept as a zero sample; the series fed here are counts,
// which are never -0.0.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bw::util {

struct EwmaConfig {
  std::size_t window{288};    ///< slots per window (paper: 288 x 5 min = 24 h)
  double threshold_sd{2.5};   ///< anomaly threshold in weighted SDs
  double min_sd{1e-9};        ///< SD floor to avoid flagging flat-line jitter
};

/// Result of running the detector over one feature series.
struct EwmaSeries {
  std::vector<double> average;   ///< y_t per slot (0 while window incomplete)
  std::vector<double> stddev;    ///< weighted SD per slot
  std::vector<bool> anomalous;   ///< x_t > y_{t-1} + threshold * sd_{t-1}
};

/// Per-window-length constants shared by all detectors (see ewma.cpp).
struct EwmaWeights;

/// Streaming EWMA detector over the most recent `window` samples.
class EwmaDetector {
 public:
  explicit EwmaDetector(EwmaConfig config = {});

  /// Feed the next sample; returns true when it is anomalous w.r.t. the
  /// window *before* it (the sample is then incorporated for later calls).
  bool push(double x);

  /// Feed `n` consecutive zero-valued samples in one call. Equivalent to
  /// calling push(0.0) n times except that no anomaly evaluation happens —
  /// for the non-negative series the monitor feeds (counts per slot), a
  /// zero can never exceed the anomaly threshold, so nothing is lost. A
  /// run of zeros is a linear update on the running moments (one decay^n
  /// scaling minus the evicted samples' contributions), so the cost is the
  /// number of nonzero samples the run evicts, not n — this is what makes
  /// gap backfill affordable for sparse destinations.
  void push_zeros(std::size_t n);

  [[nodiscard]] std::size_t samples_seen() const noexcept { return seen_; }
  [[nodiscard]] bool window_full() const noexcept { return seen_ >= cfg_.window; }
  /// Current weighted moving average of the retained window (0 if empty).
  [[nodiscard]] double current_average() const;
  [[nodiscard]] double current_stddev() const;
  [[nodiscard]] const EwmaConfig& config() const noexcept { return cfg_; }

  void reset();

 private:
  struct Sample {
    std::size_t seq;  ///< 0-based position in the pushed series
    double value;     ///< nonzero
  };

  void recompute_sums();
  void drop_oldest(std::size_t count);

  EwmaConfig cfg_;
  const EwmaWeights* weights_;
  std::vector<Sample> samples_;  ///< retained nonzero samples from head_ on
  std::size_t head_{0};          ///< oldest retained entry of samples_
  std::size_t seen_{0};
  // O(1) running weighted moments (renormalised periodically for drift).
  double weighted_sum_{0.0};
  double weighted_sq_sum_{0.0};
  double weight_total_{0.0};
};

/// Run the detector over a whole series (convenience for offline analysis).
[[nodiscard]] EwmaSeries ewma_scan(std::span<const double> series,
                                   EwmaConfig config = {});

}  // namespace bw::util
