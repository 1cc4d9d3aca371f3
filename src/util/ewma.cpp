#include "util/ewma.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace bw::util {

struct EwmaWeights {
  double decay{1.0};          ///< 1 - alpha
  double oldest_weight{0.0};  ///< (1-alpha)^window: weight of an evicted value
  std::vector<double> w;      ///< w_i, i = 0 newest, by repeated multiplication
  std::vector<double> total;  ///< total[k] = ((0 + w_0) + w_1) + ... + w_{k-1}
};

namespace {

std::unique_ptr<const EwmaWeights> build_weights(std::size_t window) {
  auto t = std::make_unique<EwmaWeights>();
  const double alpha = 2.0 / (static_cast<double>(window) + 1.0);
  t->decay = 1.0 - alpha;
  t->w.resize(window);
  t->total.resize(window + 1);
  double w = 1.0;
  double sum = 0.0;
  t->total[0] = sum;
  for (std::size_t i = 0; i < window; ++i) {
    t->w[i] = w;
    sum += w;
    t->total[i + 1] = sum;
    w *= t->decay;
  }
  t->oldest_weight = t->w.back() * t->decay;
  return t;
}

/// The process-wide table for `window`, built on first use. Tables are
/// never freed or modified, so the returned reference stays valid and can
/// be read from any thread without a lock.
const EwmaWeights& shared_weights(std::size_t window) {
  static std::mutex mutex;
  static auto* tables =  // never destroyed: detectors may outlive statics
      new std::map<std::size_t, std::unique_ptr<const EwmaWeights>>();
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = (*tables)[window];
  if (!slot) slot = build_weights(window);
  return *slot;
}

}  // namespace

EwmaDetector::EwmaDetector(EwmaConfig config) : cfg_(config) {
  if (cfg_.window == 0) cfg_.window = 1;
  weights_ = &shared_weights(cfg_.window);
}

void EwmaDetector::drop_oldest(std::size_t count) {
  head_ += count;
  if (head_ == samples_.size()) {
    samples_.clear();
    head_ = 0;
  } else if (head_ >= 32 && 2 * head_ >= samples_.size()) {
    // Amortised O(1): at least as many entries were popped as are moved.
    samples_.erase(samples_.begin(),
                   samples_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void EwmaDetector::recompute_sums() {
  // Exact recomputation from the retained samples, killing accumulated
  // float drift. Newest first, as a dense ring walk would add them; the
  // zero samples in between would add exact +0.0 terms.
  const EwmaWeights& t = *weights_;
  weighted_sum_ = 0.0;
  weighted_sq_sum_ = 0.0;
  for (std::size_t i = samples_.size(); i-- > head_;) {
    const double w = t.w[seen_ - 1 - samples_[i].seq];
    const double v = samples_[i].value;
    weighted_sum_ += w * v;
    weighted_sq_sum_ += w * v * v;
  }
  weight_total_ = t.total[std::min(seen_, cfg_.window)];
}

double EwmaDetector::current_average() const {
  return weight_total_ > 0.0 ? weighted_sum_ / weight_total_ : 0.0;
}

double EwmaDetector::current_stddev() const {
  if (weight_total_ <= 0.0) return 0.0;
  const double mean = weighted_sum_ / weight_total_;
  const double var = weighted_sq_sum_ / weight_total_ - mean * mean;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

bool EwmaDetector::push(double x) {
  bool anomalous = false;
  if (window_full()) {
    const double avg = current_average();
    const double sd = std::max(current_stddev(), cfg_.min_sd);
    anomalous = x > avg + cfg_.threshold_sd * sd;
  }

  // O(1) update: decay every retained weight by one step, add the new value
  // at weight 1, and drop the value that falls out of the window (sample
  // seen_ - window, if it was nonzero).
  const EwmaWeights& t = *weights_;
  double evicted = 0.0;
  if (seen_ >= cfg_.window && head_ < samples_.size() &&
      samples_[head_].seq == seen_ - cfg_.window) {
    evicted = samples_[head_].value;
    drop_oldest(1);
  }
  weighted_sum_ = x + t.decay * weighted_sum_ - t.oldest_weight * evicted;
  weighted_sq_sum_ =
      x * x + t.decay * weighted_sq_sum_ - t.oldest_weight * evicted * evicted;
  if (seen_ < cfg_.window) {
    // Growing phase: total weight gains the next power of the decay.
    weight_total_ = weight_total_ * t.decay + 1.0;
  }

  if (x != 0.0) samples_.push_back({seen_, x});
  ++seen_;

  if (seen_ % (cfg_.window * 4) == 0) recompute_sums();
  return anomalous;
}

void EwmaDetector::push_zeros(std::size_t n) {
  if (n == 0) return;
  const EwmaWeights& t = *weights_;
  if (n >= cfg_.window) {
    // The run displaces the entire window: every retained value ages out
    // and the moments collapse to exactly zero.
    samples_.clear();
    head_ = 0;
    if (seen_ < cfg_.window) {
      // Growing phase ends inside the run; the total weight settles at the
      // closed form of the geometric series sum_{i<window} decay^i.
      weight_total_ = (1.0 - t.oldest_weight) / (1.0 - t.decay);
    }
    seen_ += n;
    weighted_sum_ = 0.0;
    weighted_sq_sum_ = 0.0;
    return;
  }

  // n < window: the run pushes samples seen_ .. seen_+n-1, and its step k
  // evicts sample seen_+k-window. An entry evicted at step k contributes
  // oldest_weight * decay^(n-1-k) * value to the final sums; everything
  // else just decays by decay^n. Entries are visited oldest first, in
  // ascending k.
  double zs = 0.0;
  double zq = 0.0;
  std::size_t i = head_;
  for (; i < samples_.size() && samples_[i].seq + cfg_.window < seen_ + n;
       ++i) {
    const std::size_t k = samples_[i].seq + cfg_.window - seen_;
    const double w = t.w[n - 1 - k];
    const double v = samples_[i].value;
    zs += w * v;
    zq += w * v * v;
  }
  drop_oldest(i - head_);
  const double dn = t.w[n];
  weighted_sum_ = dn * weighted_sum_ - t.oldest_weight * zs;
  weighted_sq_sum_ = dn * weighted_sq_sum_ - t.oldest_weight * zq;
  if (seen_ < cfg_.window) {
    const std::size_t g = std::min(n, cfg_.window - seen_);
    weight_total_ = weight_total_ * t.w[g] + (1.0 - t.w[g]) / (1.0 - t.decay);
  }
  const std::size_t period = cfg_.window * 4;
  const bool crossed = seen_ / period != (seen_ + n) / period;
  seen_ += n;
  if (crossed) recompute_sums();  // same drift control as sequential pushes
}

void EwmaDetector::reset() {
  samples_.clear();
  head_ = 0;
  seen_ = 0;
  weighted_sum_ = 0.0;
  weighted_sq_sum_ = 0.0;
  weight_total_ = 0.0;
}

EwmaSeries ewma_scan(std::span<const double> series, EwmaConfig config) {
  EwmaDetector det(config);
  EwmaSeries out;
  out.average.reserve(series.size());
  out.stddev.reserve(series.size());
  out.anomalous.reserve(series.size());
  for (double x : series) {
    const bool flag = det.push(x);
    out.anomalous.push_back(flag);
    out.average.push_back(det.current_average());
    out.stddev.push_back(det.current_stddev());
  }
  return out;
}

}  // namespace bw::util
