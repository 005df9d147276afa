#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace lupine {

void Accumulator::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::Stddev() const { return std::sqrt(Variance()); }

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return SortedPercentile(samples, p);
}

double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  Accumulator acc;
  for (double s : samples) {
    acc.Add(s);
  }
  return acc.mean();
}

double Stddev(const std::vector<double>& samples) {
  Accumulator acc;
  for (double s : samples) {
    acc.Add(s);
  }
  return acc.Stddev();
}

StreamingPercentiles::StreamingPercentiles(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  samples_.reserve(capacity_);
}

void StreamingPercentiles::Add(double x) { AddRepeated(x, 1); }

void StreamingPercentiles::AddRepeated(double x, size_t n) {
  while (n > 0) {
    // The arrival that brings phase_ up to stride_ is recorded.
    const size_t until_recorded = stride_ - phase_;
    if (n < until_recorded) {
      count_ += n;
      phase_ += n;  // All decimated away.
      return;
    }
    count_ += until_recorded;
    n -= until_recorded;
    phase_ = 0;
    Record(x);
  }
}

void StreamingPercentiles::Record(double x) {
  if (samples_.size() == capacity_) {
    // Halve: keep every other retained sample (arrival order preserved) and
    // double the stride so future arrivals are sampled at the new rate.
    size_t kept = 0;
    for (size_t i = 1; i < samples_.size(); i += 2) {
      samples_[kept++] = samples_[i];
    }
    samples_.resize(kept);
    stride_ *= 2;
  }
  samples_.push_back(x);
}

double StreamingPercentiles::Quantile(double p) const {
  return Percentile(samples_, p);
}

StreamingPercentiles::Tails StreamingPercentiles::TailQuantiles() const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return {SortedPercentile(sorted, 50), SortedPercentile(sorted, 95),
          SortedPercentile(sorted, 99)};
}

}  // namespace lupine
