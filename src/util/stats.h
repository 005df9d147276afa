// Small statistics helpers for benchmark reporting.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace lupine {

// Streaming accumulator (Welford) for mean / variance / extremes.
class Accumulator {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  double Variance() const;
  double Stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Percentile over a copied sample set (nearest-rank).
double Percentile(std::vector<double> samples, double p);
// The same interpolation over samples already sorted ascending.
double SortedPercentile(const std::vector<double>& sorted, double p);

double Mean(const std::vector<double>& samples);
double Stddev(const std::vector<double>& samples);

// Streaming percentile estimator with bounded memory.
//
// Exact while the stream fits in `capacity` samples; beyond that the stream
// is decimated deterministically (keep every stride-th sample, doubling the
// stride each time the buffer fills), which is systematic sampling — quantile
// estimates stay unbiased for streams without stride-aligned periodicity and
// two identical streams always produce identical estimates. Backing store
// for telemetry::Histogram and any bench that reports p50/p95/p99 over long
// runs.
class StreamingPercentiles {
 public:
  explicit StreamingPercentiles(size_t capacity = 4096);

  void Add(double x);
  // Same state as `n` Add(x) calls, skipping the arrivals decimation drops.
  void AddRepeated(double x, size_t n);

  // Quantile in [0, 100] over the retained samples (interpolated, same
  // convention as Percentile()). Exact when count() <= capacity().
  double Quantile(double p) const;
  double p50() const { return Quantile(50); }
  double p95() const { return Quantile(95); }
  double p99() const { return Quantile(99); }

  // p50/p95/p99 from a single sort; each equals its accessor exactly.
  struct Tails {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Tails TailQuantiles() const;

  size_t count() const { return count_; }        // Samples seen.
  size_t retained() const { return samples_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  void Record(double x);

  size_t capacity_;
  size_t stride_ = 1;   // Record every stride-th arrival.
  size_t phase_ = 0;    // Arrivals since the last recorded sample.
  size_t count_ = 0;
  std::vector<double> samples_;  // Arrival order; sorted on demand.
};

}  // namespace lupine

#endif  // SRC_UTIL_STATS_H_
