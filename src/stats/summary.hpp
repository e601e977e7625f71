// Online and batch descriptive statistics.
//
// OnlineSummary (Welford) is the feedback channel of the adaptive DLS
// techniques: each worker accumulates per-iteration times into one, and
// AWF*/AF read mean/stddev from it between chunks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdsf::stats {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class OnlineSummary {
 public:
  /// Adds one observation.
  void add(double x) noexcept;
  /// Adds `weight` identical observations in one step (used when a chunk of
  /// w iterations completes in total time t: add(t / w, w)).
  void add(double x, double weight) noexcept;
  /// Merges another accumulator (parallel reduction; Chan et al.).
  void merge(const OnlineSummary& other) noexcept;

  [[nodiscard]] double count() const noexcept { return weight_; }
  [[nodiscard]] bool empty() const noexcept { return weight_ <= 0.0; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Population variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Coefficient of variation (stddev / mean); 0 when mean is 0.
  [[nodiscard]] double cov() const noexcept;

 private:
  double weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch percentile of a sample (linear interpolation between order
/// statistics). `p` in [0, 1]. Throws std::invalid_argument on empty input.
[[nodiscard]] double percentile(std::vector<double> sample, double p);

/// Sample mean. Throws std::invalid_argument on empty input.
[[nodiscard]] double mean_of(const std::vector<double>& sample);

/// Unbiased sample standard deviation (n-1); 0 for n < 2.
[[nodiscard]] double stddev_of(const std::vector<double>& sample);

/// A two-sided confidence interval.
struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;

  [[nodiscard]] bool contains(double x) const noexcept { return x >= lower && x <= upper; }
  [[nodiscard]] double width() const noexcept { return upper - lower; }

  friend bool operator==(const ConfidenceInterval&, const ConfidenceInterval&) = default;
};

/// Wilson score interval for a binomial proportion: `successes` out of
/// `trials` at confidence `level` (e.g. 0.95). Better behaved than the
/// normal approximation near 0/1 — which is where deadline hit rates live.
/// Throws std::invalid_argument if trials == 0, successes > trials, or
/// level outside (0, 1).
[[nodiscard]] ConfidenceInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                                 double level = 0.95);

/// Normal-approximation confidence interval for a mean from n observations
/// with sample stddev s: mean +/- z * s / sqrt(n). (A z- rather than
/// t-interval; the replication counts used here are large enough that the
/// difference is below simulation noise.) Throws std::invalid_argument if
/// n == 0 or level outside (0, 1).
[[nodiscard]] ConfidenceInterval mean_interval(double mean, double stddev, std::uint64_t n,
                                               double level = 0.95);

/// Percentile-bootstrap confidence interval for the MEDIAN of a sample:
/// `resamples` draws with replacement, each contributing its median; the
/// CI is the [(1-level)/2, (1+level)/2] percentile band. Deterministic
/// given the seed. Throws std::invalid_argument on empty input,
/// resamples == 0, or level outside (0, 1).
[[nodiscard]] ConfidenceInterval bootstrap_median_interval(const std::vector<double>& sample,
                                                           double level,
                                                           std::size_t resamples,
                                                           std::uint64_t seed);

/// Paired comparison of two equal-length samples (common-random-number
/// replications): bootstrap CI of the median of the pairwise differences
/// a[i] - b[i]. `significant` is true when the CI excludes zero.
struct PairedComparison {
  double median_difference = 0.0;
  ConfidenceInterval ci;
  bool significant = false;
};

/// Throws std::invalid_argument on size mismatch or empty input.
[[nodiscard]] PairedComparison paired_median_comparison(const std::vector<double>& a,
                                                        const std::vector<double>& b,
                                                        double level = 0.95,
                                                        std::size_t resamples = 2000,
                                                        std::uint64_t seed = 0xB007);

}  // namespace cdsf::stats
