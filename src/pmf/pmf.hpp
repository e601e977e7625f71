// Discrete probability mass functions over real values ("pulses").
//
// This is the stochastic-time engine of Stage I: execution times and
// availabilities are PMFs, Eq. (2) of the paper is a per-pulse transform,
// combining time with availability is a product-measure combine, and
// Pr(completion <= deadline) is a CDF query. See src/pmf/ops.hpp for the
// binary operations and src/pmf/discretize.hpp for constructing PMFs from
// continuous distributions.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace cdsf::pmf {

/// One pulse: the random variable takes `value` with probability `probability`.
struct Pulse {
  double value = 0.0;
  double probability = 0.0;

  friend bool operator==(const Pulse&, const Pulse&) = default;
};

/// An immutable-after-construction PMF. Invariants (enforced on every
/// construction path):
///   * at least one pulse,
///   * pulses sorted by strictly increasing value (duplicates merged),
///   * all probabilities > 0 and summing to 1 (normalized on construction).
class Pmf {
 public:
  /// Builds a PMF from arbitrary pulses: sorts, merges equal values,
  /// drops zero-probability pulses and normalizes the total mass to 1.
  /// Pulses already in strictly increasing value order are not re-sorted
  /// (an O(n) check); the result is the same either way.
  /// Throws std::invalid_argument if no positive-probability pulse remains
  /// or any probability is negative / non-finite.
  static Pmf from_pulses(std::vector<Pulse> pulses);

  /// Degenerate PMF: the constant `value` with probability 1.
  static Pmf delta(double value);

  /// Uniform PMF over the given values (duplicates merge and accumulate).
  static Pmf uniform_over(const std::vector<double>& values);

  [[nodiscard]] std::size_t size() const noexcept { return pulses_.size(); }
  [[nodiscard]] const std::vector<Pulse>& pulses() const noexcept { return pulses_; }
  [[nodiscard]] double value(std::size_t i) const { return pulses_.at(i).value; }
  [[nodiscard]] double probability(std::size_t i) const { return pulses_.at(i).probability; }

  [[nodiscard]] double min() const noexcept { return pulses_.front().value; }
  [[nodiscard]] double max() const noexcept { return pulses_.back().value; }

  [[nodiscard]] double expectation() const noexcept;
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  /// P(X <= x). Pulses at exactly x are included.
  [[nodiscard]] double cdf(double x) const noexcept;
  /// P(X > x) = 1 - cdf(x), computed directly for accuracy in the tail.
  [[nodiscard]] double tail(double x) const noexcept;
  /// Smallest pulse value v with cdf(v) >= p. Requires p in [0, 1]; p == 0
  /// returns min().
  [[nodiscard]] double quantile(double p) const;

  /// E[f(X)] for an arbitrary f.
  [[nodiscard]] double expect(const std::function<double(double)>& f) const;

  /// Conditional value at risk (expected shortfall): E[X | X >= VaR_alpha],
  /// the mean of the worst (1 - alpha) tail. alpha in [0, 1); alpha = 0 is
  /// the plain expectation. The boundary pulse contributes fractionally so
  /// CVaR is continuous in alpha. Throws std::invalid_argument outside
  /// [0, 1).
  [[nodiscard]] double conditional_value_at_risk(double alpha) const;

  /// Expected tardiness against a deadline: E[max(X - deadline, 0)] — the
  /// natural "how badly do we miss" companion to Pr(X <= deadline).
  [[nodiscard]] double expected_tardiness(double deadline) const noexcept;

  /// New PMF of f(X) (values transformed, masses at equal images merged).
  /// f need not be monotone.
  [[nodiscard]] Pmf map(const std::function<double(double)>& f) const;

  /// Affine conveniences.
  [[nodiscard]] Pmf scaled(double factor) const;
  [[nodiscard]] Pmf shifted(double offset) const;

  /// Reduces the PMF to at most `max_pulses` pulses by repeatedly merging
  /// the pair of value-adjacent pulses whose merge perturbs the
  /// distribution least (mass-weighted value spread), the leftmost such
  /// pair on ties. The merged pulse sits at the probability-weighted mean,
  /// so expectation is preserved exactly; variance shrinks by at most the
  /// merged pairs' internal spread. A tournament tree over the pair costs
  /// picks each merge, in the same order a full rescan would: O(n log n)
  /// time for n pulses, and O(n) extra memory — the pulses, a linked list
  /// and a tree of 2 * bit_ceil(n) 16-byte nodes, under 96 bytes per pulse.
  /// Throws std::invalid_argument if max_pulses == 0, or if a merged value
  /// overflows to +-inf (values near +-DBL_MAX).
  [[nodiscard]] Pmf compacted(std::size_t max_pulses) const;

  /// Draws one value according to the PMF. `u` must be a uniform [0,1) draw.
  [[nodiscard]] double sample_with(double u) const;

  /// "{(v1, p1), (v2, p2), ...}" — for diagnostics and test failure output.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Pmf&, const Pmf&) = default;

 private:
  explicit Pmf(std::vector<Pulse> sorted_normalized)
      : pulses_(std::move(sorted_normalized)) {}

  std::vector<Pulse> pulses_;
};

}  // namespace cdsf::pmf
