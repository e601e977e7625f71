#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "pmf/discretize.hpp"
#include "pmf/pmf.hpp"
#include "stats/distribution.hpp"
#include "util/rng.hpp"

namespace cdsf::pmf {
namespace {

// --------------------------------------------------------- construction --

TEST(Pmf, NormalizesMass) {
  const Pmf p = Pmf::from_pulses({{1.0, 2.0}, {2.0, 6.0}});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(p.probability(1), 0.75);
}

TEST(Pmf, SortsAndMergesDuplicates) {
  const Pmf p = Pmf::from_pulses({{3.0, 0.2}, {1.0, 0.3}, {3.0, 0.5}});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.value(0), 1.0);
  EXPECT_DOUBLE_EQ(p.value(1), 3.0);
  EXPECT_DOUBLE_EQ(p.probability(1), 0.7);
}

TEST(Pmf, DropsZeroProbabilityPulses) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.0}, {2.0, 1.0}});
  EXPECT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.value(0), 2.0);
}

TEST(Pmf, RejectsDegenerateInput) {
  EXPECT_THROW(Pmf::from_pulses({}), std::invalid_argument);
  EXPECT_THROW(Pmf::from_pulses({{1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(Pmf::from_pulses({{1.0, -0.5}, {2.0, 1.5}}), std::invalid_argument);
  EXPECT_THROW(Pmf::from_pulses({{std::nan(""), 1.0}}), std::invalid_argument);
}

TEST(Pmf, DeltaIsSinglePulse) {
  const Pmf p = Pmf::delta(5.0);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.expectation(), 5.0);
  EXPECT_DOUBLE_EQ(p.variance(), 0.0);
}

TEST(Pmf, UniformOverAccumulatesDuplicates) {
  const Pmf p = Pmf::uniform_over({1.0, 2.0, 2.0, 3.0});
  EXPECT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p.probability(1), 0.5);
  EXPECT_THROW(Pmf::uniform_over({}), std::invalid_argument);
}

// --------------------------------------------------------------- moments --

TEST(Pmf, ExpectationVarianceStddev) {
  const Pmf p = Pmf::from_pulses({{0.0, 0.5}, {10.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.expectation(), 5.0);
  EXPECT_DOUBLE_EQ(p.variance(), 25.0);
  EXPECT_DOUBLE_EQ(p.stddev(), 5.0);
}

TEST(Pmf, MinMax) {
  const Pmf p = Pmf::from_pulses({{4.0, 0.1}, {-2.0, 0.2}, {9.0, 0.7}});
  EXPECT_DOUBLE_EQ(p.min(), -2.0);
  EXPECT_DOUBLE_EQ(p.max(), 9.0);
}

TEST(Pmf, ExpectOfFunction) {
  const Pmf p = Pmf::from_pulses({{2.0, 0.5}, {4.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.expect([](double v) { return v * v; }), 10.0);
}

// --------------------------------------------------------- cdf/quantile --

TEST(Pmf, CdfStepsThroughPulses) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.2}, {2.0, 0.3}, {3.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.cdf(1.0), 0.2);  // inclusive
  EXPECT_DOUBLE_EQ(p.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(p.cdf(3.0), 1.0);
}

TEST(Pmf, TailComplementsCdf) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.25}, {2.0, 0.25}, {4.0, 0.5}});
  for (double x : {0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) {
    EXPECT_NEAR(p.cdf(x) + p.tail(x), 1.0, 1e-12) << "x=" << x;
  }
}

TEST(Pmf, QuantileReturnsSmallestValueReachingMass) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.2}, {2.0, 0.3}, {3.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.21), 2.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 3.0);
  EXPECT_THROW(p.quantile(1.5), std::invalid_argument);
}

// ------------------------------------------------------------ transforms --

TEST(Pmf, MapTransformsValuesKeepsMass) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.5}, {2.0, 0.5}});
  const Pmf q = p.map([](double v) { return 10.0 * v; });
  EXPECT_DOUBLE_EQ(q.expectation(), 15.0);
}

TEST(Pmf, MapMergesCollidingImages) {
  const Pmf p = Pmf::from_pulses({{-1.0, 0.5}, {1.0, 0.5}});
  const Pmf q = p.map([](double v) { return v * v; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.value(0), 1.0);
}

TEST(Pmf, ScaledAndShifted) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.5}, {3.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.scaled(2.0).expectation(), 4.0);
  EXPECT_DOUBLE_EQ(p.shifted(1.0).expectation(), 3.0);
  EXPECT_DOUBLE_EQ(p.scaled(2.0).variance(), 4.0 * p.variance());
  EXPECT_DOUBLE_EQ(p.shifted(5.0).variance(), p.variance());
}

// ------------------------------------------------------------ compaction --

TEST(Pmf, CompactedPreservesMeanExactly) {
  std::vector<Pulse> pulses;
  for (int i = 0; i < 100; ++i) pulses.push_back({static_cast<double>(i), 1.0});
  const Pmf p = Pmf::from_pulses(std::move(pulses));
  const Pmf q = p.compacted(10);
  EXPECT_EQ(q.size(), 10u);
  EXPECT_NEAR(q.expectation(), p.expectation(), 1e-9);
}

TEST(Pmf, CompactedNeverIncreasesVariance) {
  std::vector<Pulse> pulses;
  for (int i = 0; i < 64; ++i) pulses.push_back({std::pow(1.1, i), 1.0});
  const Pmf p = Pmf::from_pulses(std::move(pulses));
  const Pmf q = p.compacted(8);
  EXPECT_LE(q.variance(), p.variance() + 1e-9);
  EXPECT_GE(q.variance(), 0.9 * p.variance());  // and not collapsed either
}

TEST(Pmf, CompactedNoopWhenSmallEnough) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.5}, {2.0, 0.5}});
  EXPECT_EQ(p.compacted(10), p);
}

TEST(Pmf, CompactedToOnePulseIsMean) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.25}, {2.0, 0.5}, {5.0, 0.25}});
  const Pmf q = p.compacted(1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_NEAR(q.value(0), p.expectation(), 1e-12);
  EXPECT_THROW(p.compacted(0), std::invalid_argument);
}

TEST(Pmf, CompactedKeepsSupportBounds) {
  std::vector<Pulse> pulses;
  for (int i = 0; i <= 50; ++i) pulses.push_back({static_cast<double>(i), 1.0});
  const Pmf p = Pmf::from_pulses(std::move(pulses));
  const Pmf q = p.compacted(5);
  EXPECT_GE(q.min(), p.min());
  EXPECT_LE(q.max(), p.max());
}

// ------------------------------------------ compaction differential test --

// The quadratic scan-and-erase loop Pmf::compacted used before the heap:
// the oracle for the exact greedy merge sequence. The loop is a verbatim
// copy; only the receiver became a parameter and the phase timer is gone.
Pmf reference_compacted(const Pmf& pmf, std::size_t max_pulses) {
  if (max_pulses == 0) throw std::invalid_argument("Pmf::compacted: max_pulses must be > 0");
  if (pmf.size() <= max_pulses) return pmf;

  // Greedy nearest-pair merging on the sorted pulse list. Cost of merging
  // adjacent pulses (v1,p1),(v2,p2): the mass-weighted squared spread they
  // would collapse — exactly the variance the merge removes.
  std::vector<Pulse> work = pmf.pulses();
  auto merge_cost = [](const Pulse& a, const Pulse& b) {
    const double mass = a.probability + b.probability;
    const double d = b.value - a.value;
    return (a.probability * b.probability / mass) * d * d;
  };

  while (work.size() > max_pulses) {
    std::size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i + 1 < work.size(); ++i) {
      const double cost = merge_cost(work[i], work[i + 1]);
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    const double mass = work[best].probability + work[best + 1].probability;
    const double value = (work[best].value * work[best].probability +
                          work[best + 1].value * work[best + 1].probability) /
                         mass;
    work[best] = Pulse{value, mass};
    work.erase(work.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }
  return Pmf::from_pulses(std::move(work));
}

// What the differential run has seen, so the sweep provably reaches the
// cases it is meant to cover.
struct CompactionCoverage {
  int cases = 0;
  int overflowed = 0;
  int inputs_with_inf_cost = 0;
  int inputs_with_nan_cost = 0;
};

bool any_pair_cost(const Pmf& pmf, const std::function<bool(double)>& pred) {
  const std::vector<Pulse>& pulses = pmf.pulses();
  for (std::size_t i = 0; i + 1 < pulses.size(); ++i) {
    const Pulse& a = pulses[i];
    const Pulse& b = pulses[i + 1];
    const double d = b.value - a.value;
    if (pred((a.probability * b.probability / (a.probability + b.probability)) * d * d)) {
      return true;
    }
  }
  return false;
}

// Compacts `pmf` to max_pulses in {1, 2, n/3 + 1, n/2, n - 1} and `extra`
// with both implementations: pulses must compare equal, and compacted must
// throw exactly when the reference throws.
void expect_matches_reference(const Pmf& pmf, const std::string& label,
                              CompactionCoverage& coverage, std::size_t extra = 0) {
  const std::size_t n = pmf.size();
  coverage.inputs_with_inf_cost += any_pair_cost(pmf, [](double c) { return std::isinf(c); });
  coverage.inputs_with_nan_cost += any_pair_cost(pmf, [](double c) { return std::isnan(c); });
  std::vector<std::size_t> budgets = {1, 2, n / 3 + 1, n / 2, n - 1};
  if (extra > 0) budgets.push_back(extra);
  for (const std::size_t budget : budgets) {
    ++coverage.cases;
    std::optional<Pmf> expected;
    try {
      expected = reference_compacted(pmf, budget);
    } catch (const std::invalid_argument&) {
      // With a positive budget, only a merged value that overflowed throws.
      if (budget > 0) ++coverage.overflowed;
    }
    if (expected) {
      ASSERT_EQ(pmf.compacted(budget).pulses(), expected->pulses())
          << label << ", n " << n << ", max_pulses " << budget;
    } else {
      ASSERT_THROW((void)pmf.compacted(budget), std::invalid_argument)
          << label << ", n " << n << ", max_pulses " << budget;
    }
  }
}

TEST(Pmf, CompactedMatchesQuadraticReference) {
  util::RngStream rng(20120521);
  CompactionCoverage coverage;
  constexpr int kInputsPerFamily = 600;
  for (int input = 0; input < kInputsPerFamily; ++input) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 96));
    std::vector<Pulse> random;
    std::vector<Pulse> grid;
    std::vector<Pulse> mixed;
    std::vector<Pulse> geometric;
    const double ratio = rng.uniform(1.01, 2.0);
    double gap_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      random.push_back({rng.uniform(-1000.0, 1000.0), rng.uniform(0.01, 1.0)});
      // Values 0..n-1 with equal mass: every initial cost ties.
      grid.push_back({static_cast<double>(i), 1.0});
      // Gaps and masses drawn from two levels each: many, but not all, tie.
      gap_sum += static_cast<double>(rng.uniform_int(1, 2));
      mixed.push_back({gap_sum, static_cast<double>(rng.uniform_int(1, 2))});
      geometric.push_back({std::pow(ratio, static_cast<double>(i)),
                           rng.uniform01() < 0.5 ? 1.0 : rng.uniform(0.01, 1.0)});
    }
    const std::string id = "input " + std::to_string(input);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(Pmf::from_pulses(std::move(random)), "random " + id, coverage));
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(Pmf::from_pulses(std::move(grid)), "grid " + id, coverage));
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(Pmf::from_pulses(std::move(mixed)),
                                                     "mixed ties " + id, coverage));
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(Pmf::from_pulses(std::move(geometric)),
                                                     "geometric " + id, coverage));
  }

  // The large_stage1 shape: a 64-pulse time law divided by a 64-level
  // availability, 4096 pulses cut to the 2048-pulse Stage I budget.
  const Pmf time = discretize_quantile(stats::Normal(1800.0, 180.0), 64);
  std::vector<Pulse> levels;
  for (std::size_t i = 0; i < 64; ++i) levels.push_back({rng.uniform(0.05, 1.0), rng.uniform01()});
  const Pmf availability = Pmf::from_pulses(std::move(levels));
  std::vector<Pulse> product;
  for (const Pulse& t : time.pulses()) {
    for (const Pulse& a : availability.pulses()) {
      product.push_back({t.value / a.value, t.probability * a.probability});
    }
  }
  const Pmf completion = Pmf::from_pulses(std::move(product));
  ASSERT_GT(completion.size(), 2048u);
  ASSERT_NO_FATAL_FAILURE(
      expect_matches_reference(completion, "64 x 64 t/a product", coverage, 2048));

  EXPECT_GE(coverage.cases, 10000);
  EXPECT_EQ(coverage.overflowed, 0);
}

TEST(Pmf, CompactedMatchesQuadraticReferenceAtExtremeValues) {
  // Values across +-1.7e308 and probabilities down to 1e-170, in three
  // families that reach the scan's corner cases:
  //   0. mixed magnitudes: gaps beyond ~1e154 make +inf costs;
  //   1. a cluster within 1e-11 of +-DBL_MAX with one heavy pulse: the last
  //      merge's weighted sum rounds past DBL_MAX, the merged value is
  //      +-inf, and both implementations throw from the final from_pulses;
  //   2. huge values of both signs: the pair straddling zero has an
  //      overflowing gap, and with two 1e-170 probabilities its cost is
  //      0 * inf = NaN, next to finite and +inf costs.
  util::RngStream rng(7919);
  constexpr double kMax = std::numeric_limits<double>::max();
  CompactionCoverage coverage;
  constexpr int kInputs = 2400;
  for (int input = 0; input < kInputs; ++input) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
    const int family = input % 3;
    const double sign = rng.uniform01() < 0.5 ? -1.0 : 1.0;
    std::vector<Pulse> pulses;
    for (std::size_t i = 0; i < n; ++i) {
      const bool tiny = rng.uniform01() < 0.5;
      double value = 0.0;
      double probability = tiny ? 1e-170 : rng.uniform(0.01, 1.0);
      if (family == 0) {
        const double pick = rng.uniform01();
        const double scale = pick < 0.4 ? 1.7e308 : (pick < 0.7 ? 1e156 : 1000.0);
        value = rng.uniform(-1.0, 1.0) * scale;  // uniform(lo, hi) would overflow hi - lo
      } else if (family == 1) {
        value = sign * kMax * (1.0 - static_cast<double>(i) * 2e-12);
        if (i == 0) {
          probability = 1.0;
        } else if (!tiny) {
          probability = std::pow(10.0, rng.uniform(-12.0, -6.0));
        }
      } else {
        value = (rng.uniform01() < 0.5 ? -1.0 : 1.0) * rng.uniform(0.5, 1.0) * kMax;
      }
      pulses.push_back({value, probability});
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(
        Pmf::from_pulses(std::move(pulses)),
        "extreme family " + std::to_string(family) + " input " + std::to_string(input),
        coverage));
  }
  EXPECT_GE(coverage.cases, 10000);
  EXPECT_GT(coverage.inputs_with_inf_cost, 0);
  EXPECT_GT(coverage.inputs_with_nan_cost, 0);
  EXPECT_GT(coverage.overflowed, 0);
}

TEST(Pmf, CompactedMatchesQuadraticReferenceAtTreePaddingSizes) {
  // The tournament tree pads to a power of two with a leaf per pulse. These
  // sizes sit on either side of a power of two in pulses (1024, 1025) and in
  // pairs (257, 4097: n - 1 pairs), where a tree with a leaf per pair would
  // be one leaf short. Random values, and an all-tie grid whose every merge
  // order rests on the leftmost-pair rule.
  util::RngStream rng(4097);
  CompactionCoverage coverage;
  for (const std::size_t n : {std::size_t{257}, std::size_t{1024}, std::size_t{1025},
                              std::size_t{4097}}) {
    std::vector<Pulse> random;
    std::vector<Pulse> grid;
    for (std::size_t i = 0; i < n; ++i) {
      random.push_back({rng.uniform(-1000.0, 1000.0), rng.uniform(0.01, 1.0)});
      grid.push_back({static_cast<double>(i), 1.0});
    }
    const Pmf random_pmf = Pmf::from_pulses(std::move(random));
    ASSERT_EQ(random_pmf.size(), n);
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(random_pmf, "random", coverage));
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(Pmf::from_pulses(std::move(grid)), "grid", coverage));
  }
  EXPECT_EQ(coverage.cases, 40);
  EXPECT_EQ(coverage.overflowed, 0);
}

// ---------------------------------------------------- canonicalization --

// Pmf's canonicalization before it skipped the sort of already strictly
// increasing pulses: the oracle for from_pulses. A verbatim copy, with its
// merge tolerance; only the function's name changed.
constexpr double kValueMergeRelTol = 1e-12;

bool nearly_equal(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= kValueMergeRelTol * scale;
}

std::vector<Pulse> reference_canonicalize(std::vector<Pulse> pulses) {
  for (const Pulse& pulse : pulses) {
    if (!std::isfinite(pulse.value) || !std::isfinite(pulse.probability)) {
      throw std::invalid_argument("Pmf: pulse value/probability must be finite");
    }
    if (pulse.probability < 0.0) {
      throw std::invalid_argument("Pmf: pulse probability must be >= 0");
    }
  }
  std::erase_if(pulses, [](const Pulse& pulse) { return pulse.probability == 0.0; });
  if (pulses.empty()) {
    throw std::invalid_argument("Pmf: at least one positive-probability pulse required");
  }
  std::sort(pulses.begin(), pulses.end(),
            [](const Pulse& a, const Pulse& b) { return a.value < b.value; });

  std::vector<Pulse> merged;
  merged.reserve(pulses.size());
  for (const Pulse& pulse : pulses) {
    if (!merged.empty() && nearly_equal(merged.back().value, pulse.value)) {
      merged.back().probability += pulse.probability;
    } else {
      merged.push_back(pulse);
    }
  }

  double total = 0.0;
  for (const Pulse& pulse : merged) total += pulse.probability;
  if (!(total > 0.0)) {
    throw std::invalid_argument("Pmf: total probability mass must be > 0");
  }
  for (Pulse& pulse : merged) pulse.probability /= total;
  return merged;
}

// Bit-for-bit pulse equality: == would let -0.0 stand in for +0.0.
void expect_same_bits(const std::vector<Pulse>& got, const std::vector<Pulse>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
              std::bit_cast<std::uint64_t>(want[i].value))
        << label << ", pulse " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].probability),
              std::bit_cast<std::uint64_t>(want[i].probability))
        << label << ", pulse " << i;
  }
}

void expect_matches_reference_canonicalize(const std::vector<Pulse>& pulses,
                                           const std::string& label) {
  ASSERT_NO_FATAL_FAILURE(
      expect_same_bits(Pmf::from_pulses(pulses).pulses(), reference_canonicalize(pulses), label));
}

TEST(Pmf, FromPulsesMatchesAlwaysSortingReference) {
  // Strictly increasing: the sort is skipped. The near-duplicate pair still
  // merges, as it did after the sort.
  const std::vector<Pulse> increasing = {
      {-3.5, 0.25}, {-0.0, 0.5}, {1.0, 0.125}, {1.0 + 1e-13, 0.125}, {7.0, 1.0}};
  ASSERT_EQ(Pmf::from_pulses(increasing).size(), 4u);
  expect_matches_reference_canonicalize(increasing, "strictly increasing");

  std::vector<Pulse> descending = increasing;
  std::reverse(descending.begin(), descending.end());
  expect_matches_reference_canonicalize(descending, "descending");

  // Exact duplicates whose merged mass depends on the summation order:
  // 1 + 1e-16 rounds back to 1, but 1e-16 + 1e-16 + 1 does not.
  ASSERT_NE((1.0 + 1e-16) + 1e-16, (1e-16 + 1e-16) + 1.0);
  const std::vector<Pulse> heavy_first = {{2.0, 1.0}, {2.0, 1e-16}, {2.0, 1e-16}, {5.0, 1.0}};
  const std::vector<Pulse> light_first = {{2.0, 1e-16}, {2.0, 1e-16}, {2.0, 1.0}, {5.0, 1.0}};
  const std::vector<Pulse> unsorted = {{5.0, 1.0}, {2.0, 1e-16}, {2.0, 1.0}, {2.0, 1e-16}};
  expect_matches_reference_canonicalize(heavy_first, "duplicates, heavy first");
  expect_matches_reference_canonicalize(light_first, "duplicates, light first");
  expect_matches_reference_canonicalize(unsorted, "duplicates, unsorted");

  // -0.0 and +0.0 compare equal, so which sign survives the merge is the
  // sort's placement of the pair.
  expect_matches_reference_canonicalize({{-0.0, 0.5}, {0.0, 0.5}}, "-0, +0");
  expect_matches_reference_canonicalize({{0.0, 0.5}, {-0.0, 0.5}}, "+0, -0");
  expect_matches_reference_canonicalize({{-1.0, 0.25}, {0.0, 0.25}, {-0.0, 0.25}, {1.0, 0.25}},
                                        "+0, -0 inside increasing values");
  expect_matches_reference_canonicalize({{1.0, 0.25}, {-0.0, 0.25}, {0.0, 0.25}, {-1.0, 0.25}},
                                        "-0, +0 inside descending values");

  // Random inputs over a small value set (many exact duplicates), each in
  // its drawn order, sorted, strictly increasing after deduplication, and
  // reversed.
  util::RngStream rng(38);
  for (int input = 0; input < 500; ++input) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<Pulse> drawn;
    for (std::size_t i = 0; i < n; ++i) {
      const double value = static_cast<double>(rng.uniform_int(-8, 8)) * 0.5;
      drawn.push_back({value == 0.0 && rng.uniform01() < 0.5 ? -0.0 : value,
                       rng.uniform01() < 0.2 ? 1e-17 : rng.uniform(0.01, 1.0)});
    }
    std::vector<Pulse> sorted = drawn;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Pulse& a, const Pulse& b) { return a.value < b.value; });
    std::vector<Pulse> distinct = sorted;
    distinct.erase(std::unique(distinct.begin(), distinct.end(),
                               [](const Pulse& a, const Pulse& b) { return a.value == b.value; }),
                   distinct.end());
    std::vector<Pulse> reversed = sorted;
    std::reverse(reversed.begin(), reversed.end());
    const std::string id = "input " + std::to_string(input);
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference_canonicalize(drawn, "drawn " + id));
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference_canonicalize(sorted, "sorted " + id));
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference_canonicalize(distinct, "distinct " + id));
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference_canonicalize(reversed, "reversed " + id));
  }
}

// -------------------------------------------------------------- sampling --

TEST(Pmf, SampleWithMapsUniformToPulses) {
  const Pmf p = Pmf::from_pulses({{1.0, 0.25}, {2.0, 0.25}, {3.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.sample_with(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.sample_with(0.24), 1.0);
  EXPECT_DOUBLE_EQ(p.sample_with(0.25), 2.0);
  EXPECT_DOUBLE_EQ(p.sample_with(0.49), 2.0);
  EXPECT_DOUBLE_EQ(p.sample_with(0.5), 3.0);
  EXPECT_DOUBLE_EQ(p.sample_with(0.999), 3.0);
  EXPECT_THROW(p.sample_with(1.0), std::invalid_argument);
  EXPECT_THROW(p.sample_with(-0.01), std::invalid_argument);
}

TEST(Pmf, ToStringContainsPulses) {
  const Pmf p = Pmf::from_pulses({{1.5, 1.0}});
  EXPECT_NE(p.to_string().find("1.5"), std::string::npos);
}

}  // namespace
}  // namespace cdsf::pmf
