// The application model of the paper (Section III/IV):
//
// Each application is data parallel, contains a large computationally
// intensive loop, and is characterized by
//   * a number of serial iterations (run on a single processor) and a
//     number of parallel iterations (spreadable over the allocated group),
//   * a stochastic single-processor execution time per processor type,
//     modeled as a distribution (Normal with sigma = mu/10 in the paper).
//
// Table II's serial/parallel *percentages* equal the iteration-count ratio
// (439 / (439 + 1024) = 30 %), i.e. iterations are homogeneous in expected
// cost; the model here keeps that identity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pmf/parallel_time.hpp"
#include "pmf/pmf.hpp"
#include "stats/distribution.hpp"
#include "util/names.hpp"

namespace cdsf::workload {

/// How single-processor execution times are distributed around their mean.
enum class TimeLawKind { kNormal, kLogNormal, kGamma, kUniform, kExponential };

[[nodiscard]] std::string to_string(TimeLawKind kind);

/// How the cost of the parallel loop's iterations varies with the
/// iteration INDEX — the paper's "intrinsic" (algorithmic) imbalance, as
/// opposed to the extrinsic (availability-driven) kind. The profile is a
/// density over the normalized index x in [0, 1], scaled so the loop's
/// total mean work is unchanged:
///   kFlat       — constant cost (the default; every iteration alike)
///   kIncreasing — cost proportional to 2x (e.g. triangular loop nests)
///   kDecreasing — cost proportional to 2(1 - x)
///   kParabolic  — cost proportional to 6x(1 - x) (mid-heavy, e.g.
///                 Mandelbrot-style interior work)
enum class IterationProfile { kFlat, kIncreasing, kDecreasing, kParabolic };

/// The profiles' stable names (scenario files, bench tables).
inline constexpr util::NameTable<IterationProfile, 4> kIterationProfileNames{{
    {IterationProfile::kFlat, "flat"},
    {IterationProfile::kIncreasing, "increasing"},
    {IterationProfile::kDecreasing, "decreasing"},
    {IterationProfile::kParabolic, "parabolic"},
}};

[[nodiscard]] std::string to_string(IterationProfile profile);

/// CDF of the profile density at normalized index x in [0, 1]: the fraction
/// of the loop's total work contained in iterations [0, x*N). Clamps x into
/// [0, 1].
[[nodiscard]] double profile_work_fraction(IterationProfile profile, double x);

/// Stochastic law for one (application, processor type) pair: a family kind
/// plus mean and coefficient of variation. Value type so applications stay
/// copyable; materialize a Distribution on demand.
struct TimeLaw {
  TimeLawKind kind = TimeLawKind::kNormal;
  double mean = 0.0;
  /// stddev / mean; the paper uses 0.1 throughout Section IV.
  double cov = 0.1;

  /// Materializes the distribution. Throws std::invalid_argument for
  /// non-positive mean or cov (except kExponential, whose cov is fixed at 1
  /// and ignores the field).
  [[nodiscard]] std::unique_ptr<stats::Distribution> make_distribution() const;

  [[nodiscard]] double stddev() const { return mean * cov; }

  friend bool operator==(const TimeLaw&, const TimeLaw&) = default;
};

/// One data-parallel application of a batch.
class Application {
 public:
  /// `time_laws[j]` is the single-processor law on processor type j; its
  /// size fixes how many processor types the application knows about.
  /// Throws std::invalid_argument if iteration counts are both zero or
  /// time_laws is empty.
  Application(std::string name, std::int64_t serial_iterations,
              std::int64_t parallel_iterations, std::vector<TimeLaw> time_laws,
              IterationProfile profile = IterationProfile::kFlat);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::int64_t serial_iterations() const noexcept { return serial_iterations_; }
  [[nodiscard]] std::int64_t parallel_iterations() const noexcept { return parallel_iterations_; }
  [[nodiscard]] std::int64_t total_iterations() const noexcept {
    return serial_iterations_ + parallel_iterations_;
  }

  /// Serial/parallel fractions derived from the iteration counts (Table II
  /// convention).
  [[nodiscard]] pmf::WorkSplit split() const noexcept;

  [[nodiscard]] std::size_t type_count() const noexcept { return time_laws_.size(); }
  /// Law on processor type j. Throws std::out_of_range for unknown types.
  [[nodiscard]] const TimeLaw& time_law(std::size_t type) const { return time_laws_.at(type); }

  /// Mean single-processor execution time on type j (Table III).
  [[nodiscard]] double mean_time(std::size_t type) const { return time_laws_.at(type).mean; }

  /// Mean cost of ONE iteration on a dedicated processor of type j
  /// (mean_time / total_iterations) — the simulator's base iteration cost
  /// (averaged over the profile).
  [[nodiscard]] double mean_iteration_time(std::size_t type) const;

  /// Iteration-index cost profile of the parallel loop.
  [[nodiscard]] IterationProfile profile() const noexcept { return profile_; }

  /// Mean dedicated-processor work (time units on type j) of the parallel
  /// iterations with indices [first, first + count), under the profile.
  /// Throws std::invalid_argument if the range leaves [0, parallel_iterations].
  [[nodiscard]] double parallel_work_in_range(std::size_t type, std::int64_t first,
                                              std::int64_t count) const;

  /// Discretized single-processor execution-time PMF on type j
  /// (quantile-grid, truncated at 0).
  [[nodiscard]] pmf::Pmf single_processor_pmf(std::size_t type, std::size_t pulses) const;

  /// Parallel execution-time PMF on n processors of type j (Eq. 2).
  [[nodiscard]] pmf::Pmf parallel_pmf(std::size_t type, std::size_t processors,
                                      std::size_t pulses) const;

  /// Expected parallel execution time on n dedicated processors of type j
  /// (Eq. 2 applied to the mean).
  [[nodiscard]] double expected_parallel_time(std::size_t type, std::size_t processors) const;

  friend bool operator==(const Application&, const Application&) = default;

 private:
  std::string name_;
  std::int64_t serial_iterations_;
  std::int64_t parallel_iterations_;
  std::vector<TimeLaw> time_laws_;
  IterationProfile profile_ = IterationProfile::kFlat;
};

/// A batch of applications awaiting initial mapping. All applications must
/// agree on the number of processor types.
class Batch {
 public:
  Batch() = default;
  explicit Batch(std::vector<Application> applications);

  /// Appends an application; throws std::invalid_argument if its type count
  /// disagrees with the batch's.
  void add(Application application);

  [[nodiscard]] std::size_t size() const noexcept { return applications_.size(); }
  [[nodiscard]] bool empty() const noexcept { return applications_.empty(); }
  [[nodiscard]] const Application& at(std::size_t i) const { return applications_.at(i); }
  [[nodiscard]] const std::vector<Application>& applications() const noexcept {
    return applications_;
  }
  /// Number of processor types the batch is defined over (0 when empty).
  [[nodiscard]] std::size_t type_count() const noexcept;

  [[nodiscard]] auto begin() const noexcept { return applications_.begin(); }
  [[nodiscard]] auto end() const noexcept { return applications_.end(); }

 private:
  std::vector<Application> applications_;
};

}  // namespace cdsf::workload
