#include "workload/application.hpp"

#include <algorithm>
#include <stdexcept>

#include "pmf/discretize.hpp"

namespace cdsf::workload {

std::string to_string(TimeLawKind kind) {
  switch (kind) {
    case TimeLawKind::kNormal: return "Normal";
    case TimeLawKind::kLogNormal: return "LogNormal";
    case TimeLawKind::kGamma: return "Gamma";
    case TimeLawKind::kUniform: return "Uniform";
    case TimeLawKind::kExponential: return "Exponential";
  }
  return "?";
}

std::string to_string(IterationProfile profile) {
  return util::name_of(kIterationProfileNames, profile);
}

double profile_work_fraction(IterationProfile profile, double x) {
  x = std::clamp(x, 0.0, 1.0);
  switch (profile) {
    case IterationProfile::kFlat: return x;
    case IterationProfile::kIncreasing: return x * x;
    case IterationProfile::kDecreasing: return x * (2.0 - x);
    case IterationProfile::kParabolic: return x * x * (3.0 - 2.0 * x);
  }
  return x;
}

std::unique_ptr<stats::Distribution> TimeLaw::make_distribution() const {
  if (!(mean > 0.0)) throw std::invalid_argument("TimeLaw: mean must be > 0");
  if (kind != TimeLawKind::kExponential && !(cov > 0.0)) {
    throw std::invalid_argument("TimeLaw: cov must be > 0");
  }
  switch (kind) {
    case TimeLawKind::kNormal:
      return std::make_unique<stats::Normal>(mean, stddev());
    case TimeLawKind::kLogNormal:
      return std::make_unique<stats::LogNormal>(stats::LogNormal::from_mean_stddev(mean, stddev()));
    case TimeLawKind::kGamma:
      return std::make_unique<stats::Gamma>(stats::Gamma::from_mean_stddev(mean, stddev()));
    case TimeLawKind::kUniform: {
      // Uniform with the requested mean and stddev: half-width = sqrt(3)*sd.
      const double half_width = stddev() * 1.7320508075688772;
      return std::make_unique<stats::Uniform>(mean - half_width, mean + half_width);
    }
    case TimeLawKind::kExponential:
      return std::make_unique<stats::Exponential>(1.0 / mean);
  }
  throw std::logic_error("TimeLaw: unknown kind");
}

Application::Application(std::string name, std::int64_t serial_iterations,
                         std::int64_t parallel_iterations, std::vector<TimeLaw> time_laws,
                         IterationProfile profile)
    : name_(std::move(name)),
      serial_iterations_(serial_iterations),
      parallel_iterations_(parallel_iterations),
      time_laws_(std::move(time_laws)),
      profile_(profile) {
  if (serial_iterations_ < 0 || parallel_iterations_ < 0) {
    throw std::invalid_argument("Application: iteration counts must be >= 0");
  }
  if (total_iterations() == 0) {
    throw std::invalid_argument("Application: at least one iteration required");
  }
  if (time_laws_.empty()) {
    throw std::invalid_argument("Application: at least one processor-type time law required");
  }
}

pmf::WorkSplit Application::split() const noexcept {
  const auto total = static_cast<double>(total_iterations());
  return pmf::WorkSplit{static_cast<double>(serial_iterations_) / total,
                        static_cast<double>(parallel_iterations_) / total};
}

double Application::mean_iteration_time(std::size_t type) const {
  return mean_time(type) / static_cast<double>(total_iterations());
}

double Application::parallel_work_in_range(std::size_t type, std::int64_t first,
                                           std::int64_t count) const {
  if (first < 0 || count < 0 || first + count > parallel_iterations_) {
    throw std::invalid_argument("parallel_work_in_range: range outside the parallel loop");
  }
  if (count == 0 || parallel_iterations_ == 0) return 0.0;
  const double n = static_cast<double>(parallel_iterations_);
  const double total_parallel = mean_time(type) * split().parallel_fraction;
  const double lo = profile_work_fraction(profile_, static_cast<double>(first) / n);
  const double hi = profile_work_fraction(profile_, static_cast<double>(first + count) / n);
  return total_parallel * (hi - lo);
}

pmf::Pmf Application::single_processor_pmf(std::size_t type, std::size_t pulses) const {
  const auto dist = time_laws_.at(type).make_distribution();
  // Execution times cannot be <= 0; clamp the (tiny) sub-zero normal tail
  // just above zero so downstream divisions stay defined.
  return pmf::discretize_quantile_truncated(*dist, pulses, 1e-9);
}

pmf::Pmf Application::parallel_pmf(std::size_t type, std::size_t processors,
                                   std::size_t pulses) const {
  return pmf::parallel_time(single_processor_pmf(type, pulses), split(), processors);
}

double Application::expected_parallel_time(std::size_t type, std::size_t processors) const {
  return pmf::parallel_time_scalar(mean_time(type), split(), processors);
}

Batch::Batch(std::vector<Application> applications) {
  for (auto& application : applications) add(std::move(application));
}

void Batch::add(Application application) {
  if (!applications_.empty() && application.type_count() != type_count()) {
    throw std::invalid_argument("Batch: all applications must cover the same processor types");
  }
  applications_.push_back(std::move(application));
}

std::size_t Batch::type_count() const noexcept {
  return applications_.empty() ? 0 : applications_.front().type_count();
}

}  // namespace cdsf::workload
