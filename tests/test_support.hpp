// Shared factories for the test suite.
#pragma once

#include <string>
#include <vector>

#include "pmf/pmf.hpp"
#include "sysmodel/availability.hpp"
#include "sysmodel/platform.hpp"
#include "workload/application.hpp"

namespace cdsf::test {

/// Two-type platform mirroring the paper's (4 x type1, 8 x type2).
inline sysmodel::Platform small_platform() {
  return sysmodel::Platform({{"type1", 4}, {"type2", 8}});
}

/// A fully available spec for `types` processor types.
inline sysmodel::AvailabilitySpec full_availability(std::size_t types) {
  std::vector<pmf::Pmf> laws(types, pmf::Pmf::delta(1.0));
  return sysmodel::AvailabilitySpec("full", std::move(laws));
}

/// A spec whose every type has `levels` equally likely availability levels
/// in (0.3, 1], scaled down 5% per type index so the types differ. Under the
/// default 64 discretization pulses, 64 levels give 4096-pulse completion
/// PMFs, which the robustness evaluator compacts to its 2048-pulse budget.
inline sysmodel::AvailabilitySpec leveled_availability(std::size_t types, std::size_t levels) {
  std::vector<pmf::Pmf> laws;
  for (std::size_t type = 0; type < types; ++type) {
    std::vector<double> values;
    for (std::size_t k = 1; k <= levels; ++k) {
      values.push_back((0.3 + 0.7 * static_cast<double>(k) / static_cast<double>(levels)) *
                       (1.0 - 0.05 * static_cast<double>(type)));
    }
    laws.push_back(pmf::Pmf::uniform_over(values));
  }
  return sysmodel::AvailabilitySpec("leveled" + std::to_string(levels), std::move(laws));
}

/// One application: 10% serial, Normal time laws with means per type.
inline workload::Application simple_app(const std::string& name, std::int64_t serial,
                                        std::int64_t parallel,
                                        std::vector<double> means, double cov = 0.1) {
  std::vector<workload::TimeLaw> laws;
  laws.reserve(means.size());
  for (double mean : means) {
    laws.push_back(workload::TimeLaw{workload::TimeLawKind::kNormal, mean, cov});
  }
  return workload::Application(name, serial, parallel, std::move(laws));
}

}  // namespace cdsf::test
