#include "ra/robustness.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pmf/ops.hpp"
#include "pmf/parallel_time.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace cdsf::ra {

RobustnessEvaluator::RobustnessEvaluator(const workload::Batch& batch,
                                         const sysmodel::AvailabilitySpec& availability,
                                         double deadline, RobustnessConfig config)
    : batch_(&batch), availability_(&availability), deadline_(deadline), config_(config) {
  if (batch.empty()) throw std::invalid_argument("RobustnessEvaluator: empty batch");
  if (batch.type_count() != availability.type_count()) {
    throw std::invalid_argument("RobustnessEvaluator: batch/availability type count mismatch");
  }
  if (!(deadline > 0.0)) throw std::invalid_argument("RobustnessEvaluator: deadline must be > 0");
  if (config_.discretization_pulses == 0 || config_.max_pulses == 0) {
    throw std::invalid_argument("RobustnessEvaluator: pulse budgets must be > 0");
  }
}

std::size_t RobustnessEvaluator::KeyHash::operator()(const Key& key) const noexcept {
  // Boost's hash_combine over the three full-width fields.
  std::size_t seed = 0;
  for (const std::size_t field : {key.app, key.processor_type, key.processors}) {
    seed ^= std::hash<std::size_t>{}(field) + 0x9e3779b9 + (seed << 6) + (seed >> 2);
  }
  return seed;
}

const RobustnessEvaluator::Completion& RobustnessEvaluator::completion(
    std::size_t app, GroupAssignment group) const {
  // The RA-enumeration checkpoint boundary: every candidate an exhaustive
  // or heuristic Stage I search scores passes through here, memoized or
  // not, so a cancelled token unwinds the search within one candidate
  // evaluation.
  util::throw_if_cancelled(config_.cancel);
  if (app >= batch_->size()) throw std::out_of_range("completion_pmf: bad application index");
  if (group.processor_type >= availability_->type_count()) {
    throw std::invalid_argument("completion_pmf: unknown processor type");
  }
  if (group.processors == 0) {
    throw std::invalid_argument("completion_pmf: processors must be >= 1");
  }

  const Key key{app, group.processor_type, group.processors};
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  return cache_.emplace(key, compute(key)).first->second;
}

RobustnessEvaluator::Completion RobustnessEvaluator::compute(const Key& key) const {
  const pmf::Pmf parallel = batch_->at(key.app).parallel_pmf(
      key.processor_type, key.processors, config_.discretization_pulses);
  pmf::Pmf completion_time = pmf::apply_availability(
      parallel, availability_->of_type(key.processor_type), config_.max_pulses);
  const double probability = completion_time.cdf(deadline_);
  const double expectation = completion_time.expectation();
  return Completion{std::move(completion_time), probability, expectation};
}

void RobustnessEvaluator::precompute(const sysmodel::Platform& platform, CountRule rule,
                                     std::size_t threads) const {
  if (platform.type_count() != availability_->type_count()) {
    throw std::invalid_argument("precompute: platform/availability type count mismatch");
  }
  std::vector<Key> missing;
  for (std::size_t app = 0; app < batch_->size(); ++app) {
    for (std::size_t type = 0; type < platform.type_count(); ++type) {
      for (const std::size_t count : candidate_counts(platform.processors_of_type(type), rule)) {
        const Key key{app, type, count};
        if (!cache_.contains(key)) missing.push_back(key);
      }
    }
  }
  // Each body writes only its own slot; whether one throws depends only on
  // the token, so the lowest-index rethrow is the serial loop's exception.
  std::vector<std::optional<Completion>> computed(missing.size());
  util::parallel_for_index(missing.size(), threads, [&](std::size_t i) {
    util::throw_if_cancelled(config_.cancel);
    computed[i].emplace(compute(missing[i]));
  });
  for (std::size_t i = 0; i < missing.size(); ++i) {
    cache_.emplace(missing[i], std::move(*computed[i]));
  }
}

const pmf::Pmf& RobustnessEvaluator::completion_pmf(std::size_t app, GroupAssignment group) const {
  return completion(app, group).pmf;
}

double RobustnessEvaluator::application_probability(std::size_t app, GroupAssignment group) const {
  return completion(app, group).probability;
}

double RobustnessEvaluator::expected_completion(std::size_t app, GroupAssignment group) const {
  return completion(app, group).expectation;
}

pmf::Pmf RobustnessEvaluator::system_makespan_pmf(const Allocation& allocation) const {
  if (allocation.size() != batch_->size()) {
    throw std::invalid_argument("system_makespan_pmf: allocation size != batch size");
  }
  pmf::Pmf system = completion_pmf(0, allocation.at(0));
  for (std::size_t i = 1; i < allocation.size(); ++i) {
    system = pmf::independent_max(system, completion_pmf(i, allocation.at(i)));
  }
  return system;
}

std::vector<double> RobustnessEvaluator::fepia_slacks(const Allocation& allocation) const {
  if (allocation.size() != batch_->size()) {
    throw std::invalid_argument("fepia_slacks: allocation size != batch size");
  }
  std::vector<double> slacks;
  slacks.reserve(allocation.size());
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    const GroupAssignment group = allocation.at(i);
    const double dedicated =
        batch_->at(i).expected_parallel_time(group.processor_type, group.processors);
    slacks.push_back(availability_->expected(group.processor_type) - dedicated / deadline_);
  }
  return slacks;
}

double RobustnessEvaluator::fepia_robustness_radius(const Allocation& allocation) const {
  const std::vector<double> slacks = fepia_slacks(allocation);
  double radius = std::numeric_limits<double>::infinity();
  for (double slack : slacks) radius = std::min(radius, slack);
  return radius;
}

double RobustnessEvaluator::joint_probability(const Allocation& allocation) const {
  if (allocation.size() != batch_->size()) {
    throw std::invalid_argument("joint_probability: allocation size != batch size");
  }
  double joint = 1.0;
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    joint *= application_probability(i, allocation.at(i));
    if (joint == 0.0) break;
  }
  return joint;
}

}  // namespace cdsf::ra
