#include "cdsf/framework.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "pmf/ops.hpp"
#include "util/rng.hpp"

namespace cdsf::core {

Framework::Framework(workload::Batch batch, sysmodel::Platform platform,
                     sysmodel::AvailabilitySpec reference_availability, double deadline,
                     ra::RobustnessConfig robustness_config)
    : batch_(std::move(batch)),
      platform_(std::move(platform)),
      reference_(std::move(reference_availability)),
      deadline_(deadline),
      robustness_config_(robustness_config),
      evaluator_(batch_, reference_, deadline_, robustness_config_) {
  if (platform_.type_count() != batch_.type_count()) {
    throw std::invalid_argument("Framework: platform/batch type count mismatch");
  }
}

StageOneResult Framework::describe_allocation(const ra::Allocation& allocation,
                                              std::string label) const {
  if (allocation.size() != batch_.size()) {
    throw std::invalid_argument("describe_allocation: allocation size != batch size");
  }
  if (!allocation.fits(platform_)) {
    throw std::invalid_argument("describe_allocation: allocation does not fit the platform");
  }
  StageOneResult result;
  result.heuristic_name = std::move(label);
  result.allocation = allocation;
  result.phi1 = evaluator_.joint_probability(allocation);
  result.expected_times.reserve(batch_.size());
  result.app_probabilities.reserve(batch_.size());
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    result.expected_times.push_back(evaluator_.expected_completion(i, allocation.at(i)));
    result.app_probabilities.push_back(evaluator_.application_probability(i, allocation.at(i)));
  }
  return result;
}

StageOneResult Framework::run_stage_one(const ra::Heuristic& heuristic, ra::CountRule rule,
                                        std::size_t threads) const {
  obs::ScopedTimer timer(obs::MetricsRegistry::global(), "cdsf.stage1.seconds");
  // The completion table first, on `threads` threads, so the search below
  // reads memoized entries only; the table's PMF phases sit outside the
  // enumeration phase.
  evaluator_.precompute(platform_, rule, threads);
  ra::Allocation allocation = [&] {
    // The enumeration phase wraps the heuristic's whole search; PMF
    // convolution/compaction nested inside report as their own phases
    // (the profiler subtracts child time from the parent).
    obs::PhaseTimer phase(obs::Phase::kRaEnumeration);
    return heuristic.allocate(evaluator_, platform_, rule);
  }();
  StageOneResult result = describe_allocation(std::move(allocation), heuristic.name());
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) {
    metrics.add("cdsf.stage1.allocations");
    metrics.observe("cdsf.stage1.phi1", result.phi1);
  }
  return result;
}

StageTwoResult Framework::run_stage_two(const ra::Allocation& allocation,
                                        const sysmodel::AvailabilitySpec& runtime,
                                        const std::vector<dls::TechniqueId>& techniques,
                                        const StageTwoConfig& config) const {
  if (allocation.size() != batch_.size()) {
    throw std::invalid_argument("run_stage_two: allocation size != batch size");
  }
  if (techniques.empty()) {
    throw std::invalid_argument("run_stage_two: at least one technique required");
  }
  obs::ScopedTimer timer(obs::MetricsRegistry::global(), "cdsf.stage2.seconds");
  if (obs::MetricsRegistry::global().enabled()) {
    obs::MetricsRegistry::global().add("cdsf.stage2.cases");
  }

  StageTwoResult result;
  result.case_name = runtime.name();
  result.outcomes.resize(batch_.size());
  result.best_technique.assign(batch_.size(), -1);
  result.all_meet_deadline = true;
  result.system_makespan = 0.0;

  // The deadline-risk monitor projects against the FRAMEWORK deadline
  // unless the caller pinned an explicit one.
  sim::SimConfig sim_config = config.sim;
  if (sim_config.deadline_risk.enabled && sim_config.deadline_risk.deadline == 0.0) {
    sim_config.deadline_risk.deadline = deadline_;
  }
  // The flight recorder's deadline-miss anomaly likewise defaults to the
  // framework deadline.
  if (sim_config.flight.deadline == 0.0 && deadline_ > 0.0 && std::isfinite(deadline_)) {
    sim_config.flight.deadline = deadline_;
  }

  // One grid per case: every (application, technique) arm's replications
  // share one index space, so arms of unequal cost keep every thread busy.
  // Arm seeds come from the arm's position, never from the thread count.
  const util::SeedSequence seeds(config.seed);
  std::vector<sim::ReplicatedArm> arms;
  arms.reserve(batch_.size() * techniques.size());
  for (std::size_t app = 0; app < batch_.size(); ++app) {
    const ra::GroupAssignment group = allocation.at(app);
    for (std::size_t k = 0; k < techniques.size(); ++k) {
      arms.push_back({&batch_.at(app), group.processor_type, group.processors, techniques[k],
                      seeds.child(app * 64 + k)});
    }
  }
  std::vector<sim::ReplicationSummary> summaries;
  {
    obs::PhaseTimer phase(obs::Phase::kMonteCarlo);
    summaries = sim::simulate_replicated(arms, runtime, sim_config, config.replications,
                                         deadline_, config.threads);
  }

  for (std::size_t app = 0; app < batch_.size(); ++app) {
    double best_meeting = std::numeric_limits<double>::infinity();
    double best_any = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < techniques.size(); ++k) {
      AppTechniqueOutcome outcome;
      outcome.technique = techniques[k];
      outcome.summary = std::move(summaries[app * techniques.size() + k]);
      outcome.meets_deadline = outcome.summary.median_makespan <= deadline_;
      best_any = std::min(best_any, outcome.summary.median_makespan);
      if (outcome.meets_deadline && outcome.summary.median_makespan < best_meeting) {
        best_meeting = outcome.summary.median_makespan;
        result.best_technique[app] = static_cast<int>(k);
      }
      result.outcomes[app].push_back(std::move(outcome));
    }
    if (result.best_technique[app] < 0) {
      result.all_meet_deadline = false;
      result.system_makespan = std::max(result.system_makespan, best_any);
    } else {
      result.system_makespan = std::max(result.system_makespan, best_meeting);
    }
  }
  return result;
}

ScenarioResult Framework::run_scenario(std::string name, const ra::Heuristic& heuristic,
                                       const std::vector<dls::TechniqueId>& techniques,
                                       const std::vector<sysmodel::AvailabilitySpec>& cases,
                                       const StageTwoConfig& config, ra::CountRule rule) const {
  ScenarioResult result;
  result.name = std::move(name);
  result.stage_one = run_stage_one(heuristic, rule, config.threads);
  result.per_case.reserve(cases.size());
  for (const sysmodel::AvailabilitySpec& runtime : cases) {
    result.per_case.push_back(
        run_stage_two(result.stage_one.allocation, runtime, techniques, config));
  }
  return result;
}

RobustnessReport Framework::robustness_report(
    const ScenarioResult& scenario, const std::vector<sysmodel::AvailabilitySpec>& cases) const {
  if (scenario.per_case.size() != cases.size()) {
    throw std::invalid_argument("robustness_report: scenario/case list size mismatch");
  }
  RobustnessReport report;
  report.rho1 = scenario.stage_one.phi1;
  report.rho2 = -1.0;
  report.rho2_case = -1;
  if (cases.empty()) return report;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    if (!scenario.per_case[k].all_meet_deadline) continue;
    const double decrease = sysmodel::availability_decrease(cases.front(), cases[k], platform_);
    if (decrease > report.rho2) {
      report.rho2 = decrease;
      report.rho2_case = static_cast<int>(k);
    }
  }
  return report;
}

Framework::ExecutionPlan Framework::make_plan(const ScenarioResult& scenario,
                                              std::size_t case_index,
                                              dls::TechniqueId fallback) const {
  const StageTwoResult& per_case = scenario.per_case.at(case_index);
  ExecutionPlan plan;
  plan.allocation = scenario.stage_one.allocation;
  plan.phi1 = scenario.stage_one.phi1;
  plan.techniques.reserve(per_case.best_technique.size());
  for (std::size_t app = 0; app < per_case.best_technique.size(); ++app) {
    const int best = per_case.best_technique[app];
    plan.techniques.push_back(
        best >= 0 ? per_case.outcomes[app][static_cast<std::size_t>(best)].technique
                  : fallback);
  }
  return plan;
}

sim::BatchRunResult Framework::execute_plan(const ExecutionPlan& plan,
                                            const sysmodel::AvailabilitySpec& runtime,
                                            const sim::SimConfig& config,
                                            std::uint64_t seed) const {
  sim::SimConfig sim_config = config;
  if (sim_config.deadline_risk.enabled && sim_config.deadline_risk.deadline == 0.0) {
    sim_config.deadline_risk.deadline = deadline_;
  }
  if (sim_config.flight.deadline == 0.0 && deadline_ > 0.0 && std::isfinite(deadline_)) {
    sim_config.flight.deadline = deadline_;
  }
  return sim::simulate_batch(batch_, plan.allocation, runtime, plan.techniques, sim_config,
                             seed);
}

Framework::RemapDecision Framework::remap_on_availability(const ExecutionPlan& plan,
                                                          const sysmodel::AvailabilitySpec& realized,
                                                          const ra::Heuristic& heuristic,
                                                          const RemapPolicy& policy,
                                                          ra::CountRule rule) const {
  if (plan.allocation.size() != batch_.size()) {
    throw std::invalid_argument("remap_on_availability: plan allocation size != batch size");
  }
  if (realized.type_count() != platform_.type_count()) {
    throw std::invalid_argument("remap_on_availability: realized spec type count mismatch");
  }
  RemapDecision decision;
  decision.realized_decrease = sysmodel::availability_decrease(reference_, realized, platform_);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) {
    metrics.add("cdsf.remap.checks");
    metrics.observe("cdsf.remap.realized_decrease", decision.realized_decrease);
  }

  // Evaluate against what the system has BECOME, not what Stage I assumed.
  const ra::RobustnessEvaluator realized_eval(batch_, realized, deadline_, robustness_config_);
  decision.phi1_realized_before = realized_eval.joint_probability(plan.allocation);
  decision.plan = plan;
  decision.phi1_realized_after = decision.phi1_realized_before;
  if (decision.realized_decrease <= policy.rho2) return decision;  // within certificate

  decision.triggered = true;
  if (metrics.enabled()) metrics.add("cdsf.remap.triggered");
  decision.plan.allocation = heuristic.allocate(realized_eval, platform_, rule);
  decision.phi1_realized_after = realized_eval.joint_probability(decision.plan.allocation);
  decision.plan.phi1 = decision.phi1_realized_after;
  return decision;
}

std::string Framework::describe_plan(const ExecutionPlan& plan) const {
  std::string out;
  for (std::size_t app = 0; app < plan.allocation.size(); ++app) {
    const ra::GroupAssignment group = plan.allocation.at(app);
    out += batch_.at(app).name() + " -> " + std::to_string(group.processors) + " x " +
           platform_.type(group.processor_type).name + " via " +
           (app < plan.techniques.size() ? dls::technique_name(plan.techniques[app]) : "?") +
           "\n";
  }
  out += "phi_1 = " + std::to_string(plan.phi1);
  return out;
}

double Framework::analytic_static_time(std::size_t app, ra::GroupAssignment group,
                                       const sysmodel::AvailabilitySpec& runtime) const {
  const pmf::Pmf parallel = batch_.at(app).parallel_pmf(group.processor_type, group.processors,
                                                        robustness_config_.discretization_pulses);
  return pmf::apply_availability(parallel, runtime.of_type(group.processor_type),
                                 robustness_config_.max_pulses)
      .expectation();
}

}  // namespace cdsf::core
