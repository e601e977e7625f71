// The Combined Dual-Stage Framework (CDSF) — the paper's primary
// contribution, tying Stage I (robust resource allocation) to Stage II
// (robust dynamic loop scheduling) and quantifying the system robustness
// tuple (rho_1, rho_2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dls/registry.hpp"
#include "ra/allocation.hpp"
#include "ra/heuristics.hpp"
#include "ra/robustness.hpp"
#include "sim/batch_executor.hpp"
#include "sim/loop_executor.hpp"
#include "sysmodel/availability.hpp"
#include "sysmodel/platform.hpp"
#include "workload/application.hpp"

namespace cdsf::core {

/// Stage I output: the initial mapping and its robustness.
struct StageOneResult {
  std::string heuristic_name;
  ra::Allocation allocation;
  /// phi_1 = Pr(all applications complete <= deadline) under Â.
  double phi1 = 0.0;
  /// Expected completion time per application (Table V values).
  std::vector<double> expected_times;
  /// Per-application probability of meeting the deadline.
  std::vector<double> app_probabilities;
};

/// One (application, technique) outcome of Stage II.
struct AppTechniqueOutcome {
  dls::TechniqueId technique = dls::TechniqueId::kStatic;
  sim::ReplicationSummary summary;
  /// Median simulated makespan <= deadline (representative execution).
  bool meets_deadline = false;
};

/// Stage II output for one runtime availability case.
struct StageTwoResult {
  std::string case_name;
  /// outcomes[app][k] — k indexes the technique list passed in.
  std::vector<std::vector<AppTechniqueOutcome>> outcomes;
  /// Per application: index (into the technique list) of the fastest
  /// technique that meets the deadline; -1 if none does.
  std::vector<int> best_technique;
  /// Every application has at least one deadline-meeting technique.
  bool all_meet_deadline = false;
  /// System makespan under the per-application best techniques (max of the
  /// winners' median makespans; uses the overall-fastest technique for
  /// applications with no deadline-meeting one).
  double system_makespan = 0.0;
};

/// Stage II configuration.
struct StageTwoConfig {
  sim::SimConfig sim;
  std::size_t replications = 25;
  std::uint64_t seed = 0xC05F;
  /// Threads for the case's grid of (application, technique, replication)
  /// runs (results are thread-count invariant; see
  /// sim::simulate_replicated), and for Stage I's completion table when
  /// run_scenario drives both stages. 1 = serial.
  std::size_t threads = 1;
};

/// Scenario = Stage I policy x Stage II policy, evaluated over a set of
/// runtime availability cases.
struct ScenarioResult {
  std::string name;
  StageOneResult stage_one;
  std::vector<StageTwoResult> per_case;  // aligned with the cases passed in
};

/// System robustness tuple (Section III-C, question 3).
struct RobustnessReport {
  /// rho_1: phi_1 of the Stage I mapping.
  double rho1 = 0.0;
  /// rho_2: largest tolerable percentage decrease in weighted system
  /// availability, over cases where every application still meets the
  /// deadline; 0 if only the reference case survives, negative sentinel -1
  /// if not even the reference case does.
  double rho2 = 0.0;
  /// Index (into the case list) of the case achieving rho_2; -1 if none.
  int rho2_case = -1;
};

/// The framework: a batch, a platform, the reference availability Â and a
/// common deadline Delta.
class Framework {
 public:
  /// Throws std::invalid_argument on empty batch, type-count mismatches, or
  /// non-positive deadline.
  Framework(workload::Batch batch, sysmodel::Platform platform,
            sysmodel::AvailabilitySpec reference_availability, double deadline,
            ra::RobustnessConfig robustness_config = {});

  [[nodiscard]] const workload::Batch& batch() const noexcept { return batch_; }
  [[nodiscard]] const sysmodel::Platform& platform() const noexcept { return platform_; }
  [[nodiscard]] const sysmodel::AvailabilitySpec& reference_availability() const noexcept {
    return reference_;
  }
  [[nodiscard]] double deadline() const noexcept { return deadline_; }
  /// The Stage I evaluator (reference availability Â).
  [[nodiscard]] const ra::RobustnessEvaluator& evaluator() const noexcept { return evaluator_; }

  /// Stage I: run an RA heuristic against Â. First memoizes, on `threads`
  /// threads, every completion PMF a search under `rule` can query
  /// (ra::RobustnessEvaluator::precompute); the result is the same for any
  /// thread count.
  [[nodiscard]] StageOneResult run_stage_one(const ra::Heuristic& heuristic,
                                             ra::CountRule rule = ra::CountRule::kPowerOfTwo,
                                             std::size_t threads = 1) const;

  /// Stage I bookkeeping for an externally chosen allocation.
  [[nodiscard]] StageOneResult describe_allocation(const ra::Allocation& allocation,
                                                   std::string label) const;

  /// Stage II: execute every application of `allocation` under every
  /// technique in `techniques` against runtime availability `runtime`, all
  /// of the case's replicated runs as one grid on config.threads threads.
  [[nodiscard]] StageTwoResult run_stage_two(const ra::Allocation& allocation,
                                             const sysmodel::AvailabilitySpec& runtime,
                                             const std::vector<dls::TechniqueId>& techniques,
                                             const StageTwoConfig& config) const;

  /// Full scenario: Stage I with `heuristic`, then Stage II over `cases`,
  /// both on config.threads threads.
  [[nodiscard]] ScenarioResult run_scenario(std::string name, const ra::Heuristic& heuristic,
                                            const std::vector<dls::TechniqueId>& techniques,
                                            const std::vector<sysmodel::AvailabilitySpec>& cases,
                                            const StageTwoConfig& config,
                                            ra::CountRule rule = ra::CountRule::kPowerOfTwo) const;

  /// (rho_1, rho_2) from a scenario result. `cases` must be those the
  /// scenario ran over, with cases[0] the reference.
  [[nodiscard]] RobustnessReport robustness_report(
      const ScenarioResult& scenario,
      const std::vector<sysmodel::AvailabilitySpec>& cases) const;

  /// Analytic STATIC completion expectation for one application under a
  /// given runtime availability: E[T_par / a] — the paper's Figure 3/4
  /// arithmetic.
  [[nodiscard]] double analytic_static_time(std::size_t app, ra::GroupAssignment group,
                                            const sysmodel::AvailabilitySpec& runtime) const;

  /// The deployable artifact of the whole framework: where each application
  /// runs (Stage I) and which DLS technique executes it (Stage II).
  struct ExecutionPlan {
    ra::Allocation allocation;
    std::vector<dls::TechniqueId> techniques;  // one per application
    double phi1 = 0.0;
  };

  /// Locks a plan from a scenario result: the allocation from Stage I and,
  /// per application, the best deadline-meeting technique under
  /// `cases_index` (the overall-fastest one, `fallback`, when none meets).
  /// Throws std::out_of_range for a bad case index.
  [[nodiscard]] ExecutionPlan make_plan(const ScenarioResult& scenario, std::size_t case_index,
                                        dls::TechniqueId fallback = dls::TechniqueId::kAF) const;

  /// Executes a locked plan once against a runtime availability (one
  /// simulated batch execution; see sim::simulate_batch).
  [[nodiscard]] sim::BatchRunResult execute_plan(const ExecutionPlan& plan,
                                                 const sysmodel::AvailabilitySpec& runtime,
                                                 const sim::SimConfig& config,
                                                 std::uint64_t seed) const;

  /// Re-mapping trigger: re-run Stage I when the realized availability has
  /// degraded beyond what the plan was certified to tolerate (rho_2 from
  /// robustness_report).
  struct RemapPolicy {
    /// Largest tolerable weighted-availability decrease. A realized
    /// decrease <= rho2 keeps the original plan.
    double rho2 = 0.0;
  };

  /// Outcome of a remap check. `plan` is the original plan when not
  /// triggered, or the re-allocation computed against the REALIZED
  /// availability when triggered (techniques carry over per application;
  /// phi1 is re-evaluated under the realized spec).
  struct RemapDecision {
    bool triggered = false;
    /// Realized weighted-availability decrease vs. the reference.
    double realized_decrease = 0.0;
    ExecutionPlan plan;
    /// phi_1 of the ORIGINAL allocation evaluated under the realized
    /// availability — what the stale plan is actually worth now.
    double phi1_realized_before = 0.0;
    /// phi_1 of `plan`'s allocation under the realized availability
    /// (equals phi1_realized_before when not triggered).
    double phi1_realized_after = 0.0;
  };

  /// Closes the Stage I / Stage II loop: compares the realized availability
  /// against the reference and, when the decrease exceeds policy.rho2,
  /// re-runs `heuristic` on an evaluator built from the REALIZED
  /// availability — the paper's rho_2 turned from a static certificate into
  /// a runtime trigger. Throws std::invalid_argument on a plan whose
  /// allocation does not match the batch, or a realized spec with a
  /// mismatched type count.
  [[nodiscard]] RemapDecision remap_on_availability(
      const ExecutionPlan& plan, const sysmodel::AvailabilitySpec& realized,
      const ra::Heuristic& heuristic, const RemapPolicy& policy,
      ra::CountRule rule = ra::CountRule::kPowerOfTwo) const;

  /// Human-readable plan rendering.
  [[nodiscard]] std::string describe_plan(const ExecutionPlan& plan) const;

 private:
  workload::Batch batch_;
  sysmodel::Platform platform_;
  sysmodel::AvailabilitySpec reference_;
  double deadline_;
  ra::RobustnessConfig robustness_config_;
  ra::RobustnessEvaluator evaluator_;
};

}  // namespace cdsf::core
