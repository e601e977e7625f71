// The library-level solve entry point: everything `cdsf scenario` does
// between "parsed scenario" and "printed results", callable without a CLI.
//
// Extracted from src/tools/cdsf_tool.cpp so the scheduling service
// (src/svc/) and the tool share ONE solve path — heuristic selection by
// feasible-space size, Stage II configuration from the scenario's
// [failure]/[quarantine] sections, and the (rho_1, rho_2) certificate all
// live here. The tool keeps its printing; the service keeps its journal;
// neither re-implements the solve.
#pragma once

#include <atomic>
#include <cstdint>

#include "cdsf/framework.hpp"
#include "cdsf/scenario_io.hpp"
#include "util/parallel.hpp"

namespace cdsf::core {

/// Knobs of one solve. The defaults are the `cdsf scenario` defaults, so
/// a default-constructed SolveOptions reproduces the CLI byte-for-byte.
struct SolveOptions {
  /// Stage II replications per (application, technique, case).
  std::size_t replications = 51;
  std::uint64_t seed = 1;
  /// Threads for Stage I's completion table and each case's Stage II grid:
  /// every CPU this process may run on by default (results are
  /// thread-count invariant; see ra::RobustnessEvaluator::precompute and
  /// sim::simulate_replicated).
  std::size_t threads = util::default_thread_count();
  /// Allocation-space threshold for heuristic selection: spaces up to this
  /// size are solved exactly (ra::ExhaustiveOptimal), larger ones fall
  /// back to ra::BestOfPortfolio.
  std::size_t exhaustive_space_limit = 200000;
  /// Cooperative cancellation: when non-null and set, the solve unwinds
  /// with util::Cancelled at the next RA-enumeration or Monte-Carlo
  /// boundary (see ra::RobustnessConfig::cancel / sim::SimConfig::cancel).
  /// solve_scenario wires it into both stages; solve_on only into Stage II
  /// (Stage I polls whatever the caller put in the framework's
  /// RobustnessConfig).
  const std::atomic<bool>* cancel = nullptr;
};

/// What a solve produces: the full scenario result, its robustness
/// certificate, and the feasible-space size that drove heuristic choice.
struct SolveOutcome {
  ScenarioResult scenario;
  RobustnessReport report;
  /// |feasible allocations| under CountRule::kPowerOfTwo — the number the
  /// exhaustive-vs-portfolio decision was made on.
  std::size_t feasible_space = 0;
};

/// Builds the Framework a scenario describes: batch + platform +
/// reference availability (cases.front()) + deadline. Throws whatever the
/// Framework constructor throws on an invalid scenario.
[[nodiscard]] Framework make_framework(const Scenario& scenario,
                                       ra::RobustnessConfig robustness = {});

/// Runs the full CDSF on an existing framework: picks the Stage I
/// heuristic by feasible-space size, runs Stage II over scenario.cases
/// with the scenario's [failure]/[quarantine] sections applied, and
/// computes (rho_1, rho_2). `framework` must be the one make_framework
/// built for this scenario (or equivalent).
[[nodiscard]] SolveOutcome solve_on(const Framework& framework, const Scenario& scenario,
                                    const SolveOptions& options = {});

/// Convenience: make_framework + solve_on, with options.cancel wired into
/// BOTH stages. This is the service's one-call solve path.
[[nodiscard]] SolveOutcome solve_scenario(const Scenario& scenario,
                                          const SolveOptions& options = {});

}  // namespace cdsf::core
