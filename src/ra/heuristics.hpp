// Resource-allocation heuristics for Stage I.
//
//   NaiveLoadBalance  — the paper's "naive IM": every application receives
//                       an equal share of processors; among the equal-share
//                       allocations the one with the highest phi_1 is kept.
//   ExhaustiveOptimal — the paper's "robust IM": walk every feasible
//                       allocation and keep the best in Stage I's order
//                       (highest phi_1; ties within 1e-9 go to the smaller
//                       expected_total, then to fewer processors).
//                       Feasible only at small scale.
//   BranchAndBoundOptimal — the same walk and order, cutting subtrees whose
//                       phi_1 bound the order would skip: returns exactly
//                       ExhaustiveOptimal's allocation.
// Scalable heuristics (the paper's stated future work; baselines built from
// the literature it cites):
//   GreedyRobustness  — steepest-ascent local search on phi_1: start from
//                       minimal groups on each application's best type, then
//                       repeatedly apply the single reassignment (type or
//                       count change of one application) that most improves
//                       the joint probability.
//   MinMinExpected    — min-min (Ibarra & Kim 1977 family): repeatedly
//                       commit the (application, group) pair with the
//                       minimum expected completion time.
//   MaxMinExpected    — max-min: commit the application whose BEST option
//                       is worst first (bottleneck first).
//   SufferageRobust   — sufferage on the probability metric: commit the
//                       application that loses most if denied its best
//                       group.
//   SimulatedAnnealing— Metropolis search over feasible allocations on
//                       phi_1; seeded and deterministic.
//   TabuSearch        — best single-application reassignment per move,
//                       with the groups it recently left forbidden for a
//                       few moves.
//   BestOfPortfolio   — runs NaiveLoadBalance and every scalable heuristic
//                       and keeps the best allocation in Stage I's order.
//
// All heuristics guarantee a returned allocation is feasible and complete,
// or throw std::runtime_error when the instance admits no feasible
// allocation (fewer processors than applications).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ra/allocation.hpp"
#include "ra/robustness.hpp"

namespace cdsf::ra {

/// Abstract Stage I policy.
class Heuristic {
 public:
  virtual ~Heuristic() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Produces a feasible allocation for the evaluator's batch on
  /// `platform` under `rule`.
  [[nodiscard]] virtual Allocation allocate(const RobustnessEvaluator& evaluator,
                                            const sysmodel::Platform& platform,
                                            CountRule rule) const = 0;
};

class NaiveLoadBalance final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "NaiveLoadBalance"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class ExhaustiveOptimal final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "ExhaustiveOptimal"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// Exact optimum via branch and bound over walk_feasible with an
/// admissible capacity-relaxed bound: a branch is cut when (product so far)
/// x (each remaining application's best probability over the FULL
/// platform), plus a rounding margin, falls below the incumbent's phi_1 by
/// more than the order's tie window. Every cut allocation is one the order
/// would skip, so it returns exactly ExhaustiveOptimal's allocation while
/// visiting a fraction of the tree. The bound uses phi_1 only, so it never
/// cuts a phi_1 tie.
class BranchAndBoundOptimal final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "BranchAndBoundOptimal"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;

  /// (application, group) placements the last allocate() call on this
  /// instance tried, cut or not (for the pruning tests; not thread-safe).
  [[nodiscard]] std::size_t last_nodes_visited() const noexcept { return nodes_visited_; }

 private:
  mutable std::size_t nodes_visited_ = 0;
};

class GreedyRobustness final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "GreedyRobustness"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class MinMinExpected final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "MinMinExpected"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class MaxMinExpected final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "MaxMinExpected"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class SufferageRobust final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "SufferageRobust"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class SimulatedAnnealing final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "SimulatedAnnealing"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// Tabu search on phi_1: best-improving single-application reassignment per
/// move, with the (application, group) pair each move leaves forbidden for
/// a few moves (aspiration: a tabu move beating the global best is
/// allowed). Escapes the local optima that stop GreedyRobustness.
class TabuSearch final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "TabuSearch"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// Portfolio: runs every member of all_heuristics(false) and returns the
/// best of their allocations in Stage I's order (ExhaustiveOptimal's).
/// The practitioner's default — each member costs microseconds-to-
/// milliseconds, so running all of them is cheap insurance against any
/// single heuristic's pathological instances.
class BestOfPortfolio final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "BestOfPortfolio"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// All heuristics (for comparison benches); exhaustive included only when
/// `include_exhaustive`. BestOfPortfolio is excluded (it wraps the others).
[[nodiscard]] std::vector<std::unique_ptr<Heuristic>> all_heuristics(bool include_exhaustive);

/// Sum of the applications' expected completion times under `allocation`,
/// added in application order: Stage I's tie-break after phi_1.
[[nodiscard]] double expected_total(const RobustnessEvaluator& evaluator,
                                    const Allocation& allocation);

}  // namespace cdsf::ra
