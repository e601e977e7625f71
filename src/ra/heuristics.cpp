#include "ra/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.hpp"

namespace cdsf::ra {

namespace {

// SimulatedAnnealing's schedule.
constexpr std::size_t kAnnealingIterations = 4000;
constexpr double kInitialTemperature = 0.2;
constexpr double kCooling = 0.999;
constexpr std::uint64_t kAnnealingSeed = 0x5EED;

// TabuSearch stops after kTabuPatience consecutive non-improving moves or
// kTabuMaxMoves moves; an applied (application, group) pair stays tabu for
// kTabuTenure moves.
constexpr std::size_t kTabuPatience = 200;
constexpr std::size_t kTabuMaxMoves = 5000;
constexpr std::size_t kTabuTenure = 12;

std::size_t total_capacity(const std::vector<std::size_t>& remaining) {
  std::size_t total = 0;
  for (std::size_t c : remaining) total += c;
  return total;
}

std::vector<std::size_t> full_capacity(const sysmodel::Platform& platform) {
  std::vector<std::size_t> remaining(platform.type_count());
  for (std::size_t j = 0; j < platform.type_count(); ++j) {
    remaining[j] = platform.processors_of_type(j);
  }
  return remaining;
}

/// Group options available to one application given remaining capacity,
/// reserving one processor for each of `reserve` still-unassigned
/// applications.
std::vector<GroupAssignment> feasible_options(const std::vector<std::size_t>& remaining,
                                              CountRule rule, std::size_t reserve) {
  std::vector<GroupAssignment> options;
  const std::size_t total = total_capacity(remaining);
  for (std::size_t type = 0; type < remaining.size(); ++type) {
    for (std::size_t count : candidate_counts(remaining[type], rule)) {
      if (total - count < reserve) continue;
      options.push_back(GroupAssignment{type, count});
    }
  }
  return options;
}

/// The groups application `i` can move to while every other application
/// keeps its group: feasible_options of the capacity the others leave, in
/// type-then-count order, application i's own group included.
std::vector<GroupAssignment> reassignments(const Allocation& allocation, std::size_t i,
                                           const sysmodel::Platform& platform, CountRule rule) {
  std::vector<std::size_t> remaining = full_capacity(platform);
  for (std::size_t k = 0; k < allocation.size(); ++k) {
    if (k != i) remaining[allocation.at(k).processor_type] -= allocation.at(k).processors;
  }
  return feasible_options(remaining, rule, 0);
}

void require_feasible_instance(const RobustnessEvaluator& evaluator,
                               const sysmodel::Platform& platform) {
  if (platform.total_processors() < evaluator.batch().size()) {
    throw std::runtime_error("RA heuristic: fewer processors than applications");
  }
  if (platform.type_count() != evaluator.batch().type_count()) {
    throw std::invalid_argument("RA heuristic: platform/batch type count mismatch");
  }
}

/// Greedy commitment loop shared by MinMin / MaxMin / Sufferage. `pick`
/// receives the unassigned applications and the round's option list (the
/// same for every application: the groups that leave one processor for
/// each other unassigned application), and must return the (application
/// index within `unassigned`, option) to commit.
template <typename Picker>
Allocation commit_loop(const RobustnessEvaluator& evaluator, const sysmodel::Platform& platform,
                       CountRule rule, Picker pick) {
  require_feasible_instance(evaluator, platform);
  const std::size_t n = evaluator.batch().size();
  std::vector<std::size_t> remaining = full_capacity(platform);
  std::vector<GroupAssignment> groups(n);
  std::vector<std::size_t> unassigned(n);
  for (std::size_t i = 0; i < n; ++i) unassigned[i] = i;

  while (!unassigned.empty()) {
    const std::vector<GroupAssignment> options =
        feasible_options(remaining, rule, unassigned.size() - 1);
    if (options.empty()) {
      throw std::runtime_error("RA heuristic: no feasible group for an application");
    }
    const auto [k, choice] = pick(unassigned, options);
    groups[unassigned[k]] = choice;
    remaining[choice.processor_type] -= choice.processors;
    unassigned.erase(unassigned.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return Allocation(std::move(groups));
}

/// Best option by maximum deadline probability (ties: fewer processors).
GroupAssignment best_by_probability(const RobustnessEvaluator& evaluator, std::size_t app,
                                    const std::vector<GroupAssignment>& options,
                                    double* best_probability = nullptr,
                                    double* second_probability = nullptr) {
  GroupAssignment best{};
  double best_p = -1.0;
  double second_p = -1.0;
  for (const GroupAssignment& option : options) {
    const double p = evaluator.application_probability(app, option);
    const bool better = p > best_p + 1e-15 ||
                        (std::fabs(p - best_p) <= 1e-15 && option.processors < best.processors);
    if (better) {
      second_p = best_p;
      best_p = p;
      best = option;
    } else if (p > second_p) {
      second_p = p;
    }
  }
  if (best_probability != nullptr) *best_probability = best_p;
  if (second_probability != nullptr) *second_probability = std::max(second_p, 0.0);
  return best;
}

/// The start of SimulatedAnnealing and TabuSearch: applications committed
/// in batch order, each to its most probable group among those that leave
/// one processor for every later application (ties: fewer processors).
Allocation batch_order_start(const RobustnessEvaluator& evaluator,
                             const sysmodel::Platform& platform, CountRule rule) {
  return commit_loop(evaluator, platform, rule,
                     [&](const std::vector<std::size_t>& unassigned,
                         const std::vector<GroupAssignment>& options) {
                       return std::make_pair(
                           std::size_t{0},
                           best_by_probability(evaluator, unassigned[0], options));
                     });
}

/// Stage I's allocation order, applied one offer at a time: the highest
/// phi_1 wins. phi_1 values within kTie of the best seen so far tie, and a
/// tie goes to the smaller expected_total (by more than kTie), then to
/// fewer processors. The window is not transitive, so the winner depends
/// on the offer order; the exact searches offer in walk_feasible's order.
class AllocationRanking {
 public:
  explicit AllocationRanking(const RobustnessEvaluator& evaluator) : evaluator_(&evaluator) {}

  /// Keeps `allocation` if it ranks above the incumbent.
  void offer(const Allocation& allocation) {
    const double joint = evaluator_->joint_probability(allocation);
    if (excludes(joint)) return;
    const bool clearly_better = joint > best_joint_ + kTie;
    const double expected = expected_total(*evaluator_, allocation);
    const bool tie_break =
        !clearly_better &&
        (expected < best_expected_ - kTie ||
         (std::fabs(expected - best_expected_) <= kTie && best_.has_value() &&
          allocation.total_processors() < best_->total_processors()));
    if (clearly_better || tie_break) {
      best_joint_ = std::max(joint, best_joint_);
      best_expected_ = expected;
      best_ = allocation;
    }
  }

  /// True when an offer whose phi_1 is at most `phi1` cannot win, now or
  /// after later offers (the best phi_1 seen only grows).
  [[nodiscard]] bool excludes(double phi1) const { return phi1 < best_joint_ - kTie; }

  /// The incumbent; nullopt before the first offer.
  [[nodiscard]] const std::optional<Allocation>& best() const noexcept { return best_; }

 private:
  static constexpr double kTie = 1e-9;

  const RobustnessEvaluator* evaluator_;
  std::optional<Allocation> best_;
  double best_joint_ = -1.0;
  double best_expected_ = std::numeric_limits<double>::infinity();
};

}  // namespace

double expected_total(const RobustnessEvaluator& evaluator, const Allocation& allocation) {
  double sum = 0.0;
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    sum += evaluator.expected_completion(i, allocation.at(i));
  }
  return sum;
}

// ------------------------------------------------------- NaiveLoadBalance --

Allocation NaiveLoadBalance::allocate(const RobustnessEvaluator& evaluator,
                                      const sysmodel::Platform& platform,
                                      CountRule rule) const {
  require_feasible_instance(evaluator, platform);
  const std::size_t n = evaluator.batch().size();
  const std::size_t fair_share = platform.total_processors() / n;
  if (fair_share == 0) throw std::runtime_error("NaiveLoadBalance: no fair share possible");

  // Equal-share counts to try, largest first (power-of-2 rounds down).
  std::vector<std::size_t> shares = candidate_counts(fair_share, rule);
  std::sort(shares.rbegin(), shares.rend());

  for (std::size_t share : shares) {
    // Every type assignment with all groups of size `share`; the first one
    // with the highest joint probability wins.
    Allocation best;
    double best_joint = -1.0;
    walk_feasible(
        n, platform, rule,
        [share](std::size_t, GroupAssignment group) { return group.processors == share; },
        [&](const std::vector<GroupAssignment>& groups) {
          Allocation candidate(groups);
          const double joint = evaluator.joint_probability(candidate);
          if (joint > best_joint) {
            best_joint = joint;
            best = std::move(candidate);
          }
        });
    if (best_joint >= 0.0) return best;
  }
  throw std::runtime_error("NaiveLoadBalance: no equal-share allocation fits the platform");
}

// ------------------------------------------------------ ExhaustiveOptimal --

Allocation ExhaustiveOptimal::allocate(const RobustnessEvaluator& evaluator,
                                       const sysmodel::Platform& platform,
                                       CountRule rule) const {
  require_feasible_instance(evaluator, platform);
  AllocationRanking ranking(evaluator);
  walk_feasible(
      evaluator.batch().size(), platform, rule, [](std::size_t, GroupAssignment) { return true; },
      [&](const std::vector<GroupAssignment>& groups) { ranking.offer(Allocation(groups)); });
  if (!ranking.best()) throw std::runtime_error("ExhaustiveOptimal: no feasible allocation");
  return *ranking.best();
}

// -------------------------------------------------- BranchAndBoundOptimal --

Allocation BranchAndBoundOptimal::allocate(const RobustnessEvaluator& evaluator,
                                           const sysmodel::Platform& platform,
                                           CountRule rule) const {
  require_feasible_instance(evaluator, platform);
  const std::size_t n = evaluator.batch().size();
  nodes_visited_ = 0;

  // Admissible per-application bound: the best probability achievable on
  // the FULL (capacity-relaxed) platform.
  std::vector<double> best_possible(n, 0.0);
  const std::vector<GroupAssignment> all_options =
      feasible_options(full_capacity(platform), rule, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const GroupAssignment& option : all_options) {
      best_possible[i] = std::max(best_possible[i],
                                  evaluator.application_probability(i, option));
    }
  }
  // Suffix products of the bounds: suffix[i] = prod_{k >= i} best_possible[k].
  std::vector<double> suffix(n + 1, 1.0);
  for (std::size_t i = n; i-- > 0;) suffix[i] = suffix[i + 1] * best_possible[i];

  // The bound multiplies in another order than joint_probability does, so
  // it may round below a phi_1 under it by about one ulp per application;
  // this margin covers that for batches of up to 4,000 applications.
  constexpr double kBoundRounding = 1e-12;
  // prefix[i] = product of the placed applications' probabilities, [0, i).
  std::vector<double> prefix(n + 1, 1.0);
  AllocationRanking ranking(evaluator);
  walk_feasible(
      n, platform, rule,
      [&](std::size_t app, GroupAssignment group) {
        ++nodes_visited_;
        prefix[app + 1] = prefix[app] * evaluator.application_probability(app, group);
        // Cut only what the ranking would skip: the incumbent only improves
        // between now and the offers below this node.
        return !ranking.excludes(prefix[app + 1] * suffix[app + 1] + kBoundRounding);
      },
      [&](const std::vector<GroupAssignment>& groups) { ranking.offer(Allocation(groups)); });
  if (!ranking.best()) throw std::runtime_error("BranchAndBoundOptimal: no feasible allocation");
  return *ranking.best();
}

// ------------------------------------------------------- GreedyRobustness --

Allocation GreedyRobustness::allocate(const RobustnessEvaluator& evaluator,
                                      const sysmodel::Platform& platform,
                                      CountRule rule) const {
  // Initial solution: one processor per application on its best type.
  Allocation allocation = commit_loop(
      evaluator, platform, rule,
      [&](const std::vector<std::size_t>& unassigned,
          const std::vector<GroupAssignment>& options) {
        // Assign in batch order; restrict to single-processor groups so the
        // hill climb starts minimal.
        std::vector<GroupAssignment> singles;
        for (const GroupAssignment& option : options) {
          if (option.processors == 1) singles.push_back(option);
        }
        const auto& pool = singles.empty() ? options : singles;
        return std::make_pair(std::size_t{0},
                              best_by_probability(evaluator, unassigned[0], pool));
      });

  // Steepest-ascent local search over single-application reassignments.
  double current = evaluator.joint_probability(allocation);
  const std::size_t n = allocation.size();
  for (std::size_t round = 0; round < 64 * n + 64; ++round) {
    double best_gain = 1e-15;
    std::size_t best_app = n;
    GroupAssignment best_option{};
    for (std::size_t i = 0; i < n; ++i) {
      for (const GroupAssignment& option : reassignments(allocation, i, platform, rule)) {
        if (option == allocation.at(i)) continue;
        std::vector<GroupAssignment> groups = allocation.groups();
        groups[i] = option;
        const double joint = evaluator.joint_probability(Allocation(std::move(groups)));
        if (joint - current > best_gain) {
          best_gain = joint - current;
          best_app = i;
          best_option = option;
        }
      }
    }
    if (best_app == n) break;  // local optimum
    std::vector<GroupAssignment> groups = allocation.groups();
    groups[best_app] = best_option;
    allocation = Allocation(std::move(groups));
    current += best_gain;
  }

  // Phase 2: phi_1 has saturated; among probability-preserving moves, hill
  // climb DOWN on the total expected completion time. Pr(Psi <= Delta)
  // alone is myopic — two allocations with equal probability can differ
  // widely in makespan, which matters the moment the next batch queues
  // behind this one (and mirrors ExhaustiveOptimal's tie-breaking).
  double current_expected = expected_total(evaluator, allocation);
  for (std::size_t round = 0; round < 64 * n + 64; ++round) {
    double best_drop = 1e-9;
    std::size_t best_app = n;
    GroupAssignment best_option{};
    for (std::size_t i = 0; i < n; ++i) {
      for (const GroupAssignment& option : reassignments(allocation, i, platform, rule)) {
        if (option == allocation.at(i)) continue;
        std::vector<GroupAssignment> groups = allocation.groups();
        groups[i] = option;
        const Allocation candidate(std::move(groups));
        if (evaluator.joint_probability(candidate) < current - 1e-12) continue;
        const double drop = current_expected - expected_total(evaluator, candidate);
        if (drop > best_drop) {
          best_drop = drop;
          best_app = i;
          best_option = option;
        }
      }
    }
    if (best_app == n) break;
    std::vector<GroupAssignment> groups = allocation.groups();
    groups[best_app] = best_option;
    allocation = Allocation(std::move(groups));
    current_expected -= best_drop;
    current = evaluator.joint_probability(allocation);
  }
  return allocation;
}

// --------------------------------------------------------- MinMinExpected --

Allocation MinMinExpected::allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform, CountRule rule) const {
  return commit_loop(
      evaluator, platform, rule,
      [&](const std::vector<std::size_t>& unassigned,
          const std::vector<GroupAssignment>& options) {
        std::size_t best_k = 0;
        GroupAssignment best_option{};
        double best_time = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < unassigned.size(); ++k) {
          for (const GroupAssignment& option : options) {
            const double t = evaluator.expected_completion(unassigned[k], option);
            if (t < best_time) {
              best_time = t;
              best_k = k;
              best_option = option;
            }
          }
        }
        return std::make_pair(best_k, best_option);
      });
}

// --------------------------------------------------------- MaxMinExpected --

Allocation MaxMinExpected::allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform, CountRule rule) const {
  return commit_loop(
      evaluator, platform, rule,
      [&](const std::vector<std::size_t>& unassigned,
          const std::vector<GroupAssignment>& options) {
        // For each application, its best (minimum) expected completion;
        // commit the application whose best is the worst.
        std::size_t best_k = 0;
        GroupAssignment best_option{};
        double worst_best = -std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < unassigned.size(); ++k) {
          double app_best = std::numeric_limits<double>::infinity();
          GroupAssignment app_option{};
          for (const GroupAssignment& option : options) {
            const double t = evaluator.expected_completion(unassigned[k], option);
            if (t < app_best) {
              app_best = t;
              app_option = option;
            }
          }
          if (app_best > worst_best) {
            worst_best = app_best;
            best_k = k;
            best_option = app_option;
          }
        }
        return std::make_pair(best_k, best_option);
      });
}

// -------------------------------------------------------- SufferageRobust --

Allocation SufferageRobust::allocate(const RobustnessEvaluator& evaluator,
                                     const sysmodel::Platform& platform, CountRule rule) const {
  return commit_loop(
      evaluator, platform, rule,
      [&](const std::vector<std::size_t>& unassigned,
          const std::vector<GroupAssignment>& options) {
        std::size_t best_k = 0;
        GroupAssignment best_option{};
        double best_sufferage = -1.0;
        for (std::size_t k = 0; k < unassigned.size(); ++k) {
          double best_p = 0.0;
          double second_p = 0.0;
          const GroupAssignment option =
              best_by_probability(evaluator, unassigned[k], options, &best_p, &second_p);
          const double sufferage = best_p - second_p;
          if (sufferage > best_sufferage) {
            best_sufferage = sufferage;
            best_k = k;
            best_option = option;
          }
        }
        return std::make_pair(best_k, best_option);
      });
}

// ------------------------------------------------------ SimulatedAnnealing --

Allocation SimulatedAnnealing::allocate(const RobustnessEvaluator& evaluator,
                                        const sysmodel::Platform& platform,
                                        CountRule rule) const {
  Allocation current_allocation = batch_order_start(evaluator, platform, rule);

  double current = evaluator.joint_probability(current_allocation);
  Allocation best_allocation = current_allocation;
  double best = current;

  util::RngStream rng(kAnnealingSeed);
  double temperature = kInitialTemperature;
  const std::size_t n = current_allocation.size();

  for (std::size_t step = 0; step < kAnnealingIterations; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const std::vector<GroupAssignment> options =
        reassignments(current_allocation, i, platform, rule);
    if (options.empty()) continue;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1));

    std::vector<GroupAssignment> groups = current_allocation.groups();
    groups[i] = options[pick];
    Allocation candidate(std::move(groups));
    const double joint = evaluator.joint_probability(candidate);
    const double delta = joint - current;
    if (delta >= 0.0 || rng.uniform01() < std::exp(delta / temperature)) {
      current_allocation = std::move(candidate);
      current = joint;
      if (current > best) {
        best = current;
        best_allocation = current_allocation;
      }
    }
    temperature = std::max(temperature * kCooling, 1e-6);
  }
  return best_allocation;
}

// ------------------------------------------------------------ TabuSearch --

Allocation TabuSearch::allocate(const RobustnessEvaluator& evaluator,
                                const sysmodel::Platform& platform, CountRule rule) const {
  // Walk from the batch-order start via best single-application
  // reassignments.
  Allocation current = batch_order_start(evaluator, platform, rule);
  double current_joint = evaluator.joint_probability(current);
  Allocation best = current;
  double best_joint = current_joint;

  const std::size_t n = current.size();
  // tabu_until[key] = move index until which (app, type, count) is tabu.
  std::unordered_map<std::uint64_t, std::size_t> tabu_until;
  auto key_of = [](std::size_t app, const GroupAssignment& g) {
    return (static_cast<std::uint64_t>(app) << 32) |
           (static_cast<std::uint64_t>(g.processor_type) << 16) |
           static_cast<std::uint64_t>(g.processors);
  };

  std::size_t stale = 0;
  for (std::size_t move = 0; move < kTabuMaxMoves && stale < kTabuPatience; ++move) {
    double best_candidate_joint = -1.0;
    std::size_t best_app = n;
    GroupAssignment best_option{};

    for (std::size_t i = 0; i < n; ++i) {
      for (const GroupAssignment& option : reassignments(current, i, platform, rule)) {
        if (option == current.at(i)) continue;
        std::vector<GroupAssignment> groups = current.groups();
        groups[i] = option;
        const double joint = evaluator.joint_probability(Allocation(std::move(groups)));
        const auto it = tabu_until.find(key_of(i, option));
        const bool tabu = it != tabu_until.end() && it->second > move;
        // Aspiration: accept tabu moves only if they beat the global best.
        if (tabu && joint <= best_joint + 1e-15) continue;
        if (joint > best_candidate_joint) {
          best_candidate_joint = joint;
          best_app = i;
          best_option = option;
        }
      }
    }
    if (best_app == n) break;  // every move tabu and non-aspiring

    // Forbid undoing this application's PREVIOUS assignment for `tenure`.
    tabu_until[key_of(best_app, current.at(best_app))] = move + kTabuTenure;
    std::vector<GroupAssignment> groups = current.groups();
    groups[best_app] = best_option;
    current = Allocation(std::move(groups));
    current_joint = best_candidate_joint;

    if (current_joint > best_joint + 1e-15) {
      best_joint = current_joint;
      best = current;
      stale = 0;
    } else {
      ++stale;
    }
  }
  return best;
}

// -------------------------------------------------------- BestOfPortfolio --

Allocation BestOfPortfolio::allocate(const RobustnessEvaluator& evaluator,
                                     const sysmodel::Platform& platform,
                                     CountRule rule) const {
  AllocationRanking ranking(evaluator);
  for (const auto& heuristic : all_heuristics(false)) {
    ranking.offer(heuristic->allocate(evaluator, platform, rule));
  }
  return *ranking.best();
}

std::vector<std::unique_ptr<Heuristic>> all_heuristics(bool include_exhaustive) {
  std::vector<std::unique_ptr<Heuristic>> heuristics;
  heuristics.push_back(std::make_unique<NaiveLoadBalance>());
  if (include_exhaustive) heuristics.push_back(std::make_unique<ExhaustiveOptimal>());
  heuristics.push_back(std::make_unique<GreedyRobustness>());
  heuristics.push_back(std::make_unique<MinMinExpected>());
  heuristics.push_back(std::make_unique<MaxMinExpected>());
  heuristics.push_back(std::make_unique<SufferageRobust>());
  heuristics.push_back(std::make_unique<SimulatedAnnealing>());
  heuristics.push_back(std::make_unique<TabuSearch>());
  return heuristics;
}

}  // namespace cdsf::ra
