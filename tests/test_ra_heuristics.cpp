#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cdsf/paper_example.hpp"
#include "ra/heuristics.hpp"
#include "test_support.hpp"
#include "workload/generator.hpp"

namespace cdsf::ra {
namespace {

using core::make_paper_example;
using core::paper_naive_allocation;
using core::paper_robust_allocation;

class HeuristicsTest : public ::testing::Test {
 protected:
  HeuristicsTest()
      : example_(make_paper_example()),
        evaluator_(example_.batch, example_.cases.front(), example_.deadline) {}

  core::PaperExample example_;
  RobustnessEvaluator evaluator_;
};

// --------------------------------------------------------- paper matches --

TEST_F(HeuristicsTest, NaiveLoadBalanceReproducesTableFour) {
  const Allocation allocation =
      NaiveLoadBalance().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo);
  EXPECT_EQ(allocation, paper_naive_allocation());
  EXPECT_NEAR(evaluator_.joint_probability(allocation), 0.26, 0.01);
}

TEST_F(HeuristicsTest, ExhaustiveOptimalReproducesTableFour) {
  const Allocation allocation =
      ExhaustiveOptimal().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo);
  EXPECT_EQ(allocation, paper_robust_allocation());
  EXPECT_NEAR(evaluator_.joint_probability(allocation), 0.745, 0.01);
}

// -------------------------------------------------------- general checks --

TEST_F(HeuristicsTest, EveryHeuristicReturnsFeasibleCompleteAllocation) {
  for (const auto& heuristic : all_heuristics(true)) {
    const Allocation allocation =
        heuristic->allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo);
    EXPECT_EQ(allocation.size(), example_.batch.size()) << heuristic->name();
    EXPECT_TRUE(allocation.fits(example_.platform)) << heuristic->name();
    for (const GroupAssignment& group : allocation.groups()) {
      // Power-of-two rule respected.
      EXPECT_EQ(group.processors & (group.processors - 1), 0u) << heuristic->name();
    }
  }
}

TEST_F(HeuristicsTest, NoHeuristicBeatsExhaustive) {
  const double optimal = evaluator_.joint_probability(
      ExhaustiveOptimal().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  for (const auto& heuristic : all_heuristics(false)) {
    const double joint = evaluator_.joint_probability(
        heuristic->allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
    EXPECT_LE(joint, optimal + 1e-9) << heuristic->name();
  }
}

TEST_F(HeuristicsTest, GreedyAndAnnealingFindTheOptimumAtPaperScale) {
  const double optimal = evaluator_.joint_probability(
      ExhaustiveOptimal().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  const double greedy = evaluator_.joint_probability(
      GreedyRobustness().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  const double annealed = evaluator_.joint_probability(
      SimulatedAnnealing().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  EXPECT_NEAR(greedy, optimal, 1e-6);
  EXPECT_NEAR(annealed, optimal, 1e-6);
}

TEST_F(HeuristicsTest, RobustBeatsNaive) {
  const double naive = evaluator_.joint_probability(
      NaiveLoadBalance().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  const double robust = evaluator_.joint_probability(
      ExhaustiveOptimal().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  EXPECT_GT(robust, naive + 0.3);
}

TEST_F(HeuristicsTest, AnyCountRuleAtLeastAsGood) {
  const double pow2 = evaluator_.joint_probability(
      ExhaustiveOptimal().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  const double any = evaluator_.joint_probability(
      ExhaustiveOptimal().allocate(evaluator_, example_.platform, CountRule::kAny));
  EXPECT_GE(any, pow2 - 1e-9);
}

TEST_F(HeuristicsTest, Names) {
  EXPECT_EQ(NaiveLoadBalance().name(), "NaiveLoadBalance");
  EXPECT_EQ(ExhaustiveOptimal().name(), "ExhaustiveOptimal");
  EXPECT_EQ(GreedyRobustness().name(), "GreedyRobustness");
  EXPECT_EQ(MinMinExpected().name(), "MinMinExpected");
  EXPECT_EQ(MaxMinExpected().name(), "MaxMinExpected");
  EXPECT_EQ(SufferageRobust().name(), "SufferageRobust");
  EXPECT_EQ(SimulatedAnnealing().name(), "SimulatedAnnealing");
}

TEST_F(HeuristicsTest, AllHeuristicsListIncludesExhaustiveOnRequest) {
  EXPECT_EQ(all_heuristics(false).size(), 7u);
  EXPECT_EQ(all_heuristics(true).size(), 8u);
}

// -------------------------------------------------------- random batches --

TEST(HeuristicsRandom, FeasibleOnRandomInstances) {
  workload::BatchSpec spec;
  spec.applications = 6;
  spec.processor_types = 3;
  const sysmodel::Platform platform({{"a", 4}, {"b", 8}, {"c", 16}});
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const workload::Batch batch = workload::generate_batch(spec, seed);
    const sysmodel::AvailabilitySpec avail(
        "uniform", {pmf::Pmf::delta(0.8), pmf::Pmf::delta(0.6), pmf::Pmf::delta(0.9)});
    const RobustnessEvaluator evaluator(batch, avail, 20000.0);
    for (const auto& heuristic : all_heuristics(false)) {
      const Allocation allocation =
          heuristic->allocate(evaluator, platform, CountRule::kPowerOfTwo);
      EXPECT_TRUE(allocation.fits(platform)) << heuristic->name() << " seed=" << seed;
      EXPECT_EQ(allocation.size(), batch.size()) << heuristic->name();
    }
  }
}

TEST(HeuristicsRandom, TightCapacityStillAssignsEveryone) {
  // 4 applications on 4 processors: every heuristic must fall back to
  // single-processor groups.
  workload::BatchSpec spec;
  spec.applications = 4;
  spec.processor_types = 2;
  const workload::Batch batch = workload::generate_batch(spec, 11);
  const sysmodel::Platform platform({{"a", 2}, {"b", 2}});
  const sysmodel::AvailabilitySpec avail("u", {pmf::Pmf::delta(0.9), pmf::Pmf::delta(0.9)});
  const RobustnessEvaluator evaluator(batch, avail, 1e9);
  for (const auto& heuristic : all_heuristics(true)) {
    const Allocation allocation = heuristic->allocate(evaluator, platform, CountRule::kAny);
    EXPECT_TRUE(allocation.fits(platform)) << heuristic->name();
    EXPECT_EQ(allocation.total_processors(), 4u) << heuristic->name();
  }
}

TEST(HeuristicsRandom, InfeasibleInstanceThrows) {
  workload::BatchSpec spec;
  spec.applications = 5;
  spec.processor_types = 1;
  const workload::Batch batch = workload::generate_batch(spec, 4);
  const sysmodel::Platform platform({{"only", 3}});
  const sysmodel::AvailabilitySpec avail("u", {pmf::Pmf::delta(1.0)});
  const RobustnessEvaluator evaluator(batch, avail, 1e9);
  for (const auto& heuristic : all_heuristics(true)) {
    EXPECT_THROW(heuristic->allocate(evaluator, platform, CountRule::kAny), std::runtime_error)
        << heuristic->name();
  }
}

TEST_F(HeuristicsTest, TabuSearchFindsTheOptimumAtPaperScale) {
  const double optimal = evaluator_.joint_probability(
      ExhaustiveOptimal().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  const double tabu = evaluator_.joint_probability(
      TabuSearch().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  EXPECT_NEAR(tabu, optimal, 1e-6);
}

TEST_F(HeuristicsTest, TabuSearchAtLeastMatchesGreedy) {
  // Tabu's diversification can only help relative to the pure hill climb.
  const double greedy = evaluator_.joint_probability(
      GreedyRobustness().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  const double tabu = evaluator_.joint_probability(
      TabuSearch().allocate(evaluator_, example_.platform, CountRule::kPowerOfTwo));
  EXPECT_GE(tabu, greedy - 1e-9);
}

TEST(TabuSearch, DeterministicAndPatienceBounded) {
  const auto example = make_paper_example();
  const RobustnessEvaluator evaluator(example.batch, example.cases.front(), example.deadline);
  const Allocation a = TabuSearch().allocate(evaluator, example.platform, CountRule::kPowerOfTwo);
  const Allocation b = TabuSearch().allocate(evaluator, example.platform, CountRule::kPowerOfTwo);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.fits(example.platform));
}

TEST(HeuristicsRandom, AnnealingIsDeterministicGivenSeed) {
  const auto example = make_paper_example();
  const RobustnessEvaluator evaluator(example.batch, example.cases.front(), example.deadline);
  const Allocation a =
      SimulatedAnnealing().allocate(evaluator, example.platform, CountRule::kPowerOfTwo);
  const Allocation b =
      SimulatedAnnealing().allocate(evaluator, example.platform, CountRule::kPowerOfTwo);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------- recorded digests --

/// Folds the (type, count) words of every group of `allocation` into the
/// FNV-1a hash `hash`.
void hash_allocation(std::uint64_t& hash, const Allocation& allocation) {
  for (const GroupAssignment& group : allocation.groups()) {
    for (const std::uint64_t word : {std::uint64_t{group.processor_type},
                                     std::uint64_t{group.processors}}) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xffU;
        hash *= 1099511628211ULL;
      }
    }
  }
}

// Output oracle for Stage I: the allocation each heuristic returns on 24
// seeded instances (1-3 types, 2-5 applications, every third batch ending
// in a copy of its first application, both count rules, deadlines from
// phi_1 = 0 to phi_1 = 1), hashed per heuristic across the instances and
// compared against digests recorded before the searches shared one walk
// and one allocation order. A refactor must keep every digest; a
// deliberate behaviour change re-records them and says why.
// BranchAndBoundOptimal is left out: BranchAndBound.MatchesExhaustive*
// pins it to ExhaustiveOptimal.
TEST(Heuristics, OutputsMatchRecordedDigests) {
  const std::vector<pmf::Pmf> laws = {
      pmf::Pmf::from_pulses({{0.6, 0.5}, {1.0, 0.5}}),
      pmf::Pmf::from_pulses({{0.3, 0.25}, {0.6, 0.25}, {1.0, 0.5}}),
      pmf::Pmf::from_pulses({{0.5, 0.3}, {0.8, 0.7}})};
  const std::vector<sysmodel::Platform> platforms = {
      sysmodel::Platform({{"a", 6}}),
      sysmodel::Platform({{"a", 4}, {"b", 8}}),
      sysmodel::Platform({{"a", 2}, {"b", 4}, {"c", 8}})};
  const std::vector<double> deadlines = {4000.0, 6000.0, 8000.0, 10000.0, 1e9};

  std::vector<std::unique_ptr<Heuristic>> heuristics = all_heuristics(true);
  heuristics.push_back(std::make_unique<BestOfPortfolio>());
  std::vector<std::uint64_t> digests(heuristics.size(), 14695981039346656037ULL);
  std::size_t instance = 0;
  for (std::size_t types = 1; types <= 3; ++types) {
    const sysmodel::AvailabilitySpec availability(
        "pinned", std::vector<pmf::Pmf>(laws.begin(),
                                        laws.begin() + static_cast<std::ptrdiff_t>(types)));
    for (std::size_t apps = 2; apps <= 5; ++apps) {
      for (const CountRule rule : {CountRule::kPowerOfTwo, CountRule::kAny}) {
        workload::BatchSpec spec;
        spec.applications = apps;
        spec.processor_types = types;
        spec.min_mean_time = 2000.0;
        spec.max_mean_time = 12000.0;
        std::vector<workload::Application> applications =
            workload::generate_batch(spec, instance + 1).applications();
        if (instance % 3 == 0) applications.back() = applications.front();
        const workload::Batch batch(std::move(applications));
        const RobustnessEvaluator evaluator(batch, availability,
                                            deadlines[instance % deadlines.size()]);
        for (std::size_t h = 0; h < heuristics.size(); ++h) {
          hash_allocation(digests[h],
                          heuristics[h]->allocate(evaluator, platforms[types - 1], rule));
        }
        ++instance;
      }
    }
  }

  const std::vector<std::pair<std::string, std::uint64_t>> recorded = {
      {"NaiveLoadBalance", 0x3961e8c30aa6d626ULL},
      {"ExhaustiveOptimal", 0x20a38faa3233d16eULL},
      {"GreedyRobustness", 0x59de819b60b32968ULL},
      {"MinMinExpected", 0xb761a81f7b47b163ULL},
      {"MaxMinExpected", 0xb42db809701d0a6fULL},
      {"SufferageRobust", 0x7e75957032679409ULL},
      {"SimulatedAnnealing", 0xa3742b40b9a0b267ULL},
      {"TabuSearch", 0x693aef7f6642dd2aULL},
      {"BestOfPortfolio", 0xb5556fffb7a661a2ULL}};
  ASSERT_EQ(heuristics.size(), recorded.size());
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    EXPECT_EQ(heuristics[h]->name(), recorded[h].first);
    EXPECT_EQ(digests[h], recorded[h].second)
        << recorded[h].first << " digest 0x" << std::hex << digests[h];
  }
}

}  // namespace
}  // namespace cdsf::ra
