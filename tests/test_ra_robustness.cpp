#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "cdsf/paper_example.hpp"
#include "ra/robustness.hpp"
#include "test_support.hpp"
#include "util/cancel.hpp"

namespace cdsf::ra {
namespace {

using core::make_paper_example;
using core::paper_naive_allocation;
using core::paper_robust_allocation;

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest()
      : example_(make_paper_example()),
        evaluator_(example_.batch, example_.cases.front(), example_.deadline) {}

  core::PaperExample example_;
  RobustnessEvaluator evaluator_;
};

TEST_F(RobustnessTest, ExpectedCompletionsMatchTableFive) {
  const Allocation naive = paper_naive_allocation();
  EXPECT_NEAR(evaluator_.expected_completion(0, naive.at(0)), 3800.02, 15.0);
  EXPECT_NEAR(evaluator_.expected_completion(1, naive.at(1)), 1306.39, 10.0);
  EXPECT_NEAR(evaluator_.expected_completion(2, naive.at(2)), 4599.76, 15.0);

  const Allocation robust = paper_robust_allocation();
  EXPECT_NEAR(evaluator_.expected_completion(0, robust.at(0)), 1365.46, 10.0);
  EXPECT_NEAR(evaluator_.expected_completion(1, robust.at(1)), 1959.59, 10.0);
  EXPECT_NEAR(evaluator_.expected_completion(2, robust.at(2)), 2699.86, 10.0);
}

TEST_F(RobustnessTest, JointProbabilitiesMatchPaper) {
  // Paper: 26% for naive IM, 74.5% for robust IM.
  EXPECT_NEAR(evaluator_.joint_probability(paper_naive_allocation()), 0.26, 0.01);
  EXPECT_NEAR(evaluator_.joint_probability(paper_robust_allocation()), 0.745, 0.01);
}

TEST_F(RobustnessTest, PerApplicationProbabilitiesDecompose) {
  const Allocation robust = paper_robust_allocation();
  double product = 1.0;
  for (std::size_t i = 0; i < 3; ++i) {
    const double p = evaluator_.application_probability(i, robust.at(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    product *= p;
  }
  EXPECT_NEAR(product, evaluator_.joint_probability(robust), 1e-12);
}

TEST_F(RobustnessTest, App3DominatesRobustAllocationRisk) {
  const Allocation robust = paper_robust_allocation();
  // Apps 1 and 2 are near-certain; app 3 carries the 25% risk (the 25%
  // availability pulse of type 2 pushes it to ~5400 > 3250).
  EXPECT_GT(evaluator_.application_probability(0, robust.at(0)), 0.99);
  EXPECT_GT(evaluator_.application_probability(1, robust.at(1)), 0.99);
  EXPECT_NEAR(evaluator_.application_probability(2, robust.at(2)), 0.745, 0.01);
}

TEST_F(RobustnessTest, MoreProcessorsNeverHurtProbability) {
  for (std::size_t app = 0; app < 3; ++app) {
    for (std::size_t type = 0; type < 2; ++type) {
      double prev = 0.0;
      for (std::size_t n = 1; n <= 8; n *= 2) {
        const double p = evaluator_.application_probability(app, {type, n});
        EXPECT_GE(p, prev - 1e-9) << "app=" << app << " type=" << type << " n=" << n;
        prev = p;
      }
    }
  }
}

TEST_F(RobustnessTest, CompletionPmfIsCached) {
  const GroupAssignment group{1, 8};
  const pmf::Pmf& first = evaluator_.completion_pmf(2, group);
  const pmf::Pmf& second = evaluator_.completion_pmf(2, group);
  EXPECT_EQ(&first, &second);

  // The memoized probability and expectation are the PMF's own cdf and
  // expectation bit for bit, whether the query fills the cache or hits it.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t app = 0; app < example_.batch.size(); ++app) {
    for (std::size_t type = 0; type < example_.platform.type_count(); ++type) {
      for (std::size_t n = 1; n <= example_.platform.processors_of_type(type); ++n) {
        const GroupAssignment option{type, n};
        const RobustnessEvaluator fresh(example_.batch, example_.cases.front(), example_.deadline);
        const double probability = fresh.application_probability(app, option);  // fills
        const double expected = fresh.expected_completion(app, option);          // hits
        const pmf::Pmf& completion = fresh.completion_pmf(app, option);
        EXPECT_EQ(bits(probability), bits(completion.cdf(fresh.deadline())))
            << "app=" << app << " type=" << type << " n=" << n;
        EXPECT_EQ(bits(expected), bits(completion.expectation()))
            << "app=" << app << " type=" << type << " n=" << n;
      }
    }
  }
}

TEST_F(RobustnessTest, CompletionPmfSupportScalesWithAvailability) {
  // Type 2, case 1: pulses at 1/0.25, 1/0.5, 1/1 of the dedicated time.
  const pmf::Pmf& completion = evaluator_.completion_pmf(2, {1, 8});
  // Min ~ fastest dedicated pulse; max ~ slowest pulse / 0.25.
  EXPECT_GT(completion.max(), 3.5 * completion.min());
}

TEST_F(RobustnessTest, Validation) {
  EXPECT_THROW(evaluator_.completion_pmf(9, {0, 1}), std::out_of_range);
  EXPECT_THROW(evaluator_.completion_pmf(0, {9, 1}), std::invalid_argument);
  EXPECT_THROW(evaluator_.completion_pmf(0, {0, 0}), std::invalid_argument);
  EXPECT_THROW(evaluator_.joint_probability(Allocation({{0, 1}})), std::invalid_argument);
}

TEST(RobustnessEvaluator, ConstructionValidation) {
  const auto example = make_paper_example();
  EXPECT_THROW(RobustnessEvaluator(workload::Batch{}, example.cases.front(), 100.0),
               std::invalid_argument);
  EXPECT_THROW(RobustnessEvaluator(example.batch, example.cases.front(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(RobustnessEvaluator(example.batch, test::full_availability(3), 100.0),
               std::invalid_argument);
  RobustnessConfig bad;
  bad.discretization_pulses = 0;
  EXPECT_THROW(RobustnessEvaluator(example.batch, example.cases.front(), 100.0, bad),
               std::invalid_argument);
}

TEST(RobustnessEvaluator, CacheKeepsTypesApartAtMillionProcessorGroups) {
  // Two types with 2^20 processors each: a cache key packing the fields into
  // overlapping bit ranges gave both groups one slot, so the second query
  // returned the first type's PMF.
  const workload::Batch batch({test::simple_app("a", 10, 100, {50.0, 80.0})});
  std::vector<pmf::Pmf> laws = {pmf::Pmf::delta(1.0),
                                pmf::Pmf::from_pulses({{0.5, 0.5}, {1.0, 0.5}})};
  const sysmodel::AvailabilitySpec availability("two types", std::move(laws));
  constexpr std::size_t kProcessors = std::size_t{1} << 20;
  const RobustnessEvaluator warmed(batch, availability, 5000.0);
  (void)warmed.completion_pmf(0, {0, kProcessors});
  (void)warmed.application_probability(0, {0, kProcessors});

  const RobustnessEvaluator fresh(batch, availability, 5000.0);
  const pmf::Pmf& type1 = fresh.completion_pmf(0, {1, kProcessors});
  EXPECT_NE(fresh.completion_pmf(0, {0, kProcessors}), type1);
  EXPECT_EQ(warmed.completion_pmf(0, {1, kProcessors}), type1);
  EXPECT_EQ(warmed.application_probability(0, {1, kProcessors}),
            fresh.application_probability(0, {1, kProcessors}));
  EXPECT_EQ(warmed.expected_completion(0, {1, kProcessors}),
            fresh.expected_completion(0, {1, kProcessors}));
}

TEST(RobustnessEvaluator, PrecomputeMatchesLazyQueriesBitForBitAtAnyThreadCount) {
  // 64 availability levels: every completion PMF compacts (64 x 64 > 2048).
  const auto example = make_paper_example();
  const sysmodel::AvailabilitySpec availability =
      test::leveled_availability(example.platform.type_count(), 64);
  const RobustnessEvaluator lazy(example.batch, availability, example.deadline);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    const RobustnessEvaluator table(example.batch, availability, example.deadline);
    table.precompute(example.platform, CountRule::kPowerOfTwo, threads);
    std::size_t keys = 0;
    for (std::size_t app = 0; app < example.batch.size(); ++app) {
      for (std::size_t type = 0; type < example.platform.type_count(); ++type) {
        for (const std::size_t n : candidate_counts(example.platform.processors_of_type(type),
                                                    CountRule::kPowerOfTwo)) {
          const GroupAssignment group{type, n};
          const pmf::Pmf& expected = lazy.completion_pmf(app, group);
          const pmf::Pmf& built = table.completion_pmf(app, group);
          ASSERT_EQ(expected.size(), RobustnessConfig{}.max_pulses);
          ASSERT_EQ(built.size(), expected.size());
          for (std::size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(bits(built.value(i)), bits(expected.value(i)))
                << "threads=" << threads << " app=" << app << " type=" << type << " n=" << n;
            ASSERT_EQ(bits(built.probability(i)), bits(expected.probability(i)))
                << "threads=" << threads << " app=" << app << " type=" << type << " n=" << n;
          }
          EXPECT_EQ(bits(table.application_probability(app, group)),
                    bits(lazy.application_probability(app, group)));
          EXPECT_EQ(bits(table.expected_completion(app, group)),
                    bits(lazy.expected_completion(app, group)));
          ++keys;
        }
      }
    }
    EXPECT_EQ(keys, 21u);  // 3 applications x (3 + 4) candidate counts
  }
}

TEST(RobustnessEvaluator, SecondPrecomputeComputesNothing) {
  const auto example = make_paper_example();
  const sysmodel::AvailabilitySpec availability =
      test::leveled_availability(example.platform.type_count(), 64);
  const RobustnessEvaluator evaluator(example.batch, availability, example.deadline);
  EXPECT_EQ(evaluator.precompute(example.platform, CountRule::kPowerOfTwo, 4), 21u);
  const pmf::Pmf* first = &evaluator.completion_pmf(2, {1, 8});
  EXPECT_EQ(evaluator.precompute(example.platform, CountRule::kPowerOfTwo, 4), 0u);
  EXPECT_EQ(&evaluator.completion_pmf(2, {1, 8}), first);
}

TEST(RobustnessEvaluator, PrecomputeHonoursCancellationAndValidatesThePlatform) {
  const auto example = make_paper_example();
  util::CancelToken token;
  token.cancel();
  RobustnessConfig config;
  config.cancel = token.flag();
  const RobustnessEvaluator evaluator(example.batch, example.cases.front(), example.deadline,
                                      config);
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(evaluator.precompute(example.platform, CountRule::kPowerOfTwo, threads),
                 util::Cancelled)
        << "threads=" << threads;
  }
  token.reset();
  const sysmodel::Platform three_types({{"a", 1}, {"b", 1}, {"c", 1}});
  EXPECT_THROW(evaluator.precompute(three_types, CountRule::kPowerOfTwo, 1),
               std::invalid_argument);
}

TEST(RobustnessEvaluator, ForgetDropsOnlyThatApplicationsCompletions) {
  const auto example = make_paper_example();
  const sysmodel::AvailabilitySpec availability =
      test::leveled_availability(example.platform.type_count(), 64);
  const RobustnessEvaluator evaluator(example.batch, availability, example.deadline);
  evaluator.precompute(example.platform, CountRule::kPowerOfTwo, 1);
  const pmf::Pmf* kept = &evaluator.completion_pmf(2, {1, 8});
  const pmf::Pmf before = evaluator.completion_pmf(1, {1, 8});
  const double probability = evaluator.application_probability(1, {1, 8});
  evaluator.forget(1, example.platform, CountRule::kPowerOfTwo);
  // Application 1's 3 + 4 candidate counts.
  EXPECT_EQ(evaluator.precompute(example.platform, CountRule::kPowerOfTwo, 1), 7u);
  EXPECT_EQ(&evaluator.completion_pmf(2, {1, 8}), kept);
  // A forgotten completion is rebuilt bit for bit.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const pmf::Pmf& after = evaluator.completion_pmf(1, {1, 8});
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(bits(after.value(i)), bits(before.value(i))) << "i=" << i;
    ASSERT_EQ(bits(after.probability(i)), bits(before.probability(i))) << "i=" << i;
  }
  EXPECT_EQ(bits(evaluator.application_probability(1, {1, 8})), bits(probability));
}

TEST(RobustnessEvaluator, TightDeadlineGivesZeroLooseGivesOne) {
  const auto example = make_paper_example();
  const RobustnessEvaluator tight(example.batch, example.cases.front(), 1.0);
  EXPECT_NEAR(tight.joint_probability(paper_robust_allocation()), 0.0, 1e-12);
  const RobustnessEvaluator loose(example.batch, example.cases.front(), 1e9);
  EXPECT_NEAR(loose.joint_probability(paper_robust_allocation()), 1.0, 1e-12);
}

}  // namespace
}  // namespace cdsf::ra
