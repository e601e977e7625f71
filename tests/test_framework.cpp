#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "cdsf/framework.hpp"
#include "cdsf/paper_example.hpp"
#include "obs/metrics.hpp"

namespace cdsf::core {
namespace {

class FrameworkTest : public ::testing::Test {
 protected:
  FrameworkTest()
      : example_(make_paper_example()),
        framework_(example_.batch, example_.platform, example_.cases.front(),
                   example_.deadline) {}

  static StageTwoConfig fast_config() {
    StageTwoConfig config;
    config.replications = 41;
    config.seed = 7;
    return config;
  }

  PaperExample example_;
  Framework framework_;
};

// ---------------------------------------------------------------- stage I --

TEST_F(FrameworkTest, StageOneRobustMatchesPaper) {
  const StageOneResult result = framework_.run_stage_one(ra::ExhaustiveOptimal());
  EXPECT_EQ(result.allocation, paper_robust_allocation());
  EXPECT_NEAR(result.phi1, 0.745, 0.01);
  ASSERT_EQ(result.expected_times.size(), 3u);
  EXPECT_NEAR(result.expected_times[2], 2700.0, 10.0);
}

TEST_F(FrameworkTest, DescribeAllocationValidates) {
  EXPECT_THROW(framework_.describe_allocation(ra::Allocation({{0, 1}}), "x"),
               std::invalid_argument);
  EXPECT_THROW(framework_.describe_allocation(ra::Allocation({{0, 9}, {0, 1}, {1, 1}}), "x"),
               std::invalid_argument);
  const StageOneResult described =
      framework_.describe_allocation(paper_naive_allocation(), "naive");
  EXPECT_EQ(described.heuristic_name, "naive");
  EXPECT_NEAR(described.phi1, 0.26, 0.01);
}

// --------------------------------------------------------------- stage II --

TEST_F(FrameworkTest, StageTwoProducesOutcomesPerAppAndTechnique) {
  const auto techniques = dls::paper_robust_set();
  const StageTwoResult result = framework_.run_stage_two(
      paper_robust_allocation(), example_.cases.front(), techniques, fast_config());
  ASSERT_EQ(result.outcomes.size(), 3u);
  for (const auto& per_app : result.outcomes) {
    ASSERT_EQ(per_app.size(), techniques.size());
    for (const auto& outcome : per_app) {
      EXPECT_GT(outcome.summary.mean_makespan, 0.0);
      EXPECT_EQ(outcome.summary.replications, 41u);
    }
  }
  EXPECT_EQ(result.case_name, "case1");
}

TEST_F(FrameworkTest, StageTwoReferenceCaseMeetsDeadline) {
  const StageTwoResult result =
      framework_.run_stage_two(paper_robust_allocation(), example_.cases.front(),
                               dls::paper_robust_set(), fast_config());
  EXPECT_TRUE(result.all_meet_deadline);
  for (int best : result.best_technique) EXPECT_GE(best, 0);
  EXPECT_LE(result.system_makespan, example_.deadline);
}

TEST_F(FrameworkTest, StageTwoCaseFourViolatesForAppTwo) {
  const StageTwoResult result =
      framework_.run_stage_two(paper_robust_allocation(), example_.cases[3],
                               dls::paper_robust_set(), fast_config());
  // Paper: app 2 misses the deadline under every DLS technique in case 4
  // (2 processors of type 1 at E[a] = 41.25% cannot finish 1680 dedicated
  // time units of work before 3250).
  EXPECT_EQ(result.best_technique[1], -1);
  EXPECT_FALSE(result.all_meet_deadline);
}

TEST_F(FrameworkTest, StageTwoDeterministicGivenSeed) {
  const StageTwoResult a = framework_.run_stage_two(
      paper_robust_allocation(), example_.cases[1], dls::paper_robust_set(), fast_config());
  const StageTwoResult b = framework_.run_stage_two(
      paper_robust_allocation(), example_.cases[1], dls::paper_robust_set(), fast_config());
  for (std::size_t app = 0; app < 3; ++app) {
    for (std::size_t k = 0; k < a.outcomes[app].size(); ++k) {
      EXPECT_DOUBLE_EQ(a.outcomes[app][k].summary.mean_makespan,
                       b.outcomes[app][k].summary.mean_makespan);
    }
  }
}

TEST_F(FrameworkTest, StageTwoValidation) {
  EXPECT_THROW(framework_.run_stage_two(ra::Allocation({{0, 1}}), example_.cases.front(),
                                        dls::paper_robust_set(), fast_config()),
               std::invalid_argument);
  EXPECT_THROW(framework_.run_stage_two(paper_robust_allocation(), example_.cases.front(), {},
                                        fast_config()),
               std::invalid_argument);
}

// -------------------------------------------------------------- scenarios --

TEST_F(FrameworkTest, ScenarioFourIsRobustThroughCaseThree) {
  const ScenarioResult scenario =
      framework_.run_scenario("robust-robust", ra::ExhaustiveOptimal(),
                              dls::paper_robust_set(), example_.cases, fast_config());
  ASSERT_EQ(scenario.per_case.size(), 4u);
  EXPECT_TRUE(scenario.per_case[0].all_meet_deadline);
  // Case 2's app 2 is a borderline cell (its median availability path alone
  // costs ~3253 > 3250); apps 1 and 3 meet comfortably, app 2 must at least
  // be within 5% of the deadline. See EXPERIMENTS.md.
  EXPECT_GE(scenario.per_case[1].best_technique[0], 0);
  EXPECT_GE(scenario.per_case[1].best_technique[2], 0);
  double case2_app2_best = 1e18;
  for (const auto& outcome : scenario.per_case[1].outcomes[1]) {
    case2_app2_best = std::min(case2_app2_best, outcome.summary.median_makespan);
  }
  EXPECT_LT(case2_app2_best, 1.05 * example_.deadline);
  EXPECT_TRUE(scenario.per_case[2].all_meet_deadline);
  EXPECT_FALSE(scenario.per_case[3].all_meet_deadline);

  const RobustnessReport report = framework_.robustness_report(scenario, example_.cases);
  EXPECT_NEAR(report.rho1, 0.745, 0.01);
  EXPECT_NEAR(report.rho2, 0.308, 0.005);  // paper: 30.77% (rounded inputs: 30.89%)
  EXPECT_EQ(report.rho2_case, 2);          // case 3
}

TEST_F(FrameworkTest, ScenarioOneNaiveNaiveIsNotRobust) {
  const ScenarioResult scenario =
      framework_.run_scenario("naive-naive", ra::NaiveLoadBalance(),
                              {dls::TechniqueId::kStatic}, example_.cases, fast_config());
  EXPECT_NEAR(scenario.stage_one.phi1, 0.26, 0.01);
  for (const StageTwoResult& per_case : scenario.per_case) {
    EXPECT_FALSE(per_case.all_meet_deadline) << per_case.case_name;
  }
  const RobustnessReport report = framework_.robustness_report(scenario, example_.cases);
  EXPECT_LT(report.rho2, 0.0);  // not robust even at the reference case
  EXPECT_EQ(report.rho2_case, -1);
}

TEST_F(FrameworkTest, RobustnessReportValidation) {
  ScenarioResult scenario;
  scenario.per_case.resize(2);
  EXPECT_THROW(framework_.robustness_report(scenario, example_.cases), std::invalid_argument);
}

// ---------------------------------------------------------------- analytic --

TEST_F(FrameworkTest, AnalyticStaticTimesMatchFigureThree) {
  // Figure 3 values are the Table V expected values under case 1.
  const ra::Allocation naive = paper_naive_allocation();
  EXPECT_NEAR(framework_.analytic_static_time(0, naive.at(0), example_.cases.front()),
              3800.02, 15.0);
  EXPECT_NEAR(framework_.analytic_static_time(1, naive.at(1), example_.cases.front()),
              1306.39, 10.0);
  EXPECT_NEAR(framework_.analytic_static_time(2, naive.at(2), example_.cases.front()),
              4599.76, 15.0);
}

TEST_F(FrameworkTest, AnalyticStaticTimesGrowAsAvailabilityDrops) {
  const ra::Allocation robust = paper_robust_allocation();
  for (std::size_t app = 0; app < 3; ++app) {
    const double reference =
        framework_.analytic_static_time(app, robust.at(app), example_.cases.front());
    for (std::size_t k = 1; k < example_.cases.size(); ++k) {
      EXPECT_GT(framework_.analytic_static_time(app, robust.at(app), example_.cases[k]),
                0.9 * reference)
          << "app=" << app << " case=" << k;
    }
  }
}

// ------------------------------------------------------------ construction --

TEST(Framework, ConstructionValidation) {
  const PaperExample example = make_paper_example();
  EXPECT_THROW(Framework(example.batch, example.platform, example.cases.front(), 0.0),
               std::invalid_argument);
  const sysmodel::Platform wrong({{"only", 4}});
  EXPECT_THROW(Framework(example.batch, wrong, example.cases.front(), 100.0),
               std::invalid_argument);
}

TEST(Framework, StageOnePhi1IsObservedOncePerAllocationUnderConcurrentSolves) {
  // Two frameworks whose Stage I allocations differ in phi_1 run Stage I on
  // two threads at once: the metric must keep both values, not whichever
  // thread finished last.
  const PaperExample example = make_paper_example();
  const Framework tight(example.batch, example.platform, example.cases.front(),
                        example.deadline);
  const Framework loose(example.batch, example.platform, example.cases.front(),
                        2.0 * example.deadline);
  const double phi_tight = tight.run_stage_one(ra::ExhaustiveOptimal()).phi1;
  const double phi_loose = loose.run_stage_one(ra::ExhaustiveOptimal()).phi1;
  ASSERT_NE(phi_tight, phi_loose);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const bool was_enabled = metrics.enabled();
  for (int repeat = 0; repeat < 10; ++repeat) {
    metrics.reset();
    metrics.set_enabled(true);
    std::thread other([&loose] { (void)loose.run_stage_one(ra::ExhaustiveOptimal()); });
    (void)tight.run_stage_one(ra::ExhaustiveOptimal());
    other.join();
    metrics.set_enabled(false);
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    const auto phi1 = snapshot.histograms.find("cdsf.stage1.phi1");
    ASSERT_NE(phi1, snapshot.histograms.end()) << "repeat " << repeat;
    EXPECT_EQ(phi1->second.count, 2u) << "repeat " << repeat;
    EXPECT_EQ(phi1->second.min, std::min(phi_tight, phi_loose)) << "repeat " << repeat;
    EXPECT_EQ(phi1->second.max, std::max(phi_tight, phi_loose)) << "repeat " << repeat;
  }
  metrics.reset();
  metrics.set_enabled(was_enabled);
}

}  // namespace
}  // namespace cdsf::core
