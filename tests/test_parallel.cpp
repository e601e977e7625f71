#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "cdsf/paper_example.hpp"
#include "ra/robustness.hpp"
#include "sim/loop_executor.hpp"
#include "util/parallel.hpp"

namespace cdsf {
namespace {

// ----------------------------------------------------- parallel_for_index --

TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  // Every seventh body is slow, so threads claim very different numbers of
  // indices.
  for (std::size_t threads : {1u, 2u, 3u, 4u, 7u, 8u}) {
    std::vector<std::atomic<int>> visits(100);
    util::parallel_for_index(100, threads, [&](std::size_t i) {
      if (i % 7 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++visits[i];
    });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  auto compute = [](std::size_t threads) {
    std::vector<double> out(500);
    util::parallel_for_index(500, threads, [&](std::size_t i) {
      out[i] = std::sin(static_cast<double>(i)) * static_cast<double>(i);
    });
    return out;
  };
  const std::vector<double> serial = compute(1);
  EXPECT_EQ(compute(3), serial);
  EXPECT_EQ(compute(16), serial);
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine) {
  std::vector<int> out(3, 0);
  util::parallel_for_index(3, 64, [&](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  util::parallel_for_index(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ExceptionsPropagate) {
  // Index 3 fails late and index 7 early, so with several threads 7 usually
  // throws first; the rethrown exception must still be index 3's, as in a
  // serial loop.
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    std::string message;
    try {
      util::parallel_for_index(10, threads, [](std::size_t i) {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("index 3");
        }
        if (i == 7) throw std::runtime_error("index 7");
      });
    } catch (const std::runtime_error& error) {
      message = error.what();
    }
    EXPECT_EQ(message, "index 3") << "threads=" << threads;
  }
}

TEST(ParallelFor, DefaultThreadCountIsSane) {
  const std::size_t n = util::default_thread_count();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 64u);
}

#if defined(__linux__)
TEST(ParallelFor, DefaultThreadCountFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const std::size_t pinned = util::default_thread_count();
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(pinned, 1u);
}
#endif

// ------------------------------------- replication thread-count invariance --

TEST(ParallelReplication, SummaryBitIdenticalAcrossThreadCounts) {
  const auto example = core::make_paper_example();
  const workload::Application& app = example.batch.at(2);
  const sim::SimConfig config;
  const auto serial = sim::simulate_replicated(app, 1, 8, example.cases[2],
                                               dls::TechniqueId::kAF, config, 77, 40,
                                               example.deadline, 1);
  for (std::size_t threads : {2u, 5u, 16u}) {
    const auto parallel = sim::simulate_replicated(app, 1, 8, example.cases[2],
                                                   dls::TechniqueId::kAF, config, 77, 40,
                                                   example.deadline, threads);
    EXPECT_DOUBLE_EQ(parallel.mean_makespan, serial.mean_makespan) << threads;
    EXPECT_DOUBLE_EQ(parallel.median_makespan, serial.median_makespan) << threads;
    EXPECT_DOUBLE_EQ(parallel.deadline_hit_rate, serial.deadline_hit_rate) << threads;
  }
}

TEST(ParallelReplication, CrashFaultStatsBitIdenticalAcrossThreadCounts) {
  const auto example = core::make_paper_example();
  const workload::Application& app = example.batch.at(2);
  sim::SimConfig config;
  sim::SimConfig::Failure crash;
  crash.worker = 3;
  crash.time = 200.0;
  crash.kind = sim::SimConfig::FailureKind::kCrash;
  config.failures.push_back(crash);
  sim::SimConfig::Failure blip;
  blip.worker = 5;
  blip.time = 400.0;
  blip.kind = sim::SimConfig::FailureKind::kCrashRecover;
  blip.recovery_time = 900.0;
  config.failures.push_back(blip);

  const auto serial = sim::simulate_replicated(app, 1, 8, example.cases[2],
                                               dls::TechniqueId::kFAC, config, 91, 40,
                                               example.deadline, 1);
  EXPECT_EQ(serial.faults_total.workers_crashed, 80u);  // 2 per replication
  EXPECT_EQ(serial.faults_total.workers_recovered, 40u);
  for (std::size_t threads : {2u, 5u, 16u}) {
    const auto parallel = sim::simulate_replicated(app, 1, 8, example.cases[2],
                                                   dls::TechniqueId::kFAC, config, 91, 40,
                                                   example.deadline, threads);
    EXPECT_DOUBLE_EQ(parallel.mean_makespan, serial.mean_makespan) << threads;
    EXPECT_DOUBLE_EQ(parallel.median_makespan, serial.median_makespan) << threads;
    EXPECT_EQ(parallel.faults_total.chunks_lost, serial.faults_total.chunks_lost) << threads;
    EXPECT_EQ(parallel.faults_total.iterations_reexecuted,
              serial.faults_total.iterations_reexecuted)
        << threads;
    EXPECT_DOUBLE_EQ(parallel.faults_total.wasted_work, serial.faults_total.wasted_work)
        << threads;
  }
}

TEST(ParallelReplication, ArmListMatchesSingleArmCalls) {
  const auto example = core::make_paper_example();
  sim::SimConfig config;
  sim::SimConfig::Failure blip;
  blip.worker = 1;
  blip.time = 300.0;
  blip.kind = sim::SimConfig::FailureKind::kCrashRecover;
  blip.recovery_time = 800.0;
  config.failures.push_back(blip);
  const std::vector<sim::ReplicatedArm> arms = {
      {&example.batch.at(0), 0, 2, dls::TechniqueId::kFAC, 11},
      {&example.batch.at(2), 1, 8, dls::TechniqueId::kAF, 12},
      {&example.batch.at(1), 0, 2, dls::TechniqueId::kAWF_B, 13}};
  for (std::size_t threads : {1u, 3u}) {
    const std::vector<sim::ReplicationSummary> grid = sim::simulate_replicated(
        arms, example.cases[3], config, 9, example.deadline, threads);
    ASSERT_EQ(grid.size(), arms.size());
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const sim::ReplicatedArm& arm = arms[a];
      EXPECT_EQ(grid[a], sim::simulate_replicated(*arm.application, arm.processor_type,
                                                  arm.processors, example.cases[3],
                                                  arm.technique, config, arm.seed, 9,
                                                  example.deadline, 1))
          << "arm " << a << " threads=" << threads;
    }
  }
  EXPECT_TRUE(sim::simulate_replicated({}, example.cases[3], config, 9, example.deadline, 2)
                  .empty());
  EXPECT_THROW((void)sim::simulate_replicated(arms, example.cases[3], config, 0,
                                              example.deadline, 2),
               std::invalid_argument);
  EXPECT_THROW((void)sim::simulate_replicated({sim::ReplicatedArm{}}, example.cases[3], config,
                                              9, example.deadline, 2),
               std::invalid_argument);
}

// --------------------------------------------------- system makespan PMF --

TEST(SystemMakespanPmf, CdfAtDeadlineEqualsJointProbability) {
  const auto example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          example.deadline);
  for (const ra::Allocation& allocation :
       {core::paper_naive_allocation(), core::paper_robust_allocation()}) {
    const pmf::Pmf psi = evaluator.system_makespan_pmf(allocation);
    EXPECT_NEAR(psi.cdf(example.deadline), evaluator.joint_probability(allocation), 1e-9);
  }
}

TEST(SystemMakespanPmf, DominatesEveryApplication) {
  const auto example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          example.deadline);
  const ra::Allocation robust = core::paper_robust_allocation();
  const pmf::Pmf psi = evaluator.system_makespan_pmf(robust);
  for (std::size_t app = 0; app < 3; ++app) {
    EXPECT_GE(psi.expectation() + 1e-9,
              evaluator.completion_pmf(app, robust.at(app)).expectation());
  }
}

TEST(SystemMakespanPmf, RobustAllocationHasSmallerTailThanNaive) {
  const auto example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          example.deadline);
  const pmf::Pmf robust = evaluator.system_makespan_pmf(core::paper_robust_allocation());
  const pmf::Pmf naive = evaluator.system_makespan_pmf(core::paper_naive_allocation());
  EXPECT_LT(robust.quantile(0.9), naive.quantile(0.9));
  EXPECT_LT(robust.expectation(), naive.expectation());
}

TEST(SystemMakespanPmf, Validation) {
  const auto example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          example.deadline);
  EXPECT_THROW(evaluator.system_makespan_pmf(ra::Allocation({{0, 1}})), std::invalid_argument);
}

}  // namespace
}  // namespace cdsf
