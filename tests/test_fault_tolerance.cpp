// Fault-tolerant Stage II: crash-kind failures, chunk re-dispatch,
// timeout-driven detection in the MPI model, and the rho_2-triggered
// Stage I re-mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "cdsf/framework.hpp"
#include "dls/adaptive.hpp"
#include "ra/heuristics.hpp"
#include "sim/loop_executor.hpp"
#include "sim/master_worker.hpp"
#include "test_support.hpp"

namespace cdsf {
namespace {

constexpr std::int64_t kIterations = 4000;

workload::Application steady_app() {
  return test::simple_app("steady", 0, kIterations, {4000.0});
}

sim::SimConfig crash_config(std::size_t worker, double time,
                            sim::SimConfig::FailureKind kind =
                                sim::SimConfig::FailureKind::kCrash,
                            double recovery = std::numeric_limits<double>::infinity()) {
  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  config.collect_trace = true;
  sim::SimConfig::Failure failure;
  failure.worker = worker;
  failure.time = time;
  failure.kind = kind;
  failure.recovery_time = recovery;
  config.failures.push_back(failure);
  return config;
}

std::int64_t completed_iterations(const sim::RunResult& run) {
  std::int64_t total = 0;
  for (const sim::WorkerStats& worker : run.workers) total += worker.iterations;
  return total;
}

// ------------------------------------------------ idealized executor (crash) --

TEST(FaultTolerance, CrashRunCompletesAllIterationsAcrossTechniques) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  const sim::SimConfig config = crash_config(1, 200.0);
  for (dls::TechniqueId id :
       {dls::TechniqueId::kStatic, dls::TechniqueId::kSS, dls::TechniqueId::kGSS,
        dls::TechniqueId::kTSS, dls::TechniqueId::kFAC, dls::TechniqueId::kAWF_B,
        dls::TechniqueId::kAF}) {
    const sim::RunResult run = sim::simulate_loop(app, 0, 4, full, id, config, 7);
    EXPECT_TRUE(std::isfinite(run.makespan)) << dls::technique_name(id);
    // Every iteration is eventually executed by a surviving worker.
    EXPECT_EQ(completed_iterations(run), kIterations) << dls::technique_name(id);
    EXPECT_EQ(run.faults.workers_crashed, 1u) << dls::technique_name(id);
    EXPECT_EQ(run.faults.workers_recovered, 0u) << dls::technique_name(id);
    // Fault accounting matches the trace exactly.
    std::uint64_t lost_chunks = 0;
    std::int64_t lost_iterations = 0;
    for (const sim::ChunkTraceEntry& entry : run.trace) {
      if (!entry.lost) continue;
      ++lost_chunks;
      lost_iterations += entry.iterations;
      EXPECT_EQ(entry.worker, 1u) << dls::technique_name(id);
    }
    EXPECT_EQ(run.faults.chunks_lost, lost_chunks) << dls::technique_name(id);
    EXPECT_EQ(run.faults.iterations_reexecuted, lost_iterations) << dls::technique_name(id);
    // The worker was mid-chunk at t = 200, so something was lost and redone.
    EXPECT_GE(run.faults.chunks_lost, 1u) << dls::technique_name(id);
    EXPECT_GT(run.faults.wasted_work, 0.0) << dls::technique_name(id);
    // The idealized executor observes the crash event directly.
    EXPECT_DOUBLE_EQ(run.faults.detection_latency_total, 0.0) << dls::technique_name(id);
  }
}

TEST(FaultTolerance, CrashAtTimeZeroNeverDispatchesToTheDeadWorker) {
  const sim::RunResult run =
      sim::simulate_loop(steady_app(), 0, 4, test::full_availability(1),
                         dls::TechniqueId::kFAC, crash_config(1, 0.0), 3);
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_EQ(run.workers[1].iterations, 0);
  EXPECT_EQ(run.workers[1].chunks, 0u);
  EXPECT_EQ(run.faults.chunks_lost, 0u);  // nothing was in flight at t = 0
  EXPECT_DOUBLE_EQ(run.faults.wasted_work, 0.0);
}

TEST(FaultTolerance, CrashRecoverWorkerRejoinsAndContributes) {
  const sim::RunResult run = sim::simulate_loop(
      steady_app(), 0, 4, test::full_availability(1), dls::TechniqueId::kSS,
      crash_config(1, 100.0, sim::SimConfig::FailureKind::kCrashRecover, 300.0), 11);
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_EQ(run.faults.workers_crashed, 1u);
  EXPECT_EQ(run.faults.workers_recovered, 1u);
  // SS still has pending iterations at t = 300, so the rejoined worker
  // completes chunks after its outage.
  EXPECT_GT(run.workers[1].iterations, 0);
}

/// True when some worker's trace shows two copies at once: a copy occupies
/// its worker from dispatch to its end (the crash instant for a lost one).
bool worker_runs_two_copies(const sim::RunResult& run, const sim::SimConfig& config) {
  for (std::size_t w = 0; w < run.workers.size(); ++w) {
    double crash = std::numeric_limits<double>::infinity();
    for (const sim::SimConfig::Failure& failure : config.failures) {
      if (failure.worker == w && failure.kind != sim::SimConfig::FailureKind::kDegrade) {
        crash = failure.time;
      }
    }
    std::vector<std::pair<double, double>> busy;
    for (const sim::ChunkTraceEntry& entry : run.trace) {
      if (entry.worker == w) {
        busy.emplace_back(entry.dispatch_time, entry.lost ? crash : entry.end_time);
      }
    }
    std::sort(busy.begin(), busy.end());
    for (std::size_t i = 1; i < busy.size(); ++i) {
      if (busy[i].first < busy[i - 1].second) return true;
    }
  }
  return false;
}

/// Deterministic unit iterations on full availability.
sim::SimConfig exact_config() {
  sim::SimConfig config;
  config.iteration_cov = 0.0;
  config.scheduling_overhead = 0.0;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  config.collect_trace = true;
  return config;
}

void add_failure(sim::SimConfig& config, std::size_t worker, double time,
                 sim::SimConfig::FailureKind kind,
                 double recovery = std::numeric_limits<double>::infinity()) {
  sim::SimConfig::Failure failure;
  failure.worker = worker;
  failure.time = time;
  failure.kind = kind;
  failure.recovery_time = recovery;
  config.failures.push_back(failure);
}

TEST(FaultTolerance, ChunkHandedOverAtTheCrashInstantIsLost) {
  // SS on 4 workers: at t = 4 the last three iterations go to workers 0-2
  // and worker 3 goes idle. Workers 2 and 3 crash together at t = 4.25.
  // Worker 2's crash event runs first: it returns iteration 18 and wakes
  // worker 3, whose own crash has not been processed yet. The chunk handed
  // over at the crash instant dies with worker 3 (it was scheduled to
  // complete at +infinity, which threw) and worker 2 redoes it after its
  // recovery.
  sim::SimConfig config = exact_config();
  add_failure(config, 2, 4.25, sim::SimConfig::FailureKind::kCrashRecover, 5.0);
  add_failure(config, 3, 4.25, sim::SimConfig::FailureKind::kCrash);
  const sim::RunResult run =
      sim::simulate_loop(test::simple_app("a", 0, 19, {19.0}, 0.0), 0, 4,
                         test::full_availability(1), dls::TechniqueId::kSS, config, 1);
  EXPECT_EQ(completed_iterations(run), 19);
  EXPECT_EQ(run.faults.chunks_lost, 2U);
  EXPECT_EQ(run.workers[3].iterations, 16 / 4);
  EXPECT_FALSE(worker_runs_two_copies(run, config));
}

TEST(FaultTolerance, RecoveredWorkerNeverHostsTwoCopies) {
  // TSS on 5 workers with speculation. Worker 1 crashes for good at t = 2;
  // workers 2 and 4 crash together at t = 2.5 (worker 4 idle) and recover
  // at 3.25 and 2.75. Worker 2's lost chunk was once handed to worker 4 at
  // its crash instant and survived the outage; worker 4's recovery then
  // marked it idle while it was still computing, and a straggler's backup
  // landed on it on top of that chunk.
  sim::SimConfig config = exact_config();
  config.speculation.enabled = true;
  add_failure(config, 2, 2.5, sim::SimConfig::FailureKind::kCrashRecover, 3.25);
  add_failure(config, 1, 2.0, sim::SimConfig::FailureKind::kCrash);
  add_failure(config, 4, 2.5, sim::SimConfig::FailureKind::kCrashRecover, 2.75);
  const sim::RunResult run =
      sim::simulate_loop(test::simple_app("a", 0, 13, {13.0}, 0.0), 0, 5,
                         test::full_availability(1), dls::TechniqueId::kTSS, config, 7);
  EXPECT_EQ(completed_iterations(run), 13);
  EXPECT_FALSE(worker_runs_two_copies(run, config));
}

TEST(FaultTolerance, AllWorkersCrashingThrowsInsteadOfDeadlocking) {
  sim::SimConfig config = crash_config(0, 10.0);
  for (std::size_t w = 1; w < 4; ++w) {
    sim::SimConfig::Failure failure;
    failure.worker = w;
    failure.time = 10.0;
    failure.kind = sim::SimConfig::FailureKind::kCrash;
    config.failures.push_back(failure);
  }
  EXPECT_THROW(sim::simulate_loop(steady_app(), 0, 4, test::full_availability(1),
                                  dls::TechniqueId::kFAC, config, 5),
               std::runtime_error);
}

TEST(FaultTolerance, MasterCrashDuringSerialPhaseThrows) {
  const workload::Application app = test::simple_app("serial-heavy", 400, 400, {800.0});
  EXPECT_THROW(sim::simulate_loop(app, 0, 4, test::full_availability(1),
                                  dls::TechniqueId::kFAC, crash_config(0, 1.0), 5),
               std::runtime_error);
}

TEST(FaultTolerance, DegradeFailureKeepsFaultStatsZero) {
  sim::SimConfig config;
  config.failures.push_back({1, 200.0, 0.02});
  const sim::RunResult run = sim::simulate_loop(steady_app(), 0, 4,
                                                test::full_availability(1),
                                                dls::TechniqueId::kFAC, config, 9);
  EXPECT_EQ(run.faults.workers_crashed, 0u);
  EXPECT_EQ(run.faults.chunks_lost, 0u);
  EXPECT_EQ(run.faults.iterations_reexecuted, 0);
  EXPECT_DOUBLE_EQ(run.faults.wasted_work, 0.0);
}

TEST(FaultTolerance, CrashRunsAreBitReproducible) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  const sim::SimConfig config =
      crash_config(2, 150.0, sim::SimConfig::FailureKind::kCrashRecover, 500.0);
  const sim::RunResult a = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kAF, config, 21);
  const sim::RunResult b = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kAF, config, 21);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_chunks, b.total_chunks);
  EXPECT_EQ(a.faults.chunks_lost, b.faults.chunks_lost);
  EXPECT_EQ(a.faults.iterations_reexecuted, b.faults.iterations_reexecuted);
  EXPECT_DOUBLE_EQ(a.faults.wasted_work, b.faults.wasted_work);
}

// ------------------------------------------------------ duplicate failures --

TEST(FaultTolerance, DuplicateFailuresForOneWorkerAreRejected) {
  sim::SimConfig config;
  config.failures.push_back({1, 100.0, 0.5});
  sim::SimConfig::Failure crash;
  crash.worker = 1;
  crash.time = 300.0;
  crash.kind = sim::SimConfig::FailureKind::kCrash;
  config.failures.push_back(crash);

  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  EXPECT_THROW(sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 1),
               std::invalid_argument);
  EXPECT_THROW(sim::simulate_loop_mixed(app, {0, 0, 0, 0}, full, dls::TechniqueId::kFAC,
                                        config, 1),
               std::invalid_argument);
  EXPECT_THROW(sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kFAC, config,
                                      sim::MessageModel{}, 1),
               std::invalid_argument);
}

// ------------------------------------------------- adaptive-weight hygiene --

TEST(FaultTolerance, LostChunksDoNotPoisonAwfWeights) {
  dls::TechniqueParams params;
  params.workers = 4;
  params.total_iterations = kIterations;
  params.mean_iteration_time = 1.0;
  dls::AdaptiveWeightedFactoring awf(params, dls::AwfVariant::kChunk);  // AWF-C

  const sim::RunResult run =
      sim::simulate_loop(steady_app(), 0, 4, test::full_availability(1), awf,
                         crash_config(1, 10.0), 13);
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_GE(run.faults.chunks_lost, 1u);
  // The crashed worker's first chunk was lost, so it never reported a
  // measurement: its weight must stay at the neutral fallback instead of
  // collapsing toward zero as if it had reported a near-infinite time.
  const std::vector<double> weights = awf.current_weights();
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_GT(weights[1], 0.5);
}

// ------------------------------------------------------- MPI master model --

TEST(FaultTolerance, MpiTimeoutDetectionRedispatchesLostChunk) {
  sim::SimConfig config = crash_config(1, 200.0);
  config.collect_trace = false;
  const sim::MpiRunResult result =
      sim::simulate_loop_mpi(steady_app(), 0, 4, test::full_availability(1),
                             dls::TechniqueId::kFAC, config, sim::MessageModel{}, 17);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_EQ(completed_iterations(result.run), kIterations);
  EXPECT_GE(result.run.faults.chunks_lost, 1u);
  // The master only sees a missing report, so detection takes real time.
  EXPECT_GT(result.run.faults.detection_latency_total, 0.0);
  EXPECT_GT(result.run.faults.max_detection_latency, 0.0);
}

TEST(FaultTolerance, MpiDetectionDisabledThrowsOnStrandedIterations) {
  sim::SimConfig config = crash_config(1, 200.0);
  config.fault_detection.enabled = false;
  EXPECT_THROW(sim::simulate_loop_mpi(steady_app(), 0, 4, test::full_availability(1),
                                      dls::TechniqueId::kFAC, config, sim::MessageModel{}, 17),
               std::runtime_error);
}

TEST(FaultTolerance, MpiRecoveryRevealsTheLossEvenWithoutDetection) {
  sim::SimConfig config =
      crash_config(1, 100.0, sim::SimConfig::FailureKind::kCrashRecover, 400.0);
  config.fault_detection.enabled = false;
  const sim::MpiRunResult result =
      sim::simulate_loop_mpi(steady_app(), 0, 4, test::full_availability(1),
                             dls::TechniqueId::kFAC, config, sim::MessageModel{}, 19);
  EXPECT_EQ(completed_iterations(result.run), kIterations);
  EXPECT_EQ(result.run.faults.workers_recovered, 1u);
  EXPECT_GE(result.run.faults.chunks_lost, 1u);
}

TEST(FaultTolerance, MpiCrashRunsAreBitReproducible) {
  const sim::SimConfig config = crash_config(2, 300.0);
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  const sim::MpiRunResult a = sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kAWF_B,
                                                     config, sim::MessageModel{}, 23);
  const sim::MpiRunResult b = sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kAWF_B,
                                                     config, sim::MessageModel{}, 23);
  EXPECT_DOUBLE_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.faults.chunks_lost, b.run.faults.chunks_lost);
  EXPECT_DOUBLE_EQ(a.run.faults.detection_latency_total, b.run.faults.detection_latency_total);
}

TEST(FaultTolerance, MpiQueuedServiceClearsTheIdleMark) {
  // STATIC on 4 workers under the reliable protocol. Worker 2 is benched
  // (the pool drained) when it crashes at 4; it and worker 3 rejoin
  // together at 4.5. Worker 2's rejoin queued a service but kept its idle
  // mark, so worker 3's rejoin, returning its lost chunk to the pool, woke
  // worker 2 again: the second assignment overwrote the first, whose
  // iteration stranded.
  sim::SimConfig config;
  config.availability_mode = sim::AvailabilityMode::kIidEpoch;
  config.scheduling_overhead = 0.25;
  config.iteration_cov = 0.3;
  config.collect_trace = true;
  add_failure(config, 1, 1.25, sim::SimConfig::FailureKind::kCrashRecover, 2.75);
  add_failure(config, 3, 3.0, sim::SimConfig::FailureKind::kCrashRecover, 4.5);
  add_failure(config, 2, 4.0, sim::SimConfig::FailureKind::kCrashRecover, 4.5);
  const sim::MpiRunResult result = sim::simulate_loop_mpi(
      test::simple_app("a", 1, 12, {12.0}, 0.0), 0, 4, test::full_availability(1),
      dls::TechniqueId::kStatic, config, sim::MessageModel{0.0, 0.0}, 15);
  EXPECT_EQ(completed_iterations(result.run), 12);
  EXPECT_FALSE(worker_runs_two_copies(result.run, config));
}

TEST(FaultTolerance, MpiRejoinDoesNotQueueASecondService) {
  // SS on 6 workers under the reliable protocol; the master serves the six
  // loop-kick requests 0.05 apart. Worker 5 crashes at 1 and recovers at
  // 1.25, before its kick request is served at about 1.27. Its rejoin
  // queued a second service behind the first: the second assignment
  // overwrote the first, whose iteration stranded.
  sim::SimConfig config;
  config.availability_mode = sim::AvailabilityMode::kIidEpoch;
  config.epoch_length = 1.0;
  config.scheduling_overhead = 0.0;
  config.iteration_cov = 0.0;
  config.collect_trace = true;
  add_failure(config, 5, 1.0, sim::SimConfig::FailureKind::kCrashRecover, 1.25);
  add_failure(config, 4, 3.5, sim::SimConfig::FailureKind::kCrashRecover, 5.0);
  config.failures.push_back({1, 5.0, 0.05});
  const sim::MpiRunResult result = sim::simulate_loop_mpi(
      test::simple_app("a", 1, 30, {30.0}, 0.0), 0, 6, test::full_availability(1),
      dls::TechniqueId::kSS, config, sim::MessageModel{0.0, 0.05}, 933061);
  EXPECT_EQ(completed_iterations(result.run), 30);
  EXPECT_FALSE(worker_runs_two_copies(result.run, config));
}

// ------------------------------------------------- rho_2-triggered remap --

struct RemapFixture {
  sysmodel::Platform platform{{{"fast", 8}, {"slow", 8}}};
  sysmodel::AvailabilitySpec reference{"reference",
                                       {pmf::Pmf::delta(1.0), pmf::Pmf::delta(0.9)}};
  sysmodel::AvailabilitySpec realized{"realized",
                                      {pmf::Pmf::delta(0.3), pmf::Pmf::delta(0.9)}};
  workload::Batch batch;
  double deadline = 600.0;

  RemapFixture() { batch.add(test::simple_app("loop", 0, 4096, {2400.0, 3600.0})); }
};

TEST(FaultTolerance, RemapNotTriggeredWithinTheCertificate) {
  const RemapFixture fx;
  const core::Framework framework(fx.batch, fx.platform, fx.reference, fx.deadline);
  const ra::ExhaustiveOptimal heuristic;
  const core::StageOneResult stage_one = framework.run_stage_one(heuristic);
  core::Framework::ExecutionPlan plan;
  plan.allocation = stage_one.allocation;
  plan.phi1 = stage_one.phi1;
  plan.techniques.assign(fx.batch.size(), dls::TechniqueId::kFAC);

  core::Framework::RemapPolicy policy;
  policy.rho2 = 0.10;
  const core::Framework::RemapDecision decision =
      framework.remap_on_availability(plan, fx.reference, heuristic, policy);
  EXPECT_FALSE(decision.triggered);
  EXPECT_NEAR(decision.realized_decrease, 0.0, 1e-12);
  EXPECT_EQ(decision.plan.allocation.at(0), plan.allocation.at(0));
  EXPECT_DOUBLE_EQ(decision.phi1_realized_before, decision.phi1_realized_after);
}

TEST(FaultTolerance, RemapBeyondRho2MeetsDeadlineStrictlyMoreOften) {
  const RemapFixture fx;
  const core::Framework framework(fx.batch, fx.platform, fx.reference, fx.deadline);
  const ra::ExhaustiveOptimal heuristic;
  const core::StageOneResult stage_one = framework.run_stage_one(heuristic);
  core::Framework::ExecutionPlan plan;
  plan.allocation = stage_one.allocation;
  plan.phi1 = stage_one.phi1;
  plan.techniques.assign(fx.batch.size(), dls::TechniqueId::kFAC);

  core::Framework::RemapPolicy policy;
  policy.rho2 = 0.10;
  const core::Framework::RemapDecision decision =
      framework.remap_on_availability(plan, fx.realized, heuristic, policy);
  ASSERT_TRUE(decision.triggered);
  EXPECT_GT(decision.realized_decrease, policy.rho2);
  EXPECT_GT(decision.phi1_realized_after, decision.phi1_realized_before);
  // The re-mapping moved the application off the degraded type.
  EXPECT_NE(decision.plan.allocation.at(0).processor_type,
            plan.allocation.at(0).processor_type);

  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  std::size_t hits_original = 0;
  std::size_t hits_remapped = 0;
  constexpr std::size_t kSeeds = 30;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    if (framework.execute_plan(plan, fx.realized, config, seed).system_makespan <=
        fx.deadline) {
      ++hits_original;
    }
    if (framework.execute_plan(decision.plan, fx.realized, config, seed).system_makespan <=
        fx.deadline) {
      ++hits_remapped;
    }
  }
  EXPECT_GT(hits_remapped, hits_original);
  EXPECT_EQ(hits_remapped, kSeeds);  // 500 vs 600: the remapped plan always meets it
}

}  // namespace
}  // namespace cdsf
