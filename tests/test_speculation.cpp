// Straggler-tolerant Stage II: speculative chunk re-execution, the
// deadline-risk monitor, stale-probe hygiene in the MPI master, and the
// Gantt glyphs for backup / cancelled copies.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/gantt.hpp"
#include "sim/loop_executor.hpp"
#include "sim/master_worker.hpp"
#include "test_support.hpp"

namespace cdsf {
namespace {

constexpr std::int64_t kIterations = 2000;

workload::Application steady_app() {
  return test::simple_app("steady", 0, kIterations, {static_cast<double>(kIterations)});
}

/// Crash-free degraded worker: availability drops to `residual` at `time`
/// and never trips the crash detector — the scenario speculation exists for.
sim::SimConfig degrade_config(std::size_t worker, double time, double residual) {
  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  config.collect_trace = true;
  config.failures.push_back({worker, time, residual});
  return config;
}

std::int64_t completed_iterations(const sim::RunResult& run) {
  std::int64_t total = 0;
  for (const sim::WorkerStats& worker : run.workers) total += worker.iterations;
  return total;
}

/// Exactly-once: the winning trace entries (not lost, not cancelled) must
/// tile [0, parallel) with no overlap and no hole — duplicate iterations
/// are never double-recorded, no matter how many copies ran.
void expect_exactly_once(const sim::RunResult& run, std::int64_t parallel) {
  std::vector<char> covered(static_cast<std::size_t>(parallel), 0);
  for (const sim::ChunkTraceEntry& entry : run.trace) {
    if (entry.lost || entry.cancelled) continue;
    ASSERT_GE(entry.first, 0);
    ASSERT_LE(entry.first + entry.iterations, parallel);
    for (std::int64_t i = entry.first; i < entry.first + entry.iterations; ++i) {
      EXPECT_FALSE(covered[static_cast<std::size_t>(i)]) << "iteration " << i << " twice";
      covered[static_cast<std::size_t>(i)] = 1;
    }
  }
  for (std::int64_t i = 0; i < parallel; ++i) {
    EXPECT_TRUE(covered[static_cast<std::size_t>(i)]) << "iteration " << i << " never ran";
  }
}

void expect_speculation_identity(const sim::SpeculationStats& spec,
                                 const sim::RunResult& run) {
  EXPECT_EQ(spec.backups_launched,
            spec.backups_won + spec.backups_cancelled + spec.backups_lost);
  EXPECT_LE(spec.backups_launched, spec.stragglers_flagged);
  std::uint64_t backup_entries = 0;
  for (const sim::ChunkTraceEntry& entry : run.trace) {
    if (entry.speculative) ++backup_entries;
  }
  EXPECT_EQ(spec.backups_launched, backup_entries);
}

// --------------------------------------------- idealized executor rescue --

TEST(Speculation, RescuesDegradedStragglerAcrossSeeds) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  // Degrade early: the straggler's primary copy limps for most of the run,
  // so a backup launched once the pool drains has room to overtake it.
  sim::SimConfig baseline = degrade_config(1, 50.0, 0.2);
  sim::SimConfig speculative = baseline;
  speculative.speculation.enabled = true;
  speculative.speculation.quantile = 2.0;

  for (dls::TechniqueId id : {dls::TechniqueId::kGSS, dls::TechniqueId::kFAC}) {
    double sum_base = 0.0;
    double sum_spec = 0.0;
    std::uint64_t rescues = 0;
    constexpr std::uint64_t kSeeds = 10;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const sim::RunResult base = sim::simulate_loop(app, 0, 4, full, id, baseline, seed);
      const sim::RunResult spec = sim::simulate_loop(app, 0, 4, full, id, speculative, seed);
      // Zero double-recorded iterations, with or without backups in play.
      EXPECT_EQ(completed_iterations(base), kIterations) << dls::technique_name(id);
      EXPECT_EQ(completed_iterations(spec), kIterations) << dls::technique_name(id);
      expect_exactly_once(spec, kIterations);
      expect_speculation_identity(spec.speculation, spec);
      // A crash-free degradation never touches the crash machinery.
      EXPECT_EQ(spec.faults.workers_crashed, 0u);
      EXPECT_EQ(spec.faults.chunks_lost, 0u);
      sum_base += base.makespan;
      sum_spec += spec.makespan;
      rescues += spec.speculation.backups_won;
    }
    // Under identical seeds, speculation strictly reduces the mean makespan
    // vs the re-dispatch-only baseline (which cannot help: nothing crashed).
    EXPECT_LT(sum_spec / kSeeds, sum_base / kSeeds) << dls::technique_name(id);
    EXPECT_GE(rescues, 1u) << dls::technique_name(id);
  }
}

TEST(Speculation, CancelledLoserChargesCancelledWorkNotFaults) {
  sim::SimConfig config = degrade_config(1, 50.0, 0.2);
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  const sim::RunResult run = sim::simulate_loop(steady_app(), 0, 4,
                                                test::full_availability(1),
                                                dls::TechniqueId::kGSS, config, 1);
  ASSERT_GE(run.speculation.backups_won, 1u);
  // The rescued primary was cancelled: its sunk work is the price of
  // speculation, accounted separately from crash waste.
  EXPECT_GE(run.speculation.primaries_cancelled, 1u);
  EXPECT_GT(run.speculation.cancelled_work, 0.0);
  EXPECT_DOUBLE_EQ(run.faults.wasted_work, 0.0);
  // Cancelled copies are visible in the trace for the gantt/obs layers.
  bool saw_cancelled = false;
  for (const sim::ChunkTraceEntry& entry : run.trace) {
    saw_cancelled = saw_cancelled || entry.cancelled;
  }
  EXPECT_TRUE(saw_cancelled);
}

TEST(Speculation, EnabledButNeverTriggeredIsBitIdenticalToDisabled) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig off = degrade_config(1, 250.0, 0.2);
  sim::SimConfig idle = off;
  idle.speculation.enabled = true;
  idle.speculation.quantile = 1e9;  // threshold beyond any chunk's lifetime
  const sim::RunResult a = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, off, 5);
  const sim::RunResult b = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, idle, 5);
  EXPECT_EQ(b.speculation.backups_launched, 0u);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_chunks, b.total_chunks);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trace[i].end_time, b.trace[i].end_time);
  }
}

TEST(Speculation, RunsAreBitReproducible) {
  sim::SimConfig config = degrade_config(2, 200.0, 0.15);
  config.speculation.enabled = true;
  config.speculation.quantile = 1.5;
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  const sim::RunResult a = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kAF, config, 21);
  const sim::RunResult b = sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kAF, config, 21);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.speculation.backups_launched, b.speculation.backups_launched);
  EXPECT_EQ(a.speculation.backups_won, b.speculation.backups_won);
  EXPECT_DOUBLE_EQ(a.speculation.cancelled_work, b.speculation.cancelled_work);
}

TEST(Speculation, ReplicatedSummaryIsThreadCountInvariant) {
  sim::SimConfig config = degrade_config(1, 250.0, 0.2);
  config.collect_trace = false;
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  const sim::ReplicationSummary one = sim::simulate_replicated(
      app, 0, 4, full, dls::TechniqueId::kFAC, config, 17, 8, 900.0, 1);
  const sim::ReplicationSummary eight = sim::simulate_replicated(
      app, 0, 4, full, dls::TechniqueId::kFAC, config, 17, 8, 900.0, 8);
  EXPECT_DOUBLE_EQ(one.mean_makespan, eight.mean_makespan);
  EXPECT_DOUBLE_EQ(one.stddev_makespan, eight.stddev_makespan);
  EXPECT_EQ(one.speculation_total.stragglers_flagged,
            eight.speculation_total.stragglers_flagged);
  EXPECT_EQ(one.speculation_total.backups_won, eight.speculation_total.backups_won);
  EXPECT_DOUBLE_EQ(one.speculation_total.cancelled_work,
                   eight.speculation_total.cancelled_work);
}

// ----------------------------------------------------- deadline-risk monitor --

TEST(Speculation, DeadlineRiskMonitorEscalatesUnderAnImpossibleDeadline) {
  sim::SimConfig config = degrade_config(1, 100.0, 0.1);
  config.speculation.enabled = true;
  config.speculation.quantile = 3.0;
  config.deadline_risk.enabled = true;
  config.deadline_risk.deadline = 300.0;  // realistic makespan is far higher
  config.deadline_risk.check_interval = 50.0;
  config.deadline_risk.risk_floor = 0.9;
  const sim::RunResult run = sim::simulate_loop(steady_app(), 0, 4,
                                                test::full_availability(1),
                                                dls::TechniqueId::kFAC, config, 9);
  EXPECT_TRUE(std::isfinite(run.makespan));
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_GE(run.speculation.risk_escalations, 1u);
  bool saw_escalation_event = false;
  for (const sim::LifecycleEvent& event : run.events) {
    saw_escalation_event =
        saw_escalation_event || event.kind == obs::FlightEventKind::kRiskEscalated;
  }
  EXPECT_TRUE(saw_escalation_event);
  expect_exactly_once(run, kIterations);
}

TEST(Speculation, DeadlineRiskWithoutSpeculationIsRejected) {
  sim::SimConfig config;
  config.deadline_risk.enabled = true;
  config.deadline_risk.deadline = 100.0;
  EXPECT_THROW(sim::simulate_loop(steady_app(), 0, 4, test::full_availability(1),
                                  dls::TechniqueId::kFAC, config, 1),
               std::invalid_argument);
}

TEST(Speculation, KnobsOutOfDomainAreRejected) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config;
  config.speculation.enabled = true;
  config.speculation.quantile = 0.0;
  EXPECT_THROW(sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 1),
               std::invalid_argument);
  config = sim::SimConfig{};
  config.speculation.min_quantile = 5.0;  // above quantile
  EXPECT_THROW(sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 1),
               std::invalid_argument);
}

// ------------------------------------------------------------- MPI executor --

TEST(Speculation, MpiRescuesDegradedStragglerAcrossSeeds) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig baseline = degrade_config(1, 50.0, 0.2);
  sim::SimConfig speculative = baseline;
  speculative.speculation.enabled = true;
  speculative.speculation.quantile = 2.0;

  double sum_base = 0.0;
  double sum_spec = 0.0;
  std::uint64_t rescues = 0;
  constexpr std::uint64_t kSeeds = 10;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const sim::MpiRunResult base = sim::simulate_loop_mpi(
        app, 0, 4, full, dls::TechniqueId::kGSS, baseline, sim::MessageModel{}, seed);
    const sim::MpiRunResult spec = sim::simulate_loop_mpi(
        app, 0, 4, full, dls::TechniqueId::kGSS, speculative, sim::MessageModel{}, seed);
    EXPECT_EQ(completed_iterations(base.run), kIterations);
    EXPECT_EQ(completed_iterations(spec.run), kIterations);
    expect_exactly_once(spec.run, kIterations);
    expect_speculation_identity(spec.run.speculation, spec.run);
    sum_base += base.run.makespan;
    sum_spec += spec.run.makespan;
    rescues += spec.run.speculation.backups_won;
  }
  EXPECT_LT(sum_spec / kSeeds, sum_base / kSeeds);
  EXPECT_GE(rescues, 1u);
}

TEST(Speculation, MpiRunsAreBitReproducible) {
  sim::SimConfig config = degrade_config(1, 250.0, 0.2);
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  const sim::MpiRunResult a = sim::simulate_loop_mpi(
      app, 0, 4, full, dls::TechniqueId::kGSS, config, sim::MessageModel{}, 23);
  const sim::MpiRunResult b = sim::simulate_loop_mpi(
      app, 0, 4, full, dls::TechniqueId::kGSS, config, sim::MessageModel{}, 23);
  EXPECT_DOUBLE_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.speculation.backups_launched, b.run.speculation.backups_launched);
  EXPECT_EQ(a.run.speculation.backups_won, b.run.speculation.backups_won);
}

// Regression: aggressive timeouts make the master suspect ALIVE workers.
// The probe guard must treat probes for an already-resolved assignment as
// stale no-ops, late reports must reinstate the worker, and the reclaimed
// (falsely-suspected) copy's trace entry must drop out of the delivered
// set — exactly-once coverage holds even when detection misfires.
TEST(Speculation, MpiStaleProbesAndFalseSuspicionsKeepExactlyOnce) {
  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  config.collect_trace = true;
  sim::SimConfig::Failure crash;
  crash.worker = 3;
  crash.time = 300.0;
  crash.kind = sim::SimConfig::FailureKind::kCrash;
  config.failures.push_back(crash);
  // Timeouts far below the true chunk round trip: healthy workers get
  // probed and declared dead long before their reports arrive.
  config.fault_detection.timeout_factor = 0.05;
  config.fault_detection.min_timeout = 0.1;
  config.fault_detection.backoff = 1.5;
  config.fault_detection.max_probes = 2;

  const sim::MpiRunResult result = sim::simulate_loop_mpi(
      steady_app(), 0, 4, test::full_availability(1), dls::TechniqueId::kFAC, config,
      sim::MessageModel{}, 31);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_EQ(completed_iterations(result.run), kIterations);
  EXPECT_GE(result.run.faults.false_suspicions, 1u);
  expect_exactly_once(result.run, kIterations);
  bool reinstated = false;
  for (const sim::LifecycleEvent& event : result.run.events) {
    reinstated =
        reinstated || event.kind == obs::FlightEventKind::kWorkerReinstated;
  }
  EXPECT_TRUE(reinstated);

  const sim::MpiRunResult again = sim::simulate_loop_mpi(
      steady_app(), 0, 4, test::full_availability(1), dls::TechniqueId::kFAC, config,
      sim::MessageModel{}, 31);
  EXPECT_DOUBLE_EQ(result.run.makespan, again.run.makespan);
  EXPECT_EQ(result.run.faults.false_suspicions, again.run.faults.false_suspicions);
}

// ---------------------------------------------------------------- gantt --

TEST(Speculation, GanttRendersDistinctGlyphsForBackupAndCancelledCopies) {
  sim::RunResult result;
  result.makespan = 100.0;
  result.serial_end = 0.0;
  result.workers.resize(4);
  // Primary on worker 0 cancelled at t=60 after the backup on worker 1 won.
  result.trace.push_back({0, 50, 0.0, 1.0, 60.0, false, 0, false, true});
  result.trace.push_back({1, 50, 30.0, 31.0, 60.0, false, 0, true, false});
  // Ordinary chunk on worker 2; lost chunk on worker 3.
  result.trace.push_back({2, 50, 0.0, 1.0, 90.0, false, 50, false, false});
  result.trace.push_back({3, 50, 0.0, 1.0, 100.0, true, 100, false, false});

  const std::string gantt = sim::render_gantt(result, sim::GanttOptions{});
  EXPECT_NE(gantt.find('~'), std::string::npos);  // backup fill
  EXPECT_NE(gantt.find('<'), std::string::npos);  // backup boundary
  EXPECT_NE(gantt.find('-'), std::string::npos);  // cancelled fill
  EXPECT_NE(gantt.find('/'), std::string::npos);  // cancelled boundary
  EXPECT_NE(gantt.find('x'), std::string::npos);  // lost fill
  EXPECT_NE(gantt.find("speculative backup"), std::string::npos);
  EXPECT_NE(gantt.find("cancelled after the other copy"), std::string::npos);
}

TEST(Speculation, GanttOmitsSpeculationLegendWhenNothingSpeculated) {
  sim::RunResult result;
  result.makespan = 10.0;
  result.workers.resize(1);
  result.trace.push_back({0, 10, 0.0, 1.0, 10.0, false, 0, false, false});
  const std::string gantt = sim::render_gantt(result, sim::GanttOptions{});
  EXPECT_EQ(gantt.find("speculative backup"), std::string::npos);
  EXPECT_EQ(gantt.find("cancelled after"), std::string::npos);
}

}  // namespace
}  // namespace cdsf
