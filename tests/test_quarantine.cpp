// Gray-failure containment: fail-slow EWMA quarantine and canary
// reinstatement, audit-based result validation against silently-corrupt
// workers, and payload-integrity hardening on the unreliable channel.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/loop_executor.hpp"
#include "sim/master_worker.hpp"
#include "test_support.hpp"

namespace cdsf {
namespace {

constexpr std::int64_t kIterations = 4000;

workload::Application steady_app() {
  return test::simple_app("steady", 0, kIterations, {4000.0});
}

sim::SimConfig gray_config() {
  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  config.collect_trace = true;
  return config;
}

void add_failure(sim::SimConfig& config, std::size_t worker, double time,
                 sim::SimConfig::FailureKind kind, double residual = 0.1) {
  sim::SimConfig::Failure failure;
  failure.worker = worker;
  failure.time = time;
  failure.kind = kind;
  failure.residual_availability = residual;
  config.failures.push_back(failure);
}

std::int64_t completed_iterations(const sim::RunResult& run) {
  std::int64_t total = 0;
  for (const sim::WorkerStats& worker : run.workers) total += worker.iterations;
  return total;
}

/// The bookkeeping identities every completed run must satisfy (the chaos
/// harness checks the same set over randomized schedules).
void expect_identities(const sim::QuarantineStats& q) {
  EXPECT_EQ(q.quarantines, q.fail_slow_trips + q.audit_trips);
  EXPECT_LE(q.reinstatements, q.quarantines);
  EXPECT_LE(q.probes_healthy, q.probes_launched);
  EXPECT_EQ(q.audits_launched, q.audits_matched + q.audit_mismatches + q.audits_abandoned);
}

/// Per-worker quarantine windows reconstructed from lifecycle events
/// (an unclosed window extends to infinity).
std::vector<std::vector<std::pair<double, double>>> quarantine_windows(
    const sim::RunResult& run) {
  std::vector<std::vector<std::pair<double, double>>> windows(run.workers.size());
  std::vector<double> open(run.workers.size(), -1.0);
  for (const sim::LifecycleEvent& event : run.events) {
    if (event.worker >= run.workers.size()) continue;
    if (event.kind == obs::FlightEventKind::kWorkerQuarantined) {
      open[event.worker] = event.time;
    } else if (event.kind == obs::FlightEventKind::kWorkerRestored &&
               open[event.worker] >= 0.0) {
      windows[event.worker].emplace_back(open[event.worker], event.time);
      open[event.worker] = -1.0;
    }
  }
  for (std::size_t w = 0; w < open.size(); ++w) {
    if (open[w] >= 0.0) {
      windows[w].emplace_back(open[w], std::numeric_limits<double>::infinity());
    }
  }
  return windows;
}

// --------------------------------------------------- fail-slow quarantine --

TEST(Quarantine, FailSlowWorkerIsQuarantinedAndDrained) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  add_failure(config, 2, 200.0, sim::SimConfig::FailureKind::kDegrade, 0.1);
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;

  const sim::RunResult run =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 11);
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_GE(run.quarantine.fail_slow_trips, 1u);
  EXPECT_GT(run.quarantine.quarantined_time, 0.0);
  expect_identities(run.quarantine);

  // The quarantine event lands on the degraded worker, value 0 = fail-slow.
  bool quarantined_degraded = false;
  for (const sim::LifecycleEvent& event : run.events) {
    if (event.kind == obs::FlightEventKind::kWorkerQuarantined && event.worker == 2) {
      quarantined_degraded = true;
      EXPECT_EQ(event.value, 0);
    }
  }
  EXPECT_TRUE(quarantined_degraded);

  // Drained: no non-probe chunk is dispatched strictly inside a window.
  const auto windows = quarantine_windows(run);
  for (const sim::ChunkTraceEntry& chunk : run.trace) {
    if (chunk.probe) continue;
    for (const auto& [from, to] : windows.at(chunk.worker)) {
      EXPECT_FALSE(chunk.dispatch_time > from && chunk.dispatch_time < to)
          << "worker " << chunk.worker << " assigned at " << chunk.dispatch_time
          << " inside quarantine [" << from << ", " << to << ")";
    }
  }
}

TEST(Quarantine, MpiExecutorQuarantinesFailSlowWorkerToo) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  add_failure(config, 2, 200.0, sim::SimConfig::FailureKind::kDegrade, 0.1);
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;

  const sim::RunResult run = sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kFAC,
                                                    config, sim::MessageModel{}, 11)
                                 .run;
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_GE(run.quarantine.fail_slow_trips, 1u);
  expect_identities(run.quarantine);
}

TEST(Quarantine, CanaryProbesReinstateARecoveredWorker) {
  // A threshold barely above the healthy slowdown makes ordinary noise trip
  // the tracker; the canaries then read healthy and reinstate. Fixed seeds
  // keep the sweep deterministic; at least one run must round-trip
  // quarantine -> probe -> reinstatement.
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  std::uint64_t reinstated_runs = 0;
  std::uint64_t probed_runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::SimConfig config = gray_config();
    config.quarantine.enabled = true;
    config.quarantine.ewma_alpha = 0.9;
    config.quarantine.min_observations = 1;
    config.quarantine.slowdown_threshold = 1.02;
    config.quarantine.probe_interval = 20.0;
    config.quarantine.probe_successes = 1;
    const sim::RunResult run =
        sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kSS, config, seed);
    EXPECT_EQ(completed_iterations(run), kIterations);
    expect_identities(run.quarantine);
    if (run.quarantine.probes_launched > 0) ++probed_runs;
    if (run.quarantine.reinstatements > 0) ++reinstated_runs;
  }
  EXPECT_GE(probed_runs, 1u);
  EXPECT_GE(reinstated_runs, 1u);
}

// ------------------------------------------------ audit-based validation --

TEST(Quarantine, AuditCatchesSilentlyCorruptWorker) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  add_failure(config, 1, 100.0, sim::SimConfig::FailureKind::kSilentCorrupt);
  config.quarantine.audit_rate = 1.0;
  config.quarantine.audit_mismatch_limit = 1;

  const sim::RunResult run =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 5);
  // Silently wrong results are well-formed, so the loop still completes —
  // the audit layer's job is detection and containment, not re-execution.
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_GE(run.quarantine.corrupt_chunks_recorded, 1u);
  EXPECT_GE(run.quarantine.audit_mismatches, 1u);
  EXPECT_GE(run.quarantine.audit_trips, 1u);
  EXPECT_EQ(run.quarantine.fail_slow_trips, 0u);  // EWMA tracker is off
  expect_identities(run.quarantine);

  // The audit-triggered quarantine event names the corrupt origin, value 1.
  bool audit_quarantine = false;
  for (const sim::LifecycleEvent& event : run.events) {
    if (event.kind == obs::FlightEventKind::kWorkerQuarantined && event.worker == 1) {
      audit_quarantine = true;
      EXPECT_EQ(event.value, 1);
    }
  }
  EXPECT_TRUE(audit_quarantine);
}

TEST(Quarantine, AuditsOnHealthyWorkersAllMatch) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  config.quarantine.audit_rate = 0.5;

  const sim::RunResult run =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 9);
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_GE(run.quarantine.audits_launched, 1u);
  EXPECT_EQ(run.quarantine.audit_mismatches, 0u);
  EXPECT_EQ(run.quarantine.quarantines, 0u);
  expect_identities(run.quarantine);
  // Audit replicas are a side channel: they never add to delivered work.
  std::uint64_t audit_entries = 0;
  for (const sim::ChunkTraceEntry& chunk : run.trace) {
    if (chunk.audit) ++audit_entries;
  }
  EXPECT_EQ(audit_entries, run.quarantine.audits_launched);
}

// ----------------------------------------------------- structural disarm --

TEST(Quarantine, DisarmedConfigKeepsEveryGrayCounterZero) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  add_failure(config, 2, 200.0, sim::SimConfig::FailureKind::kDegrade, 0.1);

  for (bool mpi : {false, true}) {
    const sim::RunResult run =
        mpi ? sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kFAC, config,
                                     sim::MessageModel{}, 11)
                  .run
            : sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, config, 11);
    EXPECT_FALSE(run.quarantine.active()) << (mpi ? "mpi" : "ideal");
    EXPECT_EQ(run.quarantine.quarantined_time, 0.0);
    for (const sim::LifecycleEvent& event : run.events) {
      EXPECT_NE(event.kind, obs::FlightEventKind::kWorkerQuarantined);
      EXPECT_NE(event.kind, obs::FlightEventKind::kCanaryProbe);
      EXPECT_NE(event.kind, obs::FlightEventKind::kAuditLaunched);
    }
    for (const sim::ChunkTraceEntry& chunk : run.trace) {
      EXPECT_FALSE(chunk.audit);
      EXPECT_FALSE(chunk.probe);
    }
  }
}

TEST(Quarantine, ReplicatedSummaryIsThreadCountInvariant) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  config.collect_trace = false;
  add_failure(config, 2, 200.0, sim::SimConfig::FailureKind::kDegrade, 0.1);
  add_failure(config, 1, 100.0, sim::SimConfig::FailureKind::kSilentCorrupt);
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;
  config.quarantine.audit_rate = 0.3;

  const sim::ReplicationSummary one =
      sim::simulate_replicated(app, 0, 4, full, dls::TechniqueId::kFAC, config, 17, 6, 1e18, 1);
  const sim::ReplicationSummary four =
      sim::simulate_replicated(app, 0, 4, full, dls::TechniqueId::kFAC, config, 17, 6, 1e18, 4);
  EXPECT_EQ(one.mean_makespan, four.mean_makespan);
  EXPECT_EQ(one.quarantine_total.quarantines, four.quarantine_total.quarantines);
  EXPECT_EQ(one.quarantine_total.audits_launched, four.quarantine_total.audits_launched);
  EXPECT_EQ(one.quarantine_total.audit_mismatches, four.quarantine_total.audit_mismatches);
  EXPECT_EQ(one.quarantine_total.quarantined_time, four.quarantine_total.quarantined_time);
  EXPECT_GE(one.quarantine_total.audits_launched, 1u);
}

// ------------------------------------------------------ payload integrity --

TEST(Integrity, CorruptedMessagesAreDiscardedAndRecovered) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  config.channel.corrupt_to_worker = 0.02;
  config.channel.corrupt_to_master = 0.02;

  const sim::RunResult run = sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kFAC,
                                                    config, sim::MessageModel{}, 3)
                                 .run;
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_GE(run.channel.corrupted, 1u);
  // Checksum detection is assumed perfect: every corrupted copy is
  // discarded, none is ever processed.
  EXPECT_EQ(run.channel.corrupted, run.channel.corrupt_discarded);
  std::uint64_t corrupt_events = 0;
  for (const sim::LifecycleEvent& event : run.events) {
    if (event.kind == obs::FlightEventKind::kMessageCorrupted) ++corrupt_events;
  }
  EXPECT_EQ(corrupt_events, run.channel.corrupted);
}

TEST(Integrity, ForceCorruptHooksAreDeterministic) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  config.channel.force_corrupt_to_master = 3;

  const sim::RunResult run = sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kFAC,
                                                    config, sim::MessageModel{}, 3)
                                 .run;
  EXPECT_EQ(completed_iterations(run), kIterations);
  EXPECT_EQ(run.channel.corrupted, 3u);
  EXPECT_EQ(run.channel.corrupt_discarded, 3u);
}

TEST(Integrity, CorruptionWithoutRetransmissionStrandsTheLoop) {
  // The naive-arm failure mode from bench_failure_ablation --corrupt: a
  // discarded copy is never resent, so workers are attrited until the run
  // cannot finish.
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  config.collect_trace = false;
  config.channel.corrupt_to_worker = 0.05;
  config.channel.corrupt_to_master = 0.05;
  config.channel.max_retransmits = 0;
  EXPECT_THROW(sim::simulate_loop_mpi(app, 0, 4, full, dls::TechniqueId::kSS, config,
                                      sim::MessageModel{}, 3),
               std::runtime_error);
}

// ------------------------------------------------ EWMA blind-spot anchor --

TEST(Quarantine, SingleCrawlingChunkIsBelowEwmaRadarButSpeculationCoversIt) {
  // Regression anchor for a documented blind spot (docs/fault_tolerance.md):
  // the fail-slow EWMA only updates on ACCEPTED chunks, so a worker that
  // starts crawling on its very first chunk never delivers the
  // min_observations the detector needs — quarantine structurally cannot
  // trip on a single crawling chunk. The covering layer is speculation: the
  // straggler threshold fires on the IN-FLIGHT chunk, a backup rescues it,
  // and the deadline is met anyway. If a refactor ever makes quarantine
  // trip here (or speculation stop covering), this test must be revisited
  // along with the doc.
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);

  sim::SimConfig healthy = gray_config();
  const double healthy_makespan =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, healthy, 11).makespan;
  const double deadline = 2.0 * healthy_makespan;

  sim::SimConfig blind = gray_config();
  add_failure(blind, 2, 1.0, sim::SimConfig::FailureKind::kDegrade, 0.02);
  blind.quarantine.enabled = true;  // defaults: min_observations = 3
  const sim::RunResult crawling =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, blind, 11);
  EXPECT_EQ(completed_iterations(crawling), kIterations);
  // The blind spot: one crawling chunk, zero accepted observations from
  // that worker before it, no quarantine — and the deadline blown.
  EXPECT_EQ(crawling.quarantine.fail_slow_trips, 0u);
  EXPECT_GT(crawling.makespan, deadline);

  sim::SimConfig covered = blind;
  covered.speculation.enabled = true;
  covered.speculation.quantile = 2.0;
  const sim::RunResult rescued =
      sim::simulate_loop(app, 0, 4, full, dls::TechniqueId::kFAC, covered, 11);
  EXPECT_EQ(completed_iterations(rescued), kIterations);
  EXPECT_EQ(rescued.quarantine.fail_slow_trips, 0u);  // still below the radar
  EXPECT_GE(rescued.speculation.backups_won, 1u);     // but the backup won
  EXPECT_LE(rescued.makespan, deadline);              // and the deadline held
}

TEST(Integrity, MpiReplicatedSummaryIsThreadCountInvariant) {
  const workload::Application app = steady_app();
  const sysmodel::AvailabilitySpec full = test::full_availability(1);
  sim::SimConfig config = gray_config();
  config.collect_trace = false;
  config.channel.corrupt_to_worker = 0.01;
  config.channel.corrupt_to_master = 0.01;
  config.quarantine.enabled = true;
  config.quarantine.audit_rate = 0.2;

  const sim::ReplicationSummary one = sim::simulate_replicated_mpi(
      app, 0, 4, full, dls::TechniqueId::kFAC, config, sim::MessageModel{}, 23, 4, 1e18, 1);
  const sim::ReplicationSummary four = sim::simulate_replicated_mpi(
      app, 0, 4, full, dls::TechniqueId::kFAC, config, sim::MessageModel{}, 23, 4, 1e18, 4);
  EXPECT_EQ(one.mean_makespan, four.mean_makespan);
  EXPECT_EQ(one.channel_total.corrupted, four.channel_total.corrupted);
  EXPECT_EQ(one.channel_total.corrupt_discarded, four.channel_total.corrupt_discarded);
  EXPECT_EQ(one.quarantine_total.audits_launched, four.quarantine_total.audits_launched);
  EXPECT_GE(one.channel_total.corrupted, 1u);
}

}  // namespace
}  // namespace cdsf
