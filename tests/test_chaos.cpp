// Chaos campaign harness: randomized fault-schedule fuzzing with hard
// invariants, campaign determinism, the JSON campaign report, and the
// epoch-boundary regression the first campaign uncovered.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/report.hpp"
#include "pmf/pmf.hpp"
#include "sim/chaos.hpp"
#include "sysmodel/availability.hpp"

namespace cdsf {
namespace {

sim::ChaosConfig smoke_config() {
  sim::ChaosConfig config;
  config.schedules = 10;
  config.seed = 2026;
  config.replications = 2;
  config.thread_counts = {1, 4};
  return config;
}

TEST(Chaos, SmokeCampaignPassesEveryInvariant) {
  const sim::ChaosReport report = sim::run_chaos_campaign(smoke_config());
  EXPECT_TRUE(report.passed());
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.schedules_run, 10u);
  // At least ideal + mpi + 2 replications x 2 thread counts per schedule;
  // hardened schedules add MPI-replicated determinism runs on top.
  EXPECT_GE(report.runs_executed, 10u * (1 + 1 + 2 * 2));
  EXPECT_GE(report.failures_injected, 10u);
  // Up to max_failures base draws plus a dedicated fail-slow and a
  // silent-corrupt worker per schedule (the gray axes).
  EXPECT_LE(report.failures_injected, 50u);
  EXPECT_TRUE(std::isfinite(report.max_makespan));
  EXPECT_GT(report.max_makespan, 0.0);
  // The channel / master-restart axes are on by default; in a 10-schedule
  // smoke at least one schedule should draw each.
  EXPECT_GE(report.schedules_with_channel_faults, 1u);
  EXPECT_GE(report.schedules_with_master_restart, 1u);
  EXPECT_GT(report.channel_total.messages_sent, 0u);
  EXPECT_GE(report.channel_total.drops, report.channel_total.burst_drops);
  EXPECT_GT(report.checkpoint_total.wal_records, 0u);
  EXPECT_EQ(report.checkpoint_total.master_restarts,
            report.schedules_with_master_restart);
  // The gray axes are on by default too.
  EXPECT_GE(report.schedules_with_quarantine, 1u);
  EXPECT_GE(report.schedules_with_corruption, 1u);
}

TEST(Chaos, DisablingGrayAxesProducesGrayFreeRuns) {
  sim::ChaosConfig config = smoke_config();
  config.fail_slow = false;
  config.corruption = false;
  const sim::ChaosReport report = sim::run_chaos_campaign(config);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.schedules_with_quarantine, 0u);
  EXPECT_EQ(report.schedules_with_corruption, 0u);
  EXPECT_EQ(report.quarantine_total.quarantines, 0u);
  EXPECT_EQ(report.quarantine_total.probes_launched, 0u);
  EXPECT_EQ(report.quarantine_total.audits_launched, 0u);
  EXPECT_EQ(report.quarantine_total.corrupt_chunks_recorded, 0u);
  EXPECT_EQ(report.channel_total.corrupted, 0u);
  EXPECT_EQ(report.channel_total.corrupt_discarded, 0u);
}

TEST(Chaos, DisablingChannelAxesProducesCleanRuns) {
  sim::ChaosConfig config = smoke_config();
  config.channel_faults = false;
  config.master_restart = false;
  const sim::ChaosReport report = sim::run_chaos_campaign(config);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.schedules_with_channel_faults, 0u);
  EXPECT_EQ(report.schedules_with_master_restart, 0u);
  EXPECT_EQ(report.channel_total.messages_sent, 0u);
  EXPECT_EQ(report.checkpoint_total.master_restarts, 0u);
}

TEST(Chaos, CampaignIsDeterministicAcrossCampaignThreads) {
  sim::ChaosConfig config = smoke_config();
  config.threads = 1;
  const sim::ChaosReport a = sim::run_chaos_campaign(config);
  config.threads = 4;
  const sim::ChaosReport b = sim::run_chaos_campaign(config);
  EXPECT_EQ(a.passed(), b.passed());
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.schedules_with_speculation, b.schedules_with_speculation);
  EXPECT_EQ(a.faults_total.workers_crashed, b.faults_total.workers_crashed);
  EXPECT_EQ(a.faults_total.chunks_lost, b.faults_total.chunks_lost);
  EXPECT_EQ(a.faults_total.iterations_reexecuted, b.faults_total.iterations_reexecuted);
  EXPECT_DOUBLE_EQ(a.faults_total.wasted_work, b.faults_total.wasted_work);
  EXPECT_EQ(a.speculation_total.backups_launched, b.speculation_total.backups_launched);
  EXPECT_EQ(a.speculation_total.backups_won, b.speculation_total.backups_won);
  EXPECT_DOUBLE_EQ(a.speculation_total.cancelled_work, b.speculation_total.cancelled_work);
  EXPECT_DOUBLE_EQ(a.max_makespan, b.max_makespan);
}

TEST(Chaos, ThreadDeterminismComparesEverySummaryField) {
  // The thread-determinism invariant compares replicated summaries with
  // their defaulted equality, so it sees every field, including the ones a
  // hand-written field list once skipped.
  const sim::ReplicationSummary base;
  std::vector<sim::ReplicationSummary> changed(6, base);
  changed[0].replications = 1;
  changed[1].faults_total.detection_latency_total = 1.0;
  changed[2].faults_total.max_detection_latency = 1.0;
  changed[3].mean_ci.upper = 1.0;
  changed[4].hit_rate_ci.lower = 0.5;
  changed[5].checkpoint_total.restart_chunks_preserved = 1;
  EXPECT_EQ(base, sim::ReplicationSummary{});
  for (const sim::ReplicationSummary& other : changed) EXPECT_NE(base, other);
}

TEST(Chaos, DegenerateConfigsAreRejected) {
  sim::ChaosConfig config = smoke_config();
  config.schedules = 0;
  EXPECT_THROW(sim::run_chaos_campaign(config), std::invalid_argument);
  config = smoke_config();
  config.processors = 1;
  EXPECT_THROW(sim::run_chaos_campaign(config), std::invalid_argument);
  config = smoke_config();
  config.max_failures = 0;
  EXPECT_THROW(sim::run_chaos_campaign(config), std::invalid_argument);
  config = smoke_config();
  config.max_failures = config.processors;
  EXPECT_THROW(sim::run_chaos_campaign(config), std::invalid_argument);
  config = smoke_config();
  config.replications = 0;
  EXPECT_THROW(sim::run_chaos_campaign(config), std::invalid_argument);
}

TEST(Chaos, ReportJsonCarriesSchemaCampaignShapeAndVerdict) {
  const sim::ChaosConfig config = smoke_config();
  const sim::ChaosReport report = sim::run_chaos_campaign(config);
  const obs::Json document = obs::make_chaos_report(report, config);
  const obs::Json parsed = obs::Json::parse(document.dump(1));
  EXPECT_EQ(parsed.at("schema").as_string(), obs::kChaosReportSchema);
  EXPECT_TRUE(parsed.at("passed").as_bool());
  EXPECT_EQ(parsed.at("campaign").at("schedules").as_int(), 10);
  EXPECT_EQ(parsed.at("campaign").at("processors").as_int(), 6);
  EXPECT_EQ(parsed.at("schedules_run").as_int(),
            static_cast<std::int64_t>(report.schedules_run));
  EXPECT_EQ(parsed.at("runs_executed").as_int(),
            static_cast<std::int64_t>(report.runs_executed));
  EXPECT_TRUE(parsed.at("campaign").at("fail_slow").as_bool());
  EXPECT_TRUE(parsed.at("campaign").at("corruption").as_bool());
  EXPECT_EQ(parsed.at("schedules_with_quarantine").as_int(),
            static_cast<std::int64_t>(report.schedules_with_quarantine));
  EXPECT_EQ(parsed.at("quarantine_total").at("quarantines").as_int(),
            static_cast<std::int64_t>(report.quarantine_total.quarantines));
  EXPECT_EQ(parsed.at("violations").size(), 0u);
  EXPECT_EQ(parsed.at("faults_total").at("chunks_lost").as_int(),
            static_cast<std::int64_t>(report.faults_total.chunks_lost));
  EXPECT_EQ(parsed.at("max_makespan").as_double(), report.max_makespan);
}

// Regression for the hang the first campaign found: with an epoch length
// that is not exactly representable, t can land exactly ON a boundary whose
// division rounds back into the previous epoch; the naive next-change
// formula then returns t itself and finish_time() never advances.
TEST(Chaos, NextEpochBoundaryIsStrictlyAfterT) {
  const double epoch = 206.66666666666666 / 8.0;  // the campaign's draw
  for (std::int64_t k = 1; k < 4096; ++k) {
    const double t = static_cast<double>(k) * epoch;
    EXPECT_GT(sysmodel::detail::next_epoch_boundary(t, epoch), t) << "k = " << k;
  }
  EXPECT_DOUBLE_EQ(sysmodel::detail::next_epoch_boundary(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(sysmodel::detail::next_epoch_boundary(0.5, 1.0), 1.0);
}

TEST(Chaos, EpochProcessFinishTimeTerminatesOnAwkwardEpochLengths) {
  const pmf::Pmf law = pmf::Pmf::uniform_over({0.4, 0.7, 1.0});
  sysmodel::MarkovEpochAvailability markov(law, 206.66666666666666 / 8.0, 0.75, 42);
  // Enough work to cross thousands of epoch boundaries; the pre-fix code
  // stalled forever at the first boundary whose division rounded down.
  const double finish = markov.finish_time(0.0, 50000.0);
  EXPECT_TRUE(std::isfinite(finish));
  EXPECT_GT(finish, 50000.0 * 0.9);
  sysmodel::IidEpochAvailability iid(law, 206.66666666666666 / 8.0, 7);
  EXPECT_TRUE(std::isfinite(iid.finish_time(0.0, 50000.0)));
}

}  // namespace
}  // namespace cdsf
