// Unreliable-channel protocol hardening and master checkpoint/restart:
// exactly-once execution under drops / duplicates / reorders, retransmit
// termination, restart reconciliation, WAL/JSON checkpoint output, the
// MPI-replicated determinism guarantee, and the guards that keep the
// hardened knobs away from executors that ignore them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cdsf/dynamic_manager.hpp"
#include "obs/json.hpp"
#include "sim/master_worker.hpp"
#include "sysmodel/cases.hpp"
#include "test_support.hpp"

namespace cdsf::sim {
namespace {

using test::full_availability;
using test::simple_app;

SimConfig deterministic_config() {
  SimConfig config;
  config.scheduling_overhead = 0.0;
  config.iteration_cov = 0.0;
  config.availability_mode = AvailabilityMode::kConstantMean;
  return config;
}

/// Sums executed iterations over the per-worker accounting.
std::int64_t executed_iterations(const RunResult& run) {
  std::int64_t total = 0;
  for (const WorkerStats& w : run.workers) total += w.iterations;
  return total;
}

/// The winning (not lost, not cancelled) trace entries must tile
/// [0, parallel) with no overlap — the exactly-once invariant.
void expect_exactly_once(const RunResult& run, std::int64_t parallel) {
  std::vector<const ChunkTraceEntry*> winners;
  for (const ChunkTraceEntry& chunk : run.trace) {
    if (!chunk.lost && !chunk.cancelled) winners.push_back(&chunk);
  }
  std::sort(winners.begin(), winners.end(),
            [](const ChunkTraceEntry* a, const ChunkTraceEntry* b) {
              return a->first < b->first;
            });
  std::int64_t next = 0;
  for (const ChunkTraceEntry* chunk : winners) {
    EXPECT_EQ(chunk->first, next)
        << "gap or overlap at iteration " << next << " (worker " << chunk->worker << ")";
    next += chunk->iterations;
  }
  EXPECT_EQ(next, parallel);
}

// ------------------------------------------------- clean-channel identity --

TEST(Channel, CheckpointingAloneDoesNotChangeTheSchedule) {
  const auto app = simple_app("a", 20, 480, {500.0});
  const MessageModel messages{0.25, 0.05};
  SimConfig hardened = deterministic_config();
  hardened.collect_trace = true;
  hardened.checkpoint.enabled = true;
  hardened.checkpoint.interval = 50.0;
  SimConfig legacy = deterministic_config();
  legacy.collect_trace = true;
  for (dls::TechniqueId id :
       {dls::TechniqueId::kStatic, dls::TechniqueId::kFAC, dls::TechniqueId::kAF}) {
    const MpiRunResult a =
        simulate_loop_mpi(app, 0, 4, full_availability(1), id, hardened, messages, 11);
    const MpiRunResult b =
        simulate_loop_mpi(app, 0, 4, full_availability(1), id, legacy, messages, 11);
    EXPECT_DOUBLE_EQ(a.run.makespan, b.run.makespan) << dls::technique_name(id);
    EXPECT_EQ(a.run.total_chunks, b.run.total_chunks) << dls::technique_name(id);
    // The WAL recorded the run; the channel itself stayed clean.
    EXPECT_GT(a.run.checkpoint.wal_records, 0u);
    EXPECT_GT(a.run.checkpoint.snapshots, 0u);
    EXPECT_EQ(a.run.checkpoint.master_restarts, 0u);
    EXPECT_EQ(a.run.channel.drops, 0u);
    EXPECT_EQ(a.run.channel.retransmits, 0u);
    EXPECT_EQ(b.run.checkpoint.wal_records, 0u);
    EXPECT_TRUE(b.run.wal.empty());
  }
}

// ------------------------------------------------------- protocol edges --

TEST(Channel, DuplicatedReportsNeverDoubleCount) {
  // EVERY worker->master message is duplicated, including each worker's
  // final report after the loop drains. Dedup must drop every surplus copy
  // so no chunk is record()ed or accounted twice.
  const auto app = simple_app("a", 0, 400, {400.0});
  SimConfig config = deterministic_config();
  config.collect_trace = true;
  config.channel.duplicate_to_master = 1.0;
  const MpiRunResult result = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                dls::TechniqueId::kFAC, config,
                                                MessageModel{0.25, 0.05}, 17);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_EQ(executed_iterations(result.run), 400);
  expect_exactly_once(result.run, 400);
  EXPECT_GT(result.run.channel.duplicates, 0u);
  EXPECT_GT(result.run.channel.dedup_hits, 0u);
  EXPECT_LE(result.run.channel.dedup_hits,
            result.run.channel.duplicates + result.run.channel.retransmits);
}

TEST(Channel, RejoinOfABenchedWorkerIsNotADedupHit) {
  // AF on 3 workers with checkpointing (the hardened protocol on a clean
  // channel): the loop drains at t = 2 and every worker is benched. Worker 2
  // crashes at 4.25 and rejoins at 6.25; the master still has it benched
  // and resends the bench notice. That rejoin request counted as a dedup
  // hit with no duplicate or retransmission behind it, breaking the chaos
  // harness's dedup_hits <= duplicates + retransmits identity.
  const auto app = simple_app("a", 0, 6, {6.0}, 0.0);
  SimConfig config = deterministic_config();
  config.collect_trace = true;
  config.checkpoint.enabled = true;
  config.checkpoint.interval = 2.0;
  SimConfig::Failure outage;
  outage.worker = 2;
  outage.time = 4.25;
  outage.kind = SimConfig::FailureKind::kCrashRecover;
  outage.recovery_time = 6.25;
  config.failures.push_back(outage);
  const MpiRunResult result = simulate_loop_mpi(app, 0, 3, full_availability(1),
                                                dls::TechniqueId::kAF, config,
                                                MessageModel{0.0, 0.0}, 7);
  EXPECT_EQ(executed_iterations(result.run), 6);
  EXPECT_EQ(result.run.channel.duplicates + result.run.channel.retransmits, 0u);
  EXPECT_LE(result.run.channel.dedup_hits,
            result.run.channel.duplicates + result.run.channel.retransmits);
}

TEST(Channel, DroppedAssignmentIsRetransmittedAndTerminates) {
  // The very first master->worker payload vanishes; the ack-driven
  // retransmission must re-deliver it and the run must complete with every
  // iteration executed exactly once.
  const auto app = simple_app("a", 0, 200, {200.0});
  SimConfig config = deterministic_config();
  config.collect_trace = true;
  config.channel.force_drop_to_worker = 1;
  const MpiRunResult result = simulate_loop_mpi(app, 0, 2, full_availability(1),
                                                dls::TechniqueId::kStatic, config,
                                                MessageModel{0.25, 0.05}, 5);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_EQ(executed_iterations(result.run), 200);
  expect_exactly_once(result.run, 200);
  EXPECT_EQ(result.run.channel.drops, 1u);
  EXPECT_GE(result.run.channel.retransmits, 1u);
}

TEST(Channel, ReorderAndBurstLossStillExactlyOnce) {
  const auto app = simple_app("a", 10, 590, {600.0});
  SimConfig config = deterministic_config();
  config.collect_trace = true;
  config.channel.drop_to_worker = 0.1;
  config.channel.drop_to_master = 0.1;
  config.channel.duplicate_to_master = 0.2;
  config.channel.reorder_to_worker = 0.3;
  config.channel.reorder_to_master = 0.3;
  config.channel.reorder_delay = 1.5;
  config.channel.burst_gap_mean = 150.0;
  config.channel.burst_duration = 5.0;
  const MpiRunResult result = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                dls::TechniqueId::kAF, config,
                                                MessageModel{0.25, 0.05}, 23);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_EQ(executed_iterations(result.run), 590);
  expect_exactly_once(result.run, 590);
  EXPECT_LE(result.run.channel.burst_drops, result.run.channel.drops);
}

// -------------------------------------------------- master crash-restart --

TEST(Channel, MasterCrashMidSerialPhaseRecovers) {
  // serial = 100 iterations of 1.0 each => serial_end = 100; the master
  // dies at t = 40, well inside the serial phase, and must not dispatch
  // parallel work early when it restarts at t = 55.
  const auto app = simple_app("a", 100, 400, {500.0});
  SimConfig config = deterministic_config();
  config.collect_trace = true;
  SimConfig::Failure master;
  master.kind = SimConfig::FailureKind::kMasterCrashRestart;
  master.time = 40.0;
  master.recovery_time = 55.0;
  config.failures.push_back(master);
  const MpiRunResult result = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                dls::TechniqueId::kFAC, config,
                                                MessageModel{0.25, 0.05}, 31);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_GE(result.run.makespan, result.run.serial_end);
  EXPECT_EQ(executed_iterations(result.run), 400);
  expect_exactly_once(result.run, 400);
  EXPECT_EQ(result.run.checkpoint.master_restarts, 1u);
  // Parallel dispatch starts at or after serial_end despite the restart.
  for (const ChunkTraceEntry& chunk : result.run.trace) {
    EXPECT_GE(chunk.dispatch_time, result.run.serial_end);
  }
}

TEST(Channel, RestartFromEmptyWalRedispatchesEverything) {
  // The master dies before any WAL record exists; restart reconciliation
  // must come up from an empty log and still finish the loop.
  const auto app = simple_app("a", 10, 190, {200.0});
  SimConfig config = deterministic_config();
  config.collect_trace = true;
  SimConfig::Failure master;
  master.kind = SimConfig::FailureKind::kMasterCrashRestart;
  master.time = 0.25;
  master.recovery_time = 2.0;
  config.failures.push_back(master);
  const MpiRunResult result = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                dls::TechniqueId::kGSS, config,
                                                MessageModel{0.25, 0.05}, 41);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_EQ(executed_iterations(result.run), 190);
  expect_exactly_once(result.run, 190);
  EXPECT_EQ(result.run.checkpoint.master_restarts, 1u);
  // The restart itself is logged, so the WAL carries exactly one kRestart.
  std::size_t restarts = 0;
  for (const WalRecord& record : result.run.wal) {
    if (record.kind == WalRecord::Kind::kRestart) ++restarts;
  }
  EXPECT_EQ(restarts, 1u);
}

TEST(Channel, RestartMidLoopNeverReRecordsCompletedWork) {
  // Master dies mid-parallel-loop on a duplicating channel: completions
  // accepted before the crash are replayed from the WAL into the dedup
  // table, so re-delivered reports for them must not double-count.
  const auto app = simple_app("a", 0, 600, {600.0});
  SimConfig config = deterministic_config();
  config.collect_trace = true;
  config.channel.duplicate_to_master = 0.5;
  config.channel.duplicate_to_worker = 0.3;
  config.checkpoint.interval = 20.0;
  SimConfig::Failure master;
  master.kind = SimConfig::FailureKind::kMasterCrashRestart;
  master.time = 60.0;
  master.recovery_time = 75.0;
  config.failures.push_back(master);
  const MpiRunResult result = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                dls::TechniqueId::kFAC, config,
                                                MessageModel{0.25, 0.05}, 53);
  EXPECT_TRUE(std::isfinite(result.run.makespan));
  EXPECT_EQ(executed_iterations(result.run), 600);
  expect_exactly_once(result.run, 600);
  EXPECT_EQ(result.run.checkpoint.master_restarts, 1u);
  EXPECT_EQ(result.run.checkpoint.wal_records, result.run.wal.size());
}

TEST(Channel, CheckpointJsonIsWrittenAndSchemaTagged) {
  const auto app = simple_app("a", 0, 200, {200.0});
  const std::string path = ::testing::TempDir() + "cdsf_checkpoint_test.json";
  SimConfig config = deterministic_config();
  config.checkpoint.enabled = true;
  config.checkpoint.interval = 25.0;
  config.checkpoint.json_path = path;
  const MpiRunResult result = simulate_loop_mpi(app, 0, 2, full_availability(1),
                                                dls::TechniqueId::kFAC, config,
                                                MessageModel{0.25, 0.05}, 9);
  EXPECT_GT(result.run.checkpoint.wal_records, 0u);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::Json doc = obs::Json::parse(buffer.str());
  EXPECT_EQ(doc.at("schema").as_string(), "cdsf.master_checkpoint/1");
  EXPECT_EQ(doc.at("wal").size(), result.run.wal.size());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ determinism --

TEST(Channel, ReplicatedMpiSummariesAreThreadCountInvariant) {
  const auto app = simple_app("a", 10, 490, {500.0});
  SimConfig config = deterministic_config();
  config.channel.drop_to_worker = 0.1;
  config.channel.drop_to_master = 0.1;
  config.channel.duplicate_to_master = 0.2;
  config.channel.reorder_to_master = 0.2;
  config.checkpoint.interval = 30.0;
  SimConfig::Failure master;
  master.kind = SimConfig::FailureKind::kMasterCrashRestart;
  master.time = 50.0;
  master.recovery_time = 65.0;
  config.failures.push_back(master);
  const MessageModel messages{0.25, 0.05};
  const ReplicationSummary a = simulate_replicated_mpi(
      app, 0, 4, full_availability(1), dls::TechniqueId::kFAC, config, messages, 71, 6, 1e18, 1);
  const ReplicationSummary b = simulate_replicated_mpi(
      app, 0, 4, full_availability(1), dls::TechniqueId::kFAC, config, messages, 71, 6, 1e18, 4);
  EXPECT_EQ(a.mean_makespan, b.mean_makespan);
  EXPECT_EQ(a.max_makespan, b.max_makespan);
  EXPECT_EQ(a.stddev_makespan, b.stddev_makespan);
  EXPECT_EQ(a.channel_total.messages_sent, b.channel_total.messages_sent);
  EXPECT_EQ(a.channel_total.drops, b.channel_total.drops);
  EXPECT_EQ(a.channel_total.retransmits, b.channel_total.retransmits);
  EXPECT_EQ(a.channel_total.dedup_hits, b.channel_total.dedup_hits);
  EXPECT_EQ(a.checkpoint_total.wal_records, b.checkpoint_total.wal_records);
  EXPECT_EQ(a.checkpoint_total.master_restarts, b.checkpoint_total.master_restarts);
  EXPECT_EQ(a.checkpoint_total.master_restarts, 6u);
}

// ------------------------------------------------------------- validation --

TEST(Channel, DegenerateKnobsAreRejected) {
  const auto app = simple_app("a", 0, 100, {100.0});
  const MessageModel messages;
  auto run = [&](const SimConfig& config) {
    return simulate_loop_mpi(app, 0, 2, full_availability(1), dls::TechniqueId::kStatic,
                             config, messages, 1);
  };
  SimConfig config = deterministic_config();
  config.channel.drop_to_worker = 1.5;
  EXPECT_THROW(run(config), std::invalid_argument);
  config = deterministic_config();
  config.channel.reorder_to_master = 0.5;
  config.channel.reorder_delay = 0.0;
  EXPECT_THROW(run(config), std::invalid_argument);
  config = deterministic_config();
  config.channel.drop_to_master = 0.1;
  config.channel.rto = 0.0;
  EXPECT_THROW(run(config), std::invalid_argument);
  config = deterministic_config();
  config.checkpoint.enabled = true;
  config.checkpoint.interval = 0.0;
  EXPECT_THROW(run(config), std::invalid_argument);
  // A master that never comes back can never finish the run.
  config = deterministic_config();
  SimConfig::Failure master;
  master.kind = SimConfig::FailureKind::kMasterCrashRestart;
  master.time = 10.0;
  EXPECT_TRUE(!std::isfinite(master.recovery_time));
  config.failures.push_back(master);
  EXPECT_THROW(run(config), std::invalid_argument);
  // At most one master failure per run.
  config = deterministic_config();
  master.recovery_time = 20.0;
  config.failures.push_back(master);
  master.time = 30.0;
  master.recovery_time = 40.0;
  config.failures.push_back(master);
  EXPECT_THROW(run(config), std::invalid_argument);
}

TEST(Channel, DynamicManagerRejectsHardenedKnobs) {
  core::DynamicConfig config;
  config.applications = 2;
  config.mean_interarrival = 1000.0;
  config.deadline_slack = 8000.0;
  config.application_spec.processor_types = 2;
  config.sim.channel.drop_to_worker = 0.1;
  EXPECT_THROW(core::run_dynamic_manager(sysmodel::paper_platform(), sysmodel::paper_case(1),
                                         sysmodel::paper_case(1), config, 3),
               std::invalid_argument);
  config.sim.channel = ChannelModel{};
  config.sim.checkpoint.enabled = true;
  EXPECT_THROW(core::run_dynamic_manager(sysmodel::paper_platform(), sysmodel::paper_case(1),
                                         sysmodel::paper_case(1), config, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace cdsf::sim
