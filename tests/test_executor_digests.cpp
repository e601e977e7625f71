// Byte-identity oracle for both Stage II executors. Every case hashes
// (FNV-1a) every observable output of its runs — the JSON report, each
// chunk-trace entry and lifecycle event, the write-ahead log, the flight
// record, the master's accounting, and the replicated summaries — and
// compares against digests recorded before the chunk-lifecycle policy was
// shared between simulate_loop and simulate_loop_mpi. A refactor of either
// executor must keep every digest; a deliberate behavior change re-records
// them and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cdsf/paper_example.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "sim/loop_executor.hpp"
#include "sim/master_worker.hpp"
#include "sysmodel/cases.hpp"

namespace cdsf::sim {
namespace {

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

void hash_run(Fnv1a& h, const RunResult& run) {
  h.str(obs::to_json(run).dump());
  h.u64(run.trace.size());
  for (const ChunkTraceEntry& e : run.trace) {
    h.u64(e.worker);
    h.i64(e.iterations);
    h.f64(e.dispatch_time);
    h.f64(e.start_time);
    h.f64(e.end_time);
    h.i64(e.first);
    h.u64((e.lost ? 1U : 0U) | (e.speculative ? 2U : 0U) | (e.cancelled ? 4U : 0U) |
          (e.retransmitted ? 8U : 0U) | (e.audit ? 16U : 0U) | (e.probe ? 32U : 0U));
  }
  h.u64(run.events.size());
  for (const LifecycleEvent& e : run.events) {
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.f64(e.time);
    h.u64(e.worker);
    h.i64(e.value);
  }
  h.u64(run.wal.size());
  for (const WalRecord& r : run.wal) {
    h.u64(static_cast<std::uint64_t>(r.kind));
    h.f64(r.time);
    h.u64(r.worker);
    h.u64(r.seq);
    h.i64(r.first);
    h.i64(r.count);
  }
  h.str(obs::flight_record_to_json(run.flight, {}).dump());
}

void hash_mpi(Fnv1a& h, const MpiRunResult& res) {
  hash_run(h, res.run);
  h.u64(res.master.requests_handled);
  h.f64(res.master.busy_time);
  h.f64(res.master.queue_wait_time);
  h.f64(res.master.max_queue_wait);
}

enum class Mode {
  kPlain,
  kDegrade,
  kCrash,
  kCrashRecover,
  kSpeculation,  // speculation + deadline-risk escalation + a degraded worker
  kSpeculationCrash,  // speculation + a degraded, a crashing and a crash-recover worker
  kGray,         // quarantine + audits + a silently corrupt and a fail-slow worker
  kBothCopiesLost,  // speculation + a degraded worker + crashes under both copies of a backup
  kChannel,      // MPI only: drop / duplicate / reorder / corrupt / burst channel
  kCheckpoint,   // MPI only: checkpointing + a master crash-restart
};

const std::vector<dls::TechniqueId>& techniques() {
  static const std::vector<dls::TechniqueId> ids{dls::TechniqueId::kStatic,
                                                 dls::TechniqueId::kSS, dls::TechniqueId::kFAC,
                                                 dls::TechniqueId::kAWF_B, dls::TechniqueId::kAF};
  return ids;
}

void add_failure(SimConfig& config, std::size_t worker, double time, SimConfig::FailureKind kind) {
  SimConfig::Failure failure;
  failure.worker = worker;
  failure.time = time;
  failure.kind = kind;
  config.failures.push_back(failure);
}

/// `serial_end` / `makespan` come from the same cell's plain ideal run, so
/// every failure lands inside the parallel phase.
SimConfig mode_config(Mode mode, AvailabilityMode availability, double serial_end,
                      double makespan) {
  SimConfig config;
  config.availability_mode = availability;
  config.collect_trace = true;
  const double span = makespan - serial_end;
  const double mid = serial_end + 0.4 * span;
  switch (mode) {
    case Mode::kPlain:
      break;
    case Mode::kDegrade:
      add_failure(config, 2, mid, SimConfig::FailureKind::kDegrade);
      config.failures.back().residual_availability = 0.05;
      break;
    case Mode::kCrash:
      add_failure(config, 3, mid, SimConfig::FailureKind::kCrash);
      break;
    case Mode::kCrashRecover:
      add_failure(config, 3, mid, SimConfig::FailureKind::kCrashRecover);
      config.failures.back().recovery_time = mid + 0.3 * span;
      break;
    case Mode::kSpeculation:
      config.speculation.enabled = true;
      config.deadline_risk.enabled = true;
      config.deadline_risk.deadline = serial_end + 0.8 * span;
      config.deadline_risk.check_interval = 0.1 * span;
      add_failure(config, 1, mid, SimConfig::FailureKind::kDegrade);
      config.failures.back().residual_availability = 0.05;
      break;
    case Mode::kSpeculationCrash:
    case Mode::kBothCopiesLost:  // crash_both_copies adds the crashes
      config.speculation.enabled = true;
      add_failure(config, 1, serial_end + 0.2 * span, SimConfig::FailureKind::kDegrade);
      config.failures.back().residual_availability = 0.05;
      if (mode == Mode::kBothCopiesLost) break;
      add_failure(config, 3, mid, SimConfig::FailureKind::kCrash);
      add_failure(config, 5, serial_end + 0.5 * span, SimConfig::FailureKind::kCrashRecover);
      config.failures.back().recovery_time = serial_end + 0.7 * span;
      break;
    case Mode::kGray:
      config.quarantine.enabled = true;
      config.quarantine.audit_rate = 0.2;
      config.quarantine.probe_interval = 0.1 * span;
      add_failure(config, 2, serial_end + 0.1 * span, SimConfig::FailureKind::kSilentCorrupt);
      config.failures.back().corrupt_probability = 0.5;
      add_failure(config, 5, mid, SimConfig::FailureKind::kDegrade);
      config.failures.back().residual_availability = 0.1;
      break;
    case Mode::kChannel:
      config.channel.drop_to_worker = 0.05;
      config.channel.drop_to_master = 0.05;
      config.channel.duplicate_to_worker = 0.05;
      config.channel.duplicate_to_master = 0.05;
      config.channel.reorder_to_worker = 0.1;
      config.channel.reorder_to_master = 0.1;
      config.channel.corrupt_to_worker = 0.02;
      config.channel.corrupt_to_master = 0.02;
      config.channel.burst_gap_mean = 0.5 * span;
      config.channel.burst_duration = 3.0;
      break;
    case Mode::kCheckpoint:
      config.checkpoint.enabled = true;
      config.checkpoint.interval = 0.1 * span;
      add_failure(config, 0, mid, SimConfig::FailureKind::kMasterCrashRestart);
      config.failures.back().recovery_time = mid + 30.0;
      break;
  }
  return config;
}

struct Cell {
  dls::TechniqueId technique;
  int paper_case;
  std::size_t processor_type;
  AvailabilityMode availability;
  std::uint64_t seed;
};

/// techniques x paper cases {1, 4} x {Markov, IID} epochs x 2 seeds.
std::vector<Cell> grid() {
  std::vector<Cell> cells;
  std::uint64_t seed = 101;
  for (dls::TechniqueId id : techniques()) {
    for (int paper_case : {1, 4}) {
      for (AvailabilityMode availability :
           {AvailabilityMode::kMarkovEpoch, AvailabilityMode::kIidEpoch}) {
        for (int repeat = 0; repeat < 2; ++repeat) {
          cells.push_back({id, paper_case, paper_case == 1 ? 0U : 1U, availability, seed++});
        }
      }
    }
  }
  return cells;
}

/// The primary copy of the backup at trace[i]: the latest earlier
/// non-speculative chunk over the same range, or nullptr.
const ChunkTraceEntry* primary_of(const std::vector<ChunkTraceEntry>& trace, std::size_t i) {
  for (std::size_t j = i; j-- > 0;) {
    const ChunkTraceEntry& e = trace[j];
    if (!e.speculative && !e.audit && e.first == trace[i].first &&
        e.iterations == trace[i].iterations) {
      return &e;
    }
  }
  return nullptr;
}

/// kBothCopiesLost: takes the first backup in `probe` (a traced run of
/// `config`) whose primary and backup both run past its launch, neither on
/// worker 0 (serial) or 1 (degraded), and crashes the primary's host 30%
/// and the backup's host 60% of the way from that launch to the earlier of
/// the two copies' ends. Both copies are then lost, one after the other.
void crash_both_copies(SimConfig& config, const RunResult& probe) {
  for (std::size_t i = 0; i < probe.trace.size(); ++i) {
    const ChunkTraceEntry& backup = probe.trace[i];
    if (!backup.speculative) continue;
    const ChunkTraceEntry* primary = primary_of(probe.trace, i);
    const double launch = backup.dispatch_time;
    if (primary == nullptr || primary->worker <= 1 || backup.worker <= 1 ||
        !(primary->end_time > launch) || !(backup.end_time > launch)) {
      continue;
    }
    const double window = std::min(primary->end_time, backup.end_time) - launch;
    add_failure(config, primary->worker, launch + 0.3 * window, SimConfig::FailureKind::kCrash);
    add_failure(config, backup.worker, launch + 0.6 * window, SimConfig::FailureKind::kCrash);
    return;
  }
}

/// What a mode's runs exercised, summed over the grid: a digest only
/// guards the machinery its runs reach.
struct Coverage {
  std::uint64_t chunks_lost = 0;
  std::uint64_t backups = 0;
  std::uint64_t backups_lost = 0;
  std::uint64_t escalations = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t audit_mismatches = 0;
  std::uint64_t corrupt_discarded = 0;
  std::uint64_t master_restarts = 0;
  std::uint64_t both_copies_lost = 0;  // tasks whose primary and backup were both lost

  void add(const RunResult& run) {
    for (std::size_t i = 0; i < run.trace.size(); ++i) {
      if (!run.trace[i].speculative || !run.trace[i].lost) continue;
      const ChunkTraceEntry* primary = primary_of(run.trace, i);
      if (primary != nullptr && primary->lost) both_copies_lost += 1;
    }
    chunks_lost += run.faults.chunks_lost;
    backups += run.speculation.backups_launched;
    backups_lost += run.speculation.backups_lost;
    escalations += run.speculation.risk_escalations;
    quarantines += run.quarantine.quarantines;
    reinstatements += run.quarantine.reinstatements;
    audit_mismatches += run.quarantine.audit_mismatches;
    corrupt_discarded += run.channel.corrupt_discarded;
    master_restarts += run.checkpoint.master_restarts;
  }
};

constexpr std::size_t kWorkers = 8;

const workload::Application& app() {
  static const core::PaperExample example = core::make_paper_example();
  return example.batch.at(0);
}

std::uint64_t executor_digest(bool mpi, Mode mode, Coverage& coverage) {
  Fnv1a h;
  const MessageModel messages;
  for (const Cell& c : grid()) {
    const sysmodel::AvailabilitySpec spec = sysmodel::paper_case(c.paper_case);
    const RunResult plain =
        simulate_loop(app(), c.processor_type, kWorkers, spec, c.technique,
                      mode_config(Mode::kPlain, c.availability, 0.0, 1.0), c.seed);
    SimConfig config = mode_config(mode, c.availability, plain.serial_end, plain.makespan);
    if (mode == Mode::kBothCopiesLost) {
      // The crashes target one backup of this executor's own run.
      crash_both_copies(config, mpi ? simulate_loop_mpi(app(), c.processor_type, kWorkers, spec,
                                                        c.technique, config, messages, c.seed)
                                          .run
                                    : simulate_loop(app(), c.processor_type, kWorkers, spec,
                                                    c.technique, config, c.seed));
    }
    if (mpi) {
      const MpiRunResult res = simulate_loop_mpi(app(), c.processor_type, kWorkers, spec,
                                                 c.technique, config, messages, c.seed);
      hash_mpi(h, res);
      coverage.add(res.run);
    } else {
      const RunResult run =
          simulate_loop(app(), c.processor_type, kWorkers, spec, c.technique, config, c.seed);
      hash_run(h, run);
      coverage.add(run);
    }
  }
  return h.value();
}

struct Expected {
  const char* name;
  bool mpi;
  Mode mode;
  std::uint64_t digest;
};

TEST(ExecutorDigests, SingleRunsMatchRecordedDigests) {
  const std::vector<Expected> expected{
      {"ideal/plain", false, Mode::kPlain, 0xf9e6d72a1485f251ULL},
      {"ideal/degrade", false, Mode::kDegrade, 0x70d5a02ec7ef5723ULL},
      {"ideal/crash", false, Mode::kCrash, 0x70aee21dbfee5026ULL},
      {"ideal/crash_recover", false, Mode::kCrashRecover, 0xdf8e2e5e7dbf99b6ULL},
      {"ideal/speculation", false, Mode::kSpeculation, 0x18431fc0ec60f833ULL},
      {"ideal/speculation_crash", false, Mode::kSpeculationCrash, 0x9fbeb3582a0fe069ULL},
      {"ideal/gray", false, Mode::kGray, 0x6733cf90f50c9fd1ULL},
      {"ideal/both_copies_lost", false, Mode::kBothCopiesLost, 0x0e921ebf3a8cc3d0ULL},
      {"mpi/plain", true, Mode::kPlain, 0xfc485605b89815b1ULL},
      {"mpi/degrade", true, Mode::kDegrade, 0xa57487717443605aULL},
      {"mpi/crash", true, Mode::kCrash, 0x74c3ead6f618b843ULL},
      {"mpi/crash_recover", true, Mode::kCrashRecover, 0xa57ded9f2db6c657ULL},
      {"mpi/speculation", true, Mode::kSpeculation, 0x208d4829c0882649ULL},
      {"mpi/speculation_crash", true, Mode::kSpeculationCrash, 0x9f465aa622b28800ULL},
      {"mpi/gray", true, Mode::kGray, 0xe643c29b30585754ULL},
      {"mpi/both_copies_lost", true, Mode::kBothCopiesLost, 0x1466e1193dece077ULL},
      {"mpi/channel", true, Mode::kChannel, 0x05214cd72314f9f0ULL},
      {"mpi/checkpoint", true, Mode::kCheckpoint, 0x2c87c76db7b57518ULL},
  };
  for (const Expected& e : expected) {
    Coverage coverage;
    EXPECT_EQ(executor_digest(e.mpi, e.mode, coverage), e.digest) << e.name;
    switch (e.mode) {
      case Mode::kCrash:
      case Mode::kCrashRecover:
        EXPECT_GT(coverage.chunks_lost, 0U) << e.name;
        break;
      case Mode::kSpeculation:
        EXPECT_GT(coverage.backups, 0U) << e.name;
        // The deadline-risk monitor runs in the idealized executor only.
        if (!e.mpi) {
          EXPECT_GT(coverage.escalations, 0U) << e.name;
        }
        break;
      case Mode::kSpeculationCrash:
        // Lost backups reach the sibling-covers and lost-loser paths.
        EXPECT_GT(coverage.backups, 0U) << e.name;
        EXPECT_GT(coverage.chunks_lost, 0U) << e.name;
        EXPECT_GT(coverage.backups_lost, 0U) << e.name;
        break;
      case Mode::kBothCopiesLost:
        // The sibling-covers rule: the first lost copy leaves the range to
        // the second, whose loss returns it to the pool.
        EXPECT_GT(coverage.both_copies_lost, 0U) << e.name;
        break;
      case Mode::kGray:
        EXPECT_GT(coverage.quarantines, 0U) << e.name;
        EXPECT_GT(coverage.reinstatements, 0U) << e.name;
        EXPECT_GT(coverage.audit_mismatches, 0U) << e.name;
        break;
      case Mode::kChannel:
        EXPECT_GT(coverage.corrupt_discarded, 0U) << e.name;
        break;
      case Mode::kCheckpoint:
        EXPECT_GT(coverage.master_restarts, 0U) << e.name;
        break;
      case Mode::kPlain:
      case Mode::kDegrade:
        break;
    }
  }
}

TEST(ExecutorDigests, AvailabilityModesMatchRecordedDigests) {
  // Every availability process builder, through the homogeneous and the
  // mixed-type entry points (the mixed one spreads diurnal phases by
  // worker index instead of by seed).
  const std::vector<std::size_t> mixed_types{0, 0, 0, 1, 1, 1, 1, 1};
  Fnv1a h;
  std::uint64_t seed = 7;
  for (AvailabilityMode availability :
       {AvailabilityMode::kIidEpoch, AvailabilityMode::kMarkovEpoch,
        AvailabilityMode::kConstantMean, AvailabilityMode::kSampleOnce,
        AvailabilityMode::kDiurnal}) {
    for (dls::TechniqueId id : {dls::TechniqueId::kFAC, dls::TechniqueId::kAF}) {
      for (bool shared : {false, true}) {
        SimConfig config = mode_config(Mode::kPlain, availability, 0.0, 1.0);
        config.shared_group_availability = shared;
        config.input_factor_cov = shared ? 0.1 : 0.0;
        hash_run(h, simulate_loop(app(), 1, kWorkers, sysmodel::paper_case(3), id, config,
                                  seed));
        hash_mpi(h, simulate_loop_mpi(app(), 1, kWorkers, sysmodel::paper_case(3), id, config,
                                      MessageModel{}, seed));
        ++seed;
      }
      const SimConfig config = mode_config(Mode::kPlain, availability, 0.0, 1.0);
      hash_run(h, simulate_loop_mixed(app(), mixed_types, sysmodel::paper_case(2), id, config,
                                      seed++));
    }
  }
  EXPECT_EQ(h.value(), 0x7de566aae704b02bULL);
}

TEST(ExecutorDigests, MixedGroupsMatchRecordedDigests) {
  const std::vector<std::size_t> mixed_types{0, 0, 0, 1, 1, 1, 1, 1};
  const std::vector<Expected> expected{
      {"mixed/plain", false, Mode::kPlain, 0xd52d0e8cf4d3fd17ULL},
      {"mixed/crash_recover", false, Mode::kCrashRecover, 0x81c936e417f45a8bULL},
      {"mixed/speculation", false, Mode::kSpeculation, 0x3c932da7713aea03ULL},
      {"mixed/gray", false, Mode::kGray, 0x2b044efb44fe990aULL},
  };
  for (const Expected& e : expected) {
    Fnv1a h;
    for (const Cell& c : grid()) {
      const sysmodel::AvailabilitySpec spec = sysmodel::paper_case(c.paper_case);
      const RunResult plain =
          simulate_loop_mixed(app(), mixed_types, spec, c.technique,
                              mode_config(Mode::kPlain, c.availability, 0.0, 1.0), c.seed);
      hash_run(h, simulate_loop_mixed(
                      app(), mixed_types, spec, c.technique,
                      mode_config(e.mode, c.availability, plain.serial_end, plain.makespan),
                      c.seed));
    }
    EXPECT_EQ(h.value(), e.digest) << e.name;
  }
}

/// A replicated config: the per-run trace off, as Stage II runs it.
SimConfig replicated_config(Mode mode) {
  // Fixed failure times for the paper's app1 on 8 type-1 workers under
  // case 1, whose serial phase ends near t = 1200-4700 depending on the
  // replication: failures land in the serial phase of some replications
  // and in the parallel loop of others.
  SimConfig config = mode_config(mode, AvailabilityMode::kMarkovEpoch, 1500.0, 2500.0);
  config.collect_trace = false;
  if (mode == Mode::kGray) {
    add_failure(config, 3, 2000.0, SimConfig::FailureKind::kCrashRecover);
    config.failures.back().recovery_time = 2100.0;
  }
  return config;
}

TEST(ExecutorDigests, ReplicatedDriversMatchRecordedDigestsAtAnyThreadCount) {
  struct Replicated {
    const char* name;
    bool mpi;
    Mode mode;
    std::uint64_t digest;
  };
  const std::vector<Replicated> expected{
      {"replicated/plain", false, Mode::kPlain, 0x971cf85f47d01b5cULL},
      {"replicated/gray_crash_recover", false, Mode::kGray, 0xa794033c5deb6026ULL},
      {"replicated_mpi/plain", true, Mode::kPlain, 0x563e17443296c533ULL},
      {"replicated_mpi/gray_crash_recover", true, Mode::kGray, 0xbab08a5b62ea2dc6ULL},
      {"replicated_mpi/channel", true, Mode::kChannel, 0x2a41a1e4d379b410ULL},
      {"replicated_mpi/checkpoint", true, Mode::kCheckpoint, 0x777b86803f4e6321ULL},
  };
  constexpr double kDeadline = 2600.0;
  for (const Replicated& e : expected) {
    const SimConfig config = replicated_config(e.mode);
    for (std::size_t threads : {1U, 3U}) {
      Fnv1a h;
      for (dls::TechniqueId id : {dls::TechniqueId::kFAC, dls::TechniqueId::kAF}) {
        const ReplicationSummary summary =
            e.mpi ? simulate_replicated_mpi(app(), 1, kWorkers, sysmodel::paper_case(1), id,
                                            config, MessageModel{}, 41, 6, kDeadline, threads)
                  : simulate_replicated(app(), 1, kWorkers, sysmodel::paper_case(1), id, config,
                                        41, 6, kDeadline, threads);
        h.str(obs::to_json(summary, kDeadline).dump());
      }
      EXPECT_EQ(h.value(), e.digest) << e.name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace cdsf::sim
