#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/flight.hpp"
#include "pmf/pmf.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cdsf::sim {

namespace {

/// Everything one schedule needs to replay: drawn once from the schedule's
/// own seed stream, executed on both executors.
struct Schedule {
  SimConfig sim;
  dls::TechniqueId technique = dls::TechniqueId::kFAC;
  std::uint64_t sim_seed = 0;
  double deadline = 0.0;  // replicated-summary deadline (also risk Delta)

  /// The MPI executor will run the hardened at-least-once protocol.
  [[nodiscard]] bool hardened() const {
    return sim.channel.faulty() || sim.checkpoint.enabled || master_restarts() > 0;
  }
  /// Configured kMasterCrashRestart failures (0 or 1 after validation).
  [[nodiscard]] std::size_t master_restarts() const {
    std::size_t n = 0;
    for (const SimConfig::Failure& f : sim.failures) {
      if (f.kind == SimConfig::FailureKind::kMasterCrashRestart) ++n;
    }
    return n;
  }
  /// A silently-wrong worker is configured (both executors honor it).
  [[nodiscard]] bool silent_corrupt() const {
    for (const SimConfig::Failure& f : sim.failures) {
      if (f.kind == SimConfig::FailureKind::kSilentCorrupt) return true;
    }
    return false;
  }
  /// The gray-failure machinery (quarantine / audits / silent corruption)
  /// runs on this schedule — QuarantineStats may be nonzero.
  [[nodiscard]] bool gray() const {
    return sim.quarantine.armed() || silent_corrupt();
  }
};

/// Per-schedule accumulator, merged in index order so the campaign report
/// is identical for any campaign thread count.
struct Partial {
  std::vector<ChaosViolation> violations;
  FaultStats faults;
  SpeculationStats speculation;
  ChannelStats channel;
  CheckpointStats checkpoint;
  QuarantineStats quarantine;
  std::size_t runs = 0;
  std::size_t failures = 0;
  bool speculated = false;
  bool channel_faulty = false;
  bool master_restarted = false;
  bool gray_quarantine = false;
  bool gray_corruption = false;
  double max_makespan = 0.0;
};

Schedule draw_schedule(const ChaosConfig& config, util::RngStream& rng,
                       std::uint64_t sim_seed) {
  Schedule schedule;
  schedule.sim_seed = sim_seed;

  static constexpr dls::TechniqueId kTechniques[] = {
      dls::TechniqueId::kStatic, dls::TechniqueId::kGSS, dls::TechniqueId::kTSS,
      dls::TechniqueId::kFAC,    dls::TechniqueId::kAWF_B, dls::TechniqueId::kAF,
  };
  schedule.technique =
      kTechniques[static_cast<std::size_t>(rng.uniform_int(0, std::size(kTechniques) - 1))];

  SimConfig& sim = schedule.sim;
  sim.iteration_cov = rng.uniform(0.05, 0.5);
  static constexpr AvailabilityMode kModes[] = {
      AvailabilityMode::kSampleOnce, AvailabilityMode::kMarkovEpoch,
      AvailabilityMode::kConstantMean};
  sim.availability_mode = kModes[static_cast<std::size_t>(rng.uniform_int(0, 2))];

  // Rough makespan scale: total dedicated time over the group at the
  // availability law's midpoint — failure times land inside the run.
  const double est_makespan =
      (static_cast<double>(config.serial_iterations) +
       static_cast<double>(config.parallel_iterations) /
           static_cast<double>(config.processors)) /
      0.6;
  sim.epoch_length = std::max(1.0, est_makespan / 8.0);
  schedule.deadline = est_makespan * rng.uniform(0.8, 1.5);

  // Failures: distinct workers drawn from [1, processors) (worker 0 runs
  // the unprotected serial phase), each with a random kind.
  const std::size_t draws = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(config.max_failures)));
  std::vector<std::size_t> candidates;
  for (std::size_t w = 1; w < config.processors; ++w) candidates.push_back(w);
  for (std::size_t k = 0; k + 1 < candidates.size(); ++k) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(k),
                        static_cast<std::int64_t>(candidates.size() - 1)));
    std::swap(candidates[k], candidates[j]);
  }
  for (std::size_t k = 0; k < std::min(draws, candidates.size()); ++k) {
    SimConfig::Failure failure;
    failure.worker = candidates[k];
    failure.time = rng.uniform(0.05, 0.9) * est_makespan;
    const double kind = rng.uniform01();
    if (kind < 0.4) {
      failure.kind = SimConfig::FailureKind::kCrash;
    } else if (kind < 0.7) {
      failure.kind = SimConfig::FailureKind::kCrashRecover;
      failure.recovery_time = failure.time + rng.uniform(0.05, 0.5) * est_makespan;
    } else {
      failure.kind = SimConfig::FailureKind::kDegrade;
      failure.residual_availability = rng.uniform(0.05, 0.35);
    }
    sim.failures.push_back(failure);
  }

  if (config.speculation && rng.uniform01() < 0.65) {
    sim.speculation.enabled = true;
    sim.speculation.quantile = rng.uniform(1.0, 3.0);
    if (rng.uniform01() < 0.35) {
      sim.deadline_risk.enabled = true;
      sim.deadline_risk.deadline = schedule.deadline;
      sim.deadline_risk.check_interval = std::max(1.0, est_makespan / 10.0);
    }
  }

  // Unreliable-channel axis (MPI executor; the idealized executor ignores
  // it). Probabilities stay moderate so the retransmission budget plus the
  // failure detector always terminate the run.
  if (config.channel_faults && rng.uniform01() < 0.5) {
    sim.channel.drop_to_worker = rng.uniform(0.0, 0.25);
    sim.channel.drop_to_master = rng.uniform(0.0, 0.25);
    sim.channel.duplicate_to_worker = rng.uniform(0.0, 0.25);
    sim.channel.duplicate_to_master = rng.uniform(0.0, 0.25);
    sim.channel.reorder_to_worker = rng.uniform(0.0, 0.3);
    sim.channel.reorder_to_master = rng.uniform(0.0, 0.3);
    sim.channel.reorder_delay = rng.uniform(0.5, 2.0);
    if (rng.uniform01() < 0.3) {
      sim.channel.burst_gap_mean = est_makespan * rng.uniform(0.3, 1.0);
      sim.channel.burst_duration = est_makespan * rng.uniform(0.02, 0.08);
    }
  }

  // Master crash-restart axis (implies checkpointing). Crash and recovery
  // both land inside the estimated run so the restart reconciliation is
  // actually exercised mid-loop.
  if (config.master_restart && rng.uniform01() < 0.35) {
    SimConfig::Failure failure;
    failure.kind = SimConfig::FailureKind::kMasterCrashRestart;
    failure.time = rng.uniform(0.15, 0.6) * est_makespan;
    failure.recovery_time = failure.time + rng.uniform(0.05, 0.25) * est_makespan;
    sim.failures.push_back(failure);
    sim.checkpoint.interval = est_makespan * rng.uniform(0.05, 0.2);
  } else if (config.master_restart && rng.uniform01() < 0.25) {
    // Checkpointing without a master fault: the WAL must stay consistent
    // even when the restart path never runs.
    sim.checkpoint.enabled = true;
    sim.checkpoint.interval = est_makespan * rng.uniform(0.05, 0.2);
  }

  // Gray-failure axes, drawn LAST so every pre-existing axis sees the same
  // draw sequence (disabling them replays historical campaigns unchanged).
  // Gray fault targets come from the still-unfailed tail of the shuffled
  // candidate list — at most one failure per worker.
  std::size_t next_free = std::min(draws, candidates.size());
  if (config.fail_slow && rng.uniform01() < 0.45) {
    sim.quarantine.enabled = true;
    sim.quarantine.ewma_alpha = rng.uniform(0.2, 0.6);
    sim.quarantine.slowdown_threshold = rng.uniform(2.5, 5.0);
    sim.quarantine.min_observations =
        static_cast<std::uint64_t>(rng.uniform_int(2, 4));
    sim.quarantine.probe_interval = est_makespan * rng.uniform(0.05, 0.2);
    sim.quarantine.probe_successes = static_cast<std::size_t>(rng.uniform_int(1, 3));
    if (rng.uniform01() < 0.5) sim.quarantine.audit_rate = rng.uniform(0.1, 0.4);
    // A dedicated late-onset fail-slow worker (~10x slowdown) for the
    // detector to catch, when a failure-free worker remains.
    if (next_free < candidates.size()) {
      SimConfig::Failure failure;
      failure.worker = candidates[next_free++];
      failure.kind = SimConfig::FailureKind::kDegrade;
      failure.time = rng.uniform(0.1, 0.5) * est_makespan;
      failure.residual_availability = rng.uniform(0.08, 0.15);
      sim.failures.push_back(failure);
    }
  }
  if (config.corruption) {
    // Channel bit-flips (MPI executor): caught by checksum framing,
    // recovered by retransmission. Arms the hardened protocol through
    // ChannelModel::faulty(), so it also honors the channel_faults toggle.
    if (rng.uniform01() < 0.4 && config.channel_faults) {
      sim.channel.corrupt_to_worker = rng.uniform(0.005, 0.08);
      sim.channel.corrupt_to_master = rng.uniform(0.005, 0.08);
    }
    // A silently-wrong worker, paired with audits — the only layer that
    // can catch well-formed wrong results.
    if (rng.uniform01() < 0.35 && next_free < candidates.size()) {
      SimConfig::Failure failure;
      failure.worker = candidates[next_free++];
      failure.kind = SimConfig::FailureKind::kSilentCorrupt;
      failure.time = rng.uniform(0.0, 0.5) * est_makespan;
      failure.corrupt_probability = rng.uniform(0.3, 1.0);
      sim.failures.push_back(failure);
      if (sim.quarantine.audit_rate <= 0.0) {
        sim.quarantine.audit_rate = rng.uniform(0.1, 0.4);
      }
    }
  }
  return schedule;
}

void add_violation(Partial& partial, std::size_t schedule, std::uint64_t seed,
                   std::string executor, std::string invariant, std::string detail) {
  partial.violations.push_back(ChaosViolation{schedule, seed, std::move(executor),
                                              std::move(invariant), std::move(detail)});
}

/// The per-run invariants: finite Psi, exactly-once coverage reconstructed
/// from the trace, FaultStats/SpeculationStats consistency, and (MPI runs)
/// ChannelStats/WAL identities. `hardened_expected` is false for the
/// idealized executor (it ignores the channel and the master fault) and for
/// clean-channel MPI runs — those must leave the hardened counters all
/// zero. `expected_restarts` is the configured kMasterCrashRestart count.
/// `gray_expected` is Schedule::gray() (quarantine / audit / silent-corrupt
/// machinery armed); `corruption_expected` is true only for MPI runs whose
/// channel has corruption knobs — the disarm checks force every gray
/// counter to zero otherwise.
void check_run(const RunResult& run, std::int64_t parallel, std::size_t schedule,
               std::uint64_t seed, const char* executor, bool hardened_expected,
               std::size_t expected_restarts, bool gray_expected, bool corruption_expected,
               Partial& partial) {
  const std::size_t violations_before = partial.violations.size();
  auto fail = [&](const char* invariant, std::string detail) {
    add_violation(partial, schedule, seed, executor, invariant, std::move(detail));
  };

  if (!std::isfinite(run.makespan) || run.makespan < run.serial_end || run.serial_end < 0.0) {
    fail("finite_makespan", "makespan " + std::to_string(run.makespan) + ", serial_end " +
                                std::to_string(run.serial_end));
  }

  std::int64_t accepted = 0;
  for (const WorkerStats& worker : run.workers) accepted += worker.iterations;
  if (accepted != parallel) {
    fail("all_iterations_accepted", "accepted " + std::to_string(accepted) + " of " +
                                        std::to_string(parallel));
  }

  // Exactly-once: winning entries (not lost, not cancelled) tile the
  // parallel iteration space with no overlap and no hole.
  std::vector<char> covered(static_cast<std::size_t>(parallel), 0);
  std::uint64_t lost_entries = 0;
  std::int64_t dispatched_from_pool = 0;
  std::uint64_t backup_entries = 0;
  std::uint64_t audit_entries = 0;
  std::uint64_t probe_entries = 0;
  for (const ChunkTraceEntry& entry : run.trace) {
    if (entry.first < 0 || entry.iterations <= 0 || entry.first + entry.iterations > parallel) {
      fail("trace_range", "entry [" + std::to_string(entry.first) + ", +" +
                              std::to_string(entry.iterations) + ") outside [0, " +
                              std::to_string(parallel) + ")");
      continue;
    }
    if (entry.audit) {
      // Audit replicas are side-channel verification: they never take from
      // the pool, never deliver coverage, and their losses are counted as
      // audits_abandoned, not chunks_lost.
      ++audit_entries;
      continue;
    }
    if (entry.probe) ++probe_entries;
    if (entry.lost) ++lost_entries;
    if (entry.speculative) {
      ++backup_entries;
    } else {
      dispatched_from_pool += entry.iterations;
    }
    if (entry.lost || entry.cancelled) continue;
    for (std::int64_t i = entry.first; i < entry.first + entry.iterations; ++i) {
      if (covered[static_cast<std::size_t>(i)]) {
        fail("exactly_once", "iteration " + std::to_string(i) + " delivered twice");
        break;
      }
      covered[static_cast<std::size_t>(i)] = 1;
    }
  }
  for (std::int64_t i = 0; i < parallel; ++i) {
    if (!covered[static_cast<std::size_t>(i)]) {
      fail("exactly_once", "iteration " + std::to_string(i) + " never delivered");
      break;
    }
  }

  const FaultStats& faults = run.faults;
  if (faults.chunks_lost != lost_entries) {
    fail("faults_consistent", "chunks_lost " + std::to_string(faults.chunks_lost) + " but " +
                                  std::to_string(lost_entries) + " lost trace entries");
  }
  // Every give_back is re-taken from the pool, so pool dispatches account
  // for the loop plus exactly the re-executed iterations.
  if (dispatched_from_pool != parallel + faults.iterations_reexecuted) {
    fail("faults_consistent",
         "pool dispatched " + std::to_string(dispatched_from_pool) + " != " +
             std::to_string(parallel) + " + reexecuted " +
             std::to_string(faults.iterations_reexecuted));
  }
  if (faults.workers_recovered > faults.workers_crashed) {
    fail("faults_consistent", "more recoveries than crashes");
  }

  const SpeculationStats& spec = run.speculation;
  if (spec.backups_launched !=
      spec.backups_won + spec.backups_cancelled + spec.backups_lost) {
    fail("speculation_identity",
         "launched " + std::to_string(spec.backups_launched) + " != won " +
             std::to_string(spec.backups_won) + " + cancelled " +
             std::to_string(spec.backups_cancelled) + " + lost " +
             std::to_string(spec.backups_lost));
  }
  if (spec.backups_launched != backup_entries) {
    fail("speculation_identity", "launched " + std::to_string(spec.backups_launched) +
                                     " but " + std::to_string(backup_entries) +
                                     " speculative trace entries");
  }
  if (spec.backups_launched > spec.stragglers_flagged) {
    fail("speculation_identity", "more backups than flagged stragglers");
  }

  const ChannelStats& chan = run.channel;
  const CheckpointStats& ckpt = run.checkpoint;
  if (chan.burst_drops > chan.drops) {
    fail("channel_identity", "burst_drops " + std::to_string(chan.burst_drops) +
                                 " > drops " + std::to_string(chan.drops));
  }
  if (chan.dedup_hits > chan.duplicates + chan.retransmits) {
    fail("channel_identity",
         "dedup_hits " + std::to_string(chan.dedup_hits) + " > duplicates " +
             std::to_string(chan.duplicates) + " + retransmits " +
             std::to_string(chan.retransmits));
  }
  bool any_retransmitted_entry = false;
  for (const ChunkTraceEntry& entry : run.trace) {
    any_retransmitted_entry = any_retransmitted_entry || entry.retransmitted;
  }
  if (any_retransmitted_entry && chan.retransmits == 0) {
    fail("channel_identity", "retransmitted trace entry but zero retransmits");
  }
  if (!hardened_expected && (chan.active() || ckpt.active() || !run.wal.empty())) {
    fail("channel_disarmed", "hardened counters nonzero on a clean-channel run");
  }
  if (ckpt.master_restarts != expected_restarts) {
    fail("master_restart", "master_restarts " + std::to_string(ckpt.master_restarts) +
                               " != configured " + std::to_string(expected_restarts));
  }
  if (ckpt.wal_records != run.wal.size()) {
    fail("wal_consistent", "wal_records " + std::to_string(ckpt.wal_records) + " != " +
                               std::to_string(run.wal.size()) + " WAL entries");
  }
  std::uint64_t restart_records = 0;
  for (const WalRecord& rec : run.wal) {
    if (rec.kind == WalRecord::Kind::kRestart) ++restart_records;
  }
  if (restart_records != ckpt.master_restarts) {
    fail("wal_consistent", std::to_string(restart_records) +
                               " restart WAL records but master_restarts " +
                               std::to_string(ckpt.master_restarts));
  }

  // Gray-failure invariants: corruption is always caught (checksum framing
  // discards EVERY corrupted frame — one can never reach record()), the
  // quarantine/audit counters obey their bookkeeping identities and match
  // the lifecycle events, and nothing but canary probes is ever dispatched
  // to a worker inside its quarantine window.
  const QuarantineStats& quar = run.quarantine;
  if (chan.corrupted != chan.corrupt_discarded) {
    fail("corruption_identity", "corrupted " + std::to_string(chan.corrupted) +
                                    " != discarded " +
                                    std::to_string(chan.corrupt_discarded));
  }
  if (!corruption_expected && (chan.corrupted != 0 || chan.corrupt_discarded != 0)) {
    fail("corruption_disarmed", "corruption counters nonzero on a corruption-free run");
  }
  if (!gray_expected && quar.active()) {
    fail("quarantine_disarmed", "gray counters nonzero on a gray-free run");
  }
  if (quar.quarantines != quar.fail_slow_trips + quar.audit_trips) {
    fail("quarantine_identity",
         "quarantines " + std::to_string(quar.quarantines) + " != fail-slow " +
             std::to_string(quar.fail_slow_trips) + " + audit " +
             std::to_string(quar.audit_trips));
  }
  if (quar.reinstatements > quar.quarantines) {
    fail("quarantine_identity", "more reinstatements than quarantines");
  }
  if (quar.probes_healthy > quar.probes_launched) {
    fail("quarantine_identity", "more healthy probes than probes launched");
  }
  if (quar.audits_launched !=
      quar.audits_matched + quar.audit_mismatches + quar.audits_abandoned) {
    fail("audit_identity",
         "launched " + std::to_string(quar.audits_launched) + " != matched " +
             std::to_string(quar.audits_matched) + " + mismatches " +
             std::to_string(quar.audit_mismatches) + " + abandoned " +
             std::to_string(quar.audits_abandoned));
  }
  if (quar.audits_launched != audit_entries) {
    fail("audit_identity", "launched " + std::to_string(quar.audits_launched) + " but " +
                               std::to_string(audit_entries) + " audit trace entries");
  }
  if (quar.probes_launched != probe_entries) {
    fail("quarantine_identity", "probes_launched " + std::to_string(quar.probes_launched) +
                                    " but " + std::to_string(probe_entries) +
                                    " probe trace entries");
  }

  // Reconstruct per-worker quarantine windows from the lifecycle events
  // (time-sorted by finalize) and cross-check the event counts.
  std::uint64_t quarantine_events = 0;
  std::uint64_t restore_events = 0;
  std::uint64_t probe_events = 0;
  std::uint64_t mismatch_events = 0;
  std::uint64_t corrupt_events = 0;
  std::vector<double> open(run.workers.size(), -1.0);
  std::vector<std::vector<std::pair<double, double>>> windows(run.workers.size());
  for (const LifecycleEvent& event : run.events) {
    if (event.worker >= run.workers.size()) continue;
    switch (event.kind) {
      case obs::FlightEventKind::kWorkerQuarantined:
        ++quarantine_events;
        if (open[event.worker] >= 0.0) {
          fail("quarantine_events", "worker " + std::to_string(event.worker) +
                                        " quarantined while already quarantined");
        }
        open[event.worker] = event.time;
        break;
      case obs::FlightEventKind::kWorkerRestored:
        ++restore_events;
        if (open[event.worker] < 0.0) {
          fail("quarantine_events", "worker " + std::to_string(event.worker) +
                                        " restored without a quarantine");
        } else {
          windows[event.worker].emplace_back(open[event.worker], event.time);
          open[event.worker] = -1.0;
        }
        break;
      case obs::FlightEventKind::kCanaryProbe:
        ++probe_events;
        break;
      case obs::FlightEventKind::kAuditMismatch:
        ++mismatch_events;
        break;
      case obs::FlightEventKind::kMessageCorrupted:
        ++corrupt_events;
        break;
      default:
        break;
    }
  }
  for (std::size_t w = 0; w < open.size(); ++w) {
    if (open[w] >= 0.0) {
      windows[w].emplace_back(open[w], std::numeric_limits<double>::infinity());
    }
  }
  if (quarantine_events != quar.quarantines) {
    fail("quarantine_events", std::to_string(quarantine_events) +
                                  " quarantine events but quarantines " +
                                  std::to_string(quar.quarantines));
  }
  if (restore_events != quar.reinstatements) {
    fail("quarantine_events", std::to_string(restore_events) +
                                  " restore events but reinstatements " +
                                  std::to_string(quar.reinstatements));
  }
  if (probe_events != quar.probes_launched) {
    fail("quarantine_events", std::to_string(probe_events) + " probe events but launched " +
                                  std::to_string(quar.probes_launched));
  }
  if (mismatch_events != quar.audit_mismatches) {
    fail("quarantine_events", std::to_string(mismatch_events) +
                                  " mismatch events but audit_mismatches " +
                                  std::to_string(quar.audit_mismatches));
  }
  if (corrupt_events != chan.corrupted) {
    fail("corruption_identity", std::to_string(corrupt_events) +
                                    " corruption events but corrupted " +
                                    std::to_string(chan.corrupted));
  }
  bool quarantine_respected = true;
  for (const ChunkTraceEntry& entry : run.trace) {
    if (!quarantine_respected) break;
    if (entry.probe || entry.worker >= windows.size()) continue;
    for (const auto& window : windows[entry.worker]) {
      if (entry.dispatch_time > window.first && entry.dispatch_time < window.second) {
        fail("quarantine_respected",
             "worker " + std::to_string(entry.worker) + " dispatched a non-probe chunk at " +
                 std::to_string(entry.dispatch_time) + " inside quarantine [" +
                 std::to_string(window.first) + ", " + std::to_string(window.second) + ")");
        quarantine_respected = false;
        break;
      }
    }
  }

  partial.faults.accumulate(faults);
  partial.speculation.accumulate(spec);
  partial.channel.accumulate(chan);
  partial.checkpoint.accumulate(ckpt);
  partial.quarantine.accumulate(quar);
  partial.max_makespan = std::max(partial.max_makespan, run.makespan);
  partial.runs += 1;

  // A violated run is exactly what the flight recorder exists for: dump
  // its event tail (when the sink is armed) with the first violation as
  // the triggering anomaly.
  if (partial.violations.size() > violations_before) {
    const ChaosViolation& first = partial.violations[violations_before];
    obs::FlightSink::global().maybe_dump(
        run.flight, obs::FlightAnomaly{"chaos_invariant",
                                       first.invariant + ": " + first.detail, run.makespan});
  }
}

}  // namespace

ChaosReport run_chaos_campaign(const ChaosConfig& config) {
  if (config.schedules == 0) {
    throw std::invalid_argument("run_chaos_campaign: schedules must be >= 1");
  }
  if (config.processors < 2) {
    throw std::invalid_argument("run_chaos_campaign: processors must be >= 2");
  }
  if (config.parallel_iterations <= 0 || config.serial_iterations < 0) {
    throw std::invalid_argument("run_chaos_campaign: bad iteration counts");
  }
  if (config.max_failures == 0 || config.max_failures >= config.processors) {
    throw std::invalid_argument(
        "run_chaos_campaign: max_failures must be in [1, processors - 1]");
  }
  if (config.replications == 0) {
    throw std::invalid_argument("run_chaos_campaign: replications must be >= 1");
  }

  // One application and availability law shared by every schedule: the
  // chaos variation lives in the fault schedules, not the workload.
  const double total_time =
      static_cast<double>(config.serial_iterations + config.parallel_iterations);
  const workload::Application application(
      "chaos", config.serial_iterations, config.parallel_iterations,
      {workload::TimeLaw{workload::TimeLawKind::kNormal, total_time, 0.2}});
  const sysmodel::AvailabilitySpec availability(
      "chaos", {pmf::Pmf::uniform_over({0.4, 0.7, 1.0})});
  const MessageModel messages;

  const util::SeedSequence seeds(config.seed);
  std::vector<Partial> partials(config.schedules);

  util::parallel_for_index(
      config.schedules,
      config.threads == 0 ? util::default_thread_count() : config.threads,
      [&](std::size_t index) {
        Partial& partial = partials[index];
        util::RngStream rng = seeds.stream(2 * index);
        const std::uint64_t sim_seed = seeds.child(2 * index + 1);
        const Schedule schedule = draw_schedule(config, rng, sim_seed);
        partial.failures = schedule.sim.failures.size();
        partial.speculated = schedule.sim.speculation.enabled;
        partial.channel_faulty = schedule.sim.channel.faulty();
        partial.master_restarted = schedule.master_restarts() > 0;
        partial.gray_quarantine = schedule.sim.quarantine.armed();
        partial.gray_corruption =
            schedule.sim.channel.corrupting() || schedule.silent_corrupt();
        const bool hardened = schedule.hardened();
        const std::size_t expected_restarts = schedule.master_restarts();
        const bool gray = schedule.gray();

        CDSF_LOG_DEBUG << "chaos schedule " << index << " seed " << sim_seed << " technique "
                       << dls::technique_name(schedule.technique) << " failures "
                       << partial.failures << (partial.speculated ? " +speculation" : "");
        CDSF_LOG_DEBUG << "  mode " << static_cast<int>(schedule.sim.availability_mode)
                       << " cov " << schedule.sim.iteration_cov << " epoch "
                       << schedule.sim.epoch_length;
        for (const SimConfig::Failure& f : schedule.sim.failures) {
          CDSF_LOG_DEBUG << "  failure worker " << f.worker << " time " << f.time << " kind "
                         << static_cast<int>(f.kind) << " residual "
                         << f.residual_availability << " recovery " << f.recovery_time;
        }
        if (schedule.sim.channel.faulty()) {
          const ChannelModel& ch = schedule.sim.channel;
          CDSF_LOG_DEBUG << "  channel drop " << ch.drop_to_worker << "/" << ch.drop_to_master
                         << " dup " << ch.duplicate_to_worker << "/" << ch.duplicate_to_master
                         << " reorder " << ch.reorder_to_worker << "/" << ch.reorder_to_master
                         << " delay " << ch.reorder_delay << " burst gap "
                         << ch.burst_gap_mean << " dur " << ch.burst_duration;
        }
        if (schedule.sim.checkpoint.enabled || schedule.master_restarts() > 0) {
          CDSF_LOG_DEBUG << "  checkpoint interval " << schedule.sim.checkpoint.interval;
        }
        if (gray) {
          const SimConfig::Quarantine& q = schedule.sim.quarantine;
          CDSF_LOG_DEBUG << "  quarantine enabled " << q.enabled << " threshold "
                         << q.slowdown_threshold << " audit_rate " << q.audit_rate
                         << " corrupt " << schedule.sim.channel.corrupt_to_worker << "/"
                         << schedule.sim.channel.corrupt_to_master << " silent "
                         << schedule.silent_corrupt();
        }
        SimConfig traced = schedule.sim;
        traced.collect_trace = true;
        try {
          CDSF_LOG_DEBUG << "chaos schedule " << index << " ideal";
          const RunResult run =
              simulate_loop(application, 0, config.processors, availability,
                            schedule.technique, traced, sim_seed);
          // The idealized executor ignores the channel and the master fault:
          // its hardened counters must stay zero even on hardened schedules
          // (but it runs the quarantine/audit machinery).
          check_run(run, config.parallel_iterations, index, sim_seed, "ideal", false, 0,
                    gray, false, partial);
        } catch (const std::exception& error) {
          add_violation(partial, index, sim_seed, "ideal", "exception", error.what());
        }

        if (config.include_mpi) {
          // The message-passing executor ignores the deadline-risk monitor
          // (idealized executors only); everything else carries over.
          SimConfig mpi_config = traced;
          mpi_config.deadline_risk = SimConfig::DeadlineRisk{};
          try {
            CDSF_LOG_DEBUG << "chaos schedule " << index << " mpi";
            const MpiRunResult mpi =
                simulate_loop_mpi(application, 0, config.processors, availability,
                                  schedule.technique, mpi_config, messages, sim_seed);
            check_run(mpi.run, config.parallel_iterations, index, sim_seed, "mpi", hardened,
                      expected_restarts, gray, schedule.sim.channel.corrupting(), partial);
          } catch (const std::exception& error) {
            add_violation(partial, index, sim_seed, "mpi", "exception", error.what());
          }

          // Hardened schedules: the MPI replicated summary (including the
          // channel/checkpoint totals) must be bit-identical across thread
          // counts — channel randomness is replication-local by design.
          if (hardened && config.thread_counts.size() >= 2) {
            try {
              CDSF_LOG_DEBUG << "chaos schedule " << index << " mpi replicated";
              SimConfig rep_config = schedule.sim;
              rep_config.deadline_risk = SimConfig::DeadlineRisk{};
              const ReplicationSummary baseline = simulate_replicated_mpi(
                  application, 0, config.processors, availability, schedule.technique,
                  rep_config, messages, sim_seed, config.replications, schedule.deadline,
                  config.thread_counts.front());
              partial.runs += config.replications;
              for (std::size_t k = 1; k < config.thread_counts.size(); ++k) {
                const ReplicationSummary other = simulate_replicated_mpi(
                    application, 0, config.processors, availability, schedule.technique,
                    rep_config, messages, sim_seed, config.replications, schedule.deadline,
                    config.thread_counts[k]);
                partial.runs += config.replications;
                if (baseline != other) {
                  add_violation(partial, index, sim_seed, "mpi_replicated",
                                "thread_determinism",
                                "summary differs between threads=" +
                                    std::to_string(config.thread_counts.front()) +
                                    " and threads=" +
                                    std::to_string(config.thread_counts[k]));
                }
              }
            } catch (const std::exception& error) {
              add_violation(partial, index, sim_seed, "mpi_replicated", "exception",
                            error.what());
            }
          }
        }

        if (config.thread_counts.size() >= 2) {
          try {
            CDSF_LOG_DEBUG << "chaos schedule " << index << " replicated";
            const ReplicationSummary baseline = simulate_replicated(
                application, 0, config.processors, availability, schedule.technique,
                schedule.sim, sim_seed, config.replications, schedule.deadline,
                config.thread_counts.front());
            partial.runs += config.replications;
            for (std::size_t k = 1; k < config.thread_counts.size(); ++k) {
              const ReplicationSummary other = simulate_replicated(
                  application, 0, config.processors, availability, schedule.technique,
                  schedule.sim, sim_seed, config.replications, schedule.deadline,
                  config.thread_counts[k]);
              partial.runs += config.replications;
              if (baseline != other) {
                add_violation(partial, index, sim_seed, "replicated", "thread_determinism",
                              "summary differs between threads=" +
                                  std::to_string(config.thread_counts.front()) +
                                  " and threads=" +
                                  std::to_string(config.thread_counts[k]));
              }
            }
          } catch (const std::exception& error) {
            add_violation(partial, index, sim_seed, "replicated", "exception", error.what());
          }
        }
      });

  ChaosReport report;
  report.schedules_run = config.schedules;
  for (const Partial& partial : partials) {
    report.runs_executed += partial.runs;
    report.failures_injected += partial.failures;
    report.schedules_with_speculation += partial.speculated ? 1 : 0;
    report.schedules_with_channel_faults += partial.channel_faulty ? 1 : 0;
    report.schedules_with_master_restart += partial.master_restarted ? 1 : 0;
    report.schedules_with_quarantine += partial.gray_quarantine ? 1 : 0;
    report.schedules_with_corruption += partial.gray_corruption ? 1 : 0;
    for (const ChaosViolation& violation : partial.violations) {
      report.violations.push_back(violation);
    }
    report.faults_total.accumulate(partial.faults);
    report.speculation_total.accumulate(partial.speculation);
    report.channel_total.accumulate(partial.channel);
    report.checkpoint_total.accumulate(partial.checkpoint);
    report.quarantine_total.accumulate(partial.quarantine);
    report.max_makespan = std::max(report.max_makespan, partial.max_makespan);
  }
  for (const ChaosViolation& violation : report.violations) {
    CDSF_LOG_WARN << "chaos schedule " << violation.schedule << " (seed " << violation.seed
                  << ", " << violation.executor << "): " << violation.invariant << " — "
                  << violation.detail;
  }
  return report;
}

}  // namespace cdsf::sim
