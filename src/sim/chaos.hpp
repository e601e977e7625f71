// Chaos campaign harness: randomized fault-schedule fuzzing of the
// fault-tolerant Stage II executors.
//
// Each schedule draws a seeded random mix of crash / crash-recover /
// degrade failures (worker 0 stays crash-free — the serial phase has no
// fault tolerance), a technique, an availability mode, speculation knobs,
// unreliable-channel faults (drop / duplicate / reorder probabilities plus
// burst-loss episodes), and a mid-run master crash-restart with
// checkpointing, then executes it on BOTH executors (idealized
// simulate_loop and message-passing simulate_loop_mpi) and checks hard
// invariants that must hold for EVERY schedule:
//
//   * the makespan Psi is finite and >= the serial completion,
//   * every parallel iteration is executed (accepted) exactly once —
//     reconstructed from the chunk trace: the winning entries (not lost,
//     not cancelled) must tile [0, parallel_iterations) with no overlap —
//     even under message duplication and master restarts,
//   * FaultStats is consistent with the trace (chunks_lost == lost
//     entries; dispatched iterations == total + re-executed),
//   * SpeculationStats satisfies the bookkeeping identity
//     backups_launched == backups_won + backups_cancelled + backups_lost,
//   * ChannelStats satisfies burst_drops <= drops and
//     dedup_hits <= duplicates + retransmits, and stays all-zero when the
//     channel is clean and checkpointing is off (structural disarm),
//   * the WAL is consistent: checkpoint.wal_records == wal size and the
//     restart records match checkpoint.master_restarts (exactly one per
//     configured kMasterCrashRestart failure),
//   * gray failures (fail-slow quarantine, payload corruption, audits)
//     obey their identities: every corrupted frame is discarded
//     (corrupted == corrupt_discarded — a corrupted report never reaches
//     record()), quarantines == fail_slow_trips + audit_trips with
//     reinstatements <= quarantines and probes_healthy <= probes_launched,
//     audits_launched == matched + mismatches + abandoned, NO non-probe
//     chunk is dispatched to a worker inside its quarantine window
//     (reconstructed from the lifecycle events), audit replicas never
//     enter the exactly-once coverage, and every gray counter stays zero
//     when the gray config is absent (structural disarm),
//   * replicated summaries are BIT-IDENTICAL across thread counts — for
//     hardened schedules on the MPI executor too (channel randomness is
//     replication-local).
//
// A campaign is deterministic given its seed; violations carry the
// schedule index and seed so any failure replays in isolation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/master_worker.hpp"

namespace cdsf::sim {

/// Campaign shape. Defaults run the CI smoke configuration scaled up.
struct ChaosConfig {
  /// Randomized fault schedules to draw (>= 100 for a full campaign).
  std::size_t schedules = 100;
  std::uint64_t seed = 2026;
  /// Loop shape shared by every schedule.
  std::size_t processors = 6;
  static constexpr std::int64_t kSerialIterations = 24;
  std::int64_t parallel_iterations = 600;
  /// Failures injected per schedule (drawn in [1, max_failures], always on
  /// workers >= 1 so the serial phase survives).
  std::size_t max_failures = 3;
  /// Also run every schedule through the message-passing executor.
  bool include_mpi = true;
  /// Allow schedules to enable speculative re-execution (~2/3 of them) and
  /// the deadline-risk monitor (~1/3 of the speculating ones).
  bool speculation = true;
  /// Allow schedules to draw unreliable-channel faults for the MPI
  /// executor (~1/2 of them): drop / duplicate / reorder probabilities
  /// plus occasional burst-loss episodes.
  bool channel_faults = true;
  /// Allow schedules to inject a mid-run master crash-restart with
  /// checkpointing (~1/3 of them; MPI executor only — the idealized
  /// executors have no explicit coordinator).
  bool master_restart = true;
  /// Allow schedules to arm the fail-slow quarantine (~0.45 of them;
  /// EWMA thresholds, canary probes, and — on half of those — audit-based
  /// result validation), usually alongside a dedicated late-onset degraded
  /// worker for the detector to catch. Drawn AFTER every pre-existing axis
  /// so disabling it replays historical campaigns unchanged.
  bool fail_slow = true;
  /// Allow schedules to draw payload-corruption faults: channel bit-flips
  /// (MPI executor, recovered by checksum + retransmit; also requires
  /// channel_faults — they ride the unreliable channel) and silently-wrong
  /// workers (kSilentCorrupt, caught only by audits).
  bool corruption = true;
  /// Thread counts the replicated determinism check compares; the first
  /// entry is the baseline. Fewer than 2 entries skips the check.
  std::vector<std::size_t> thread_counts = {1, 8};
  /// Replications per determinism comparison.
  std::size_t replications = 3;
  /// Campaign-level parallelism over schedules (0 = hardware default).
  std::size_t threads = 0;
};

/// One broken invariant. A passing campaign has none.
struct ChaosViolation {
  std::size_t schedule = 0;
  std::uint64_t seed = 0;            // replay seed of the schedule
  std::string executor;              // "ideal" | "mpi" | "replicated"
  std::string invariant;             // short id, e.g. "exactly_once"
  std::string detail;
};

/// Campaign outcome: invariant violations plus aggregate accounting.
struct ChaosReport {
  std::size_t schedules_run = 0;
  /// Individual simulations executed (both executors + determinism runs).
  std::size_t runs_executed = 0;
  std::size_t failures_injected = 0;
  std::size_t schedules_with_speculation = 0;
  std::size_t schedules_with_channel_faults = 0;
  std::size_t schedules_with_master_restart = 0;
  std::size_t schedules_with_quarantine = 0;
  std::size_t schedules_with_corruption = 0;
  std::vector<ChaosViolation> violations;
  FaultStats faults_total;             // summed over ideal + mpi runs
  SpeculationStats speculation_total;  // summed over ideal + mpi runs
  ChannelStats channel_total;          // summed over mpi runs (hardened only)
  CheckpointStats checkpoint_total;    // summed over mpi runs
  QuarantineStats quarantine_total;    // summed over ideal + mpi runs
  double max_makespan = 0.0;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

/// Runs the campaign. Deterministic given config.seed (any thread count).
/// Throws std::invalid_argument on a degenerate config.
[[nodiscard]] ChaosReport run_chaos_campaign(const ChaosConfig& config);

}  // namespace cdsf::sim
