// Overload robustness for the dynamic manager: admission policies, bounded
// queues with deadline-aware shedding, and the graceful-degradation ladder.
//
// The dynamic manager (cdsf/dynamic_manager.hpp) historically admitted
// every arrival into an unbounded FIFO, so once offered load exceeds
// capacity the deadline-hit rate collapses silently — queueing delay eats
// every application's slack. This header makes overload a first-class,
// *configured* failure mode:
//
//   * AdmissionPolicy::kAcceptAll   — today's behavior, the default; runs
//     are byte-identical to the pre-admission manager.
//   * AdmissionPolicy::kBoundedQueue — a bounded waiting queue (FIFO or
//     EDF) with optional deadline-aware shedding; arrivals that find the
//     queue full are rejected outright.
//   * AdmissionPolicy::kRho2Aware   — the bounded queue plus a
//     probability admission test: on arrival the manager estimates the
//     application's best achievable success probability against its
//     remaining slack (the same allocation-time `probability` machinery,
//     evaluated against the rho_2-aware planning spec and discounted by
//     the current backlog) and rejects applications that could not meet
//     their deadline anyway, protecting the slack of already-admitted
//     work.
//
// The graceful-degradation ladder (AdmissionConfig::ladder) adds staged
// responses to *sustained* overload, driven by an EWMA of queue occupancy
// and rejection pressure — see DegradationTier.
//
// Everything here is deterministic: no RNG, no wall clock; decisions are
// pure functions of the arrival stream and the EWMA state, so runs stay
// byte-identical across repeated seeds and any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/names.hpp"

namespace cdsf::core {

/// What the manager does with an arriving application (see file comment).
enum class AdmissionPolicy : std::uint8_t {
  kAcceptAll,
  kBoundedQueue,
  kRho2Aware,
};

/// Stable identifiers — used by the [admission] scenario section and the
/// --admission CLI flag.
inline constexpr util::NameTable<AdmissionPolicy, 3> kAdmissionPolicyNames{{
    {AdmissionPolicy::kAcceptAll, "accept-all"},
    {AdmissionPolicy::kBoundedQueue, "bounded"},
    {AdmissionPolicy::kRho2Aware, "rho2"},
}};

[[nodiscard]] const char* admission_policy_name(AdmissionPolicy policy);

/// Inverse of admission_policy_name. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] AdmissionPolicy admission_policy_from_name(const std::string& name);

/// Order of the bounded waiting queue.
enum class QueueOrder : std::uint8_t {
  kFifo,  // arrival order (the accept-all queue's order)
  kEdf,   // earliest absolute deadline first; ties resolve to arrival order
};

/// Stable identifiers — used by the [admission] scenario section, the
/// --queue-order CLI flag and the dynamic report.
inline constexpr util::NameTable<QueueOrder, 2> kQueueOrderNames{{
    {QueueOrder::kFifo, "fifo"},
    {QueueOrder::kEdf, "edf"},
}};

[[nodiscard]] const char* queue_order_name(QueueOrder order);

/// The graceful-degradation ladder: staged responses to sustained
/// overload, stepped one tier per arrival by the overload EWMA. Each tier
/// includes every effect of the tiers below it.
enum class DegradationTier : std::uint8_t {
  kNormal = 0,
  /// Tighten speculation: executions run with speculative re-execution
  /// forced on (or the straggler quantile tightened by
  /// Speculation::kEscalationFactor when it already is) — protect the
  /// deadlines of admitted work first.
  kTightSpeculation = 1,
  /// Shed replication/audit overheads: audit re-execution
  /// (Quarantine::audit_rate) is suppressed so no processor-time is spent
  /// re-running already-accepted chunks while the queue is backed up.
  kLeanOverheads = 2,
  /// Coarser allocation: the candidate set collapses to the largest
  /// admissible group per processor type, so allocation decisions are
  /// O(types) and each admitted application gets the strongest group the
  /// platform can offer (maximum success probability) instead of being
  /// right-sized to leave room for a queue the ladder is draining anyway.
  kCoarseAllocation = 3,
  /// Reject every new arrival until the overload EWMA recovers.
  kReject = 4,
};

/// Stable lowercase identifier for a tier ("normal", "tight_speculation",
/// "lean_overheads", "coarse_allocation", "reject").
[[nodiscard]] const char* degradation_tier_name(DegradationTier tier);

/// Overload-robustness knobs. The default (accept-all, everything else
/// inert) reproduces the historical manager byte-for-byte; any other
/// policy requires a bounded queue. Contradictory combinations are
/// rejected by validate_admission (not silently ignored).
struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kAcceptAll;
  /// Waiting-queue capacity (>= 1 for any bounded policy; must stay 0 for
  /// accept-all, whose queue is unbounded).
  std::size_t queue_capacity = 0;
  QueueOrder queue_order = QueueOrder::kFifo;
  /// kRho2Aware only: arrivals whose backlog-discounted best achievable
  /// success probability falls below this floor are rejected at arrival.
  double admit_floor = 0.0;
  /// Deadline-aware shedding: a queued application whose best achievable
  /// success probability (full platform, remaining slack) has decayed
  /// below this floor is evicted instead of burning processor time.
  /// 0 disables shedding. Requires a bounded policy.
  double shed_floor = 0.0;
  /// Arms the graceful-degradation ladder (bounded policies only).
  bool ladder = false;
  /// EWMA smoothing factor in (0, 1] for the overload signal (weight of
  /// the newest arrival's observation).
  double ladder_alpha = 0.3;
  /// Step UP one tier when the overload EWMA exceeds this threshold...
  double overload_threshold = 0.75;
  /// ...and step DOWN one tier when it falls below this (must be strictly
  /// smaller than overload_threshold — the hysteresis band).
  double recover_threshold = 0.25;

  /// True when any admission machinery runs (policy != accept-all).
  [[nodiscard]] bool active() const noexcept {
    return policy != AdmissionPolicy::kAcceptAll;
  }
};

/// Throws std::invalid_argument when the config is contradictory
/// (shedding or ladder with accept-all, bounded policy without capacity,
/// out-of-range floors or thresholds, inverted hysteresis band, ...).
void validate_admission(const AdmissionConfig& config);

/// Admission-control accounting for one dynamic-manager run. Closed
/// identity (checked by the chaos arrival-storm axis and the unit tests):
///
///     arrivals == admitted + rejected + shed
///
/// `queued` is a flow counter (applications that waited in the queue at
/// least once) and deliberately outside the identity: a queued
/// application is later either admitted or shed.
struct AdmissionStats {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;   // started execution (immediately or dequeued)
  std::uint64_t queued = 0;     // entered the waiting queue at least once
  std::uint64_t rejected = 0;   // refused at arrival
  std::uint64_t shed = 0;       // evicted from the queue by the shed floor
  /// Ladder transitions (up and down) and the highest tier reached.
  std::uint64_t ladder_steps = 0;
  std::uint64_t max_tier = 0;
  std::uint64_t peak_queue_depth = 0;

  friend bool operator==(const AdmissionStats&, const AdmissionStats&) = default;

  [[nodiscard]] bool identity_holds() const noexcept {
    return arrivals == admitted + rejected + shed;
  }

  /// Adds one run's counters (max_tier and peak_queue_depth take the max).
  void accumulate(const AdmissionStats& other) noexcept {
    arrivals += other.arrivals;
    admitted += other.admitted;
    queued += other.queued;
    rejected += other.rejected;
    shed += other.shed;
    ladder_steps += other.ladder_steps;
    max_tier = std::max(max_tier, other.max_tier);
    peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
  }
};

/// ----------------------------------------------------------------------
/// Arrival-storm chaos axis: randomized overload campaigns against the
/// dynamic manager, with the admission identity and no-admitted-job-
/// stranded invariants checked on every run. Lives here (not in
/// sim/chaos.*) because the dynamic manager sits above the sim layer; the
/// `cdsf chaos` subcommand runs it alongside the executor campaign.

struct ArrivalStormConfig {
  std::size_t schedules = 12;
  std::uint64_t seed = 2026;
  /// Applications per storm run (kept small; every schedule runs the
  /// manager twice to check determinism).
  std::size_t applications = 10;
};

struct ArrivalStormViolation {
  std::size_t schedule = 0;
  std::uint64_t seed = 0;
  std::string policy;
  std::string invariant;
  std::string detail;
};

struct ArrivalStormReport {
  std::size_t schedules_run = 0;
  std::size_t schedules_accept_all = 0;
  std::size_t schedules_bounded = 0;
  std::size_t schedules_rho2 = 0;
  AdmissionStats totals;  // element-wise sum over every storm run
  std::vector<ArrivalStormViolation> violations;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

/// Runs the arrival-storm campaign: every schedule draws an admission
/// policy (round-robin over accept-all / bounded-FIFO / rho2+ladder), an
/// over-capacity arrival rate, and a runtime availability case, runs the
/// dynamic manager twice with the same seed, and checks the admission
/// identity, the no-stranded-admission invariant, and bit-identical
/// repeat determinism. Throws std::invalid_argument when schedules == 0.
[[nodiscard]] ArrivalStormReport run_arrival_storm_campaign(const ArrivalStormConfig& config);

}  // namespace cdsf::core
