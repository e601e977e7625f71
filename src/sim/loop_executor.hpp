// Master–worker simulation of one application execution under a DLS
// technique (Stage II of the CDSF).
//
// Execution model (matches the paper's assumptions, Section III/IV):
//  * The application runs alone on its allocated group of `processors`
//    workers, all of one processor type.
//  * Serial iterations execute first, on the master (worker 0); parallel
//    iterations are then dispatched in chunks sized by the DLS technique —
//    the classic self-scheduling protocol: an idle worker requests, the
//    technique answers with a chunk size, the worker computes.
//  * Iteration cost: one iteration's dedicated-processor time is drawn iid
//    from a law with mean = application mean time / total iterations and
//    configurable coefficient of variation. A per-run input-data factor
//    (the paper's uncertain input data) can scale a whole run.
//  * Availability: each worker owns an independent availability process
//    whose marginal law is the case PMF for the group's processor type
//    (Table I). An availability of a delivers an a-fraction of compute
//    rate, so a chunk of W dedicated time units started at t finishes at
//    the solution of the work integral (AvailabilityProcess::finish_time).
//  * Each chunk dispatch costs a fixed wall-clock overhead h before
//    computation starts.
//
// Techniques are built through a factory: the executor fills
// dls::TechniqueParams with the problem facts only it knows (worker count,
// iteration statistics, overhead h, and each worker's availability observed
// at time 0, which seeds WF/AWF weights) and then instantiates the policy.
// Everything is deterministic given the seed.
//
// The chunk lifecycle (assignments, the free-worker decision, the accept
// path, stragglers and their backups, the idle scans, the reclaim rule) is
// detail::ChunkLedger in sim_common, shared with master_worker.hpp. This
// executor is its ideal transport: a copy starts after h, completes at its
// computed end, and is lost the instant its worker crashes, which is also
// when a lost losing copy is recorded. The deadline-risk monitor runs here
// only. docs/fault_tolerance.md tabulates the transport differences.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dls/registry.hpp"
#include "dls/technique.hpp"
#include "obs/flight.hpp"
#include "stats/summary.hpp"
#include "sysmodel/availability.hpp"
#include "workload/application.hpp"

namespace cdsf::sim {

/// How worker availability evolves during the run.
enum class AvailabilityMode {
  /// Redrawn from the case PMF every epoch, independently.
  kIidEpoch,
  /// Epoch model with persistence (MarkovEpochAvailability).
  kMarkovEpoch,
  /// Every worker constant at the PMF's expected value.
  kConstantMean,
  /// Each worker draws once at t = 0 and keeps that value for the whole
  /// run (default). This is the paper's Stage II model: the load on a
  /// machine persists over one application execution, which is precisely
  /// why STATIC degrades and DLS pays off. It also reproduces the Stage I
  /// arithmetic E[T / a] in expectation.
  kSampleOnce,
  /// Deterministic day/night load cycle around the PMF's expected value
  /// (sysmodel::DiurnalAvailability); per-worker phases are spread evenly
  /// so the group's load rotates. Predictable drift — the regime where
  /// frozen WF weights go stale fastest. Knobs: diurnal_amplitude and
  /// diurnal_period below.
  kDiurnal,
};

/// Seeded unreliable-channel model for the message-passing executor:
/// per-direction drop / duplicate / reorder probabilities plus burst-loss
/// episodes. Every fault draw comes from a dedicated RNG stream fanned out
/// of the run seed, so a faulty channel never perturbs the work-sampling
/// or availability streams and runs stay deterministic.
struct ChannelModel {
  /// Per-message drop probability, master -> worker / worker -> master.
  double drop_to_worker = 0.0;
  double drop_to_master = 0.0;
  /// Probability a delivered message is duplicated (the copy is delivered
  /// independently, possibly reordered).
  double duplicate_to_worker = 0.0;
  double duplicate_to_master = 0.0;
  /// Probability a delivered copy is reordered: it picks up an extra
  /// delivery delay drawn uniformly from (0, reorder_delay].
  double reorder_to_worker = 0.0;
  double reorder_to_master = 0.0;
  double reorder_delay = 1.0;
  /// Burst-loss episodes (sysmodel::BurstWindows): episode gaps are
  /// exponential with mean `burst_gap_mean` (0 disables bursts), each
  /// episode lasts `burst_duration`, and EVERY message sent inside an
  /// episode is dropped (counted in ChannelStats::burst_drops).
  double burst_gap_mean = 0.0;
  double burst_duration = 0.0;
  /// Per-copy payload-corruption probability (seeded bit-flip model): a
  /// delivered copy arrives with a broken body, fails the receiver's
  /// checksum frame, and is discarded without processing or ack — the
  /// at-least-once retransmission machinery then recovers the payload, so
  /// a corrupted report can never reach Technique::record. Counted in
  /// ChannelStats::corrupted / corrupt_discarded.
  double corrupt_to_worker = 0.0;
  double corrupt_to_master = 0.0;
  /// Deterministic test hooks: unconditionally drop the first N payload
  /// messages in the given direction (before any probability draw).
  std::size_t force_drop_to_worker = 0;
  std::size_t force_drop_to_master = 0;
  /// Deterministic test hooks: unconditionally corrupt the first N
  /// delivered payload copies in the given direction (before the
  /// corruption probability draw).
  std::size_t force_corrupt_to_worker = 0;
  std::size_t force_corrupt_to_master = 0;
  /// First retransmit timeout; doubles (`rto_backoff`) after every unacked
  /// resend. Composes with the failure detector's false-suspicion timeout
  /// doubling: retransmission recovers lost MESSAGES, the detector
  /// recovers lost WORKERS.
  double rto = 2.0;
  double rto_backoff = 2.0;
  /// Retransmissions per message before the sender gives up and leaves
  /// recovery to the failure detector (0 = never retransmit — the pure
  /// timeout-recovery ablation arm).
  std::size_t max_retransmits = 8;

  /// True when any fault knob is nonzero — the switch that arms the
  /// hardened at-least-once protocol.
  [[nodiscard]] bool faulty() const noexcept {
    return drop_to_worker > 0.0 || drop_to_master > 0.0 || duplicate_to_worker > 0.0 ||
           duplicate_to_master > 0.0 || reorder_to_worker > 0.0 || reorder_to_master > 0.0 ||
           burst_gap_mean > 0.0 || force_drop_to_worker > 0 || force_drop_to_master > 0 ||
           corrupting();
  }

  /// True when any payload-corruption knob is nonzero (subset of faulty()).
  [[nodiscard]] bool corrupting() const noexcept {
    return corrupt_to_worker > 0.0 || corrupt_to_master > 0.0 || force_corrupt_to_worker > 0 ||
           force_corrupt_to_master > 0;
  }
};

/// Simulation knobs. Defaults reproduce the paper-scale experiments.
struct SimConfig {
  /// Wall-clock scheduling overhead h per chunk dispatch.
  double scheduling_overhead = 0.5;
  /// Coefficient of variation of a single iteration's dedicated time.
  double iteration_cov = 0.3;
  /// Per-run input-data factor ~ Normal(1, input_factor_cov), truncated to
  /// [0.1, inf); 0 disables it.
  double input_factor_cov = 0.0;
  /// Availability epoch length for the epoch-based modes.
  double epoch_length = 300.0;
  /// Markov persistence (probability an epoch repeats the previous value).
  /// The default correlation time epoch / (1 - persistence) = 1200 time
  /// units is long against chunk times (load persists — STATIC suffers,
  /// initial observations are meaningful) but short against a full
  /// execution (load drifts — WF's frozen weights go stale and the
  /// adaptive techniques earn their keep), matching the paper's A = 1 - Λ
  /// runtime-fluctuation model.
  double markov_persistence = 0.75;
  AvailabilityMode availability_mode = AvailabilityMode::kMarkovEpoch;
  /// kDiurnal only: oscillation amplitude around E[a] (clamped so the cycle
  /// stays within (0, 1]) and cycle period.
  double diurnal_amplitude = 0.2;
  double diurnal_period = 2000.0;
  /// When true, every worker of the group shares ONE availability process
  /// realization instead of drawing independently. With kSampleOnce this
  /// reproduces Stage I's arithmetic exactly: the whole group scales by a
  /// single availability draw, so a STATIC execution costs
  /// (s + p/n) * T / a (the model behind Table V and phi_1).
  bool shared_group_availability = false;
  /// Record per-chunk trace entries (costs memory; off by default).
  bool collect_trace = false;
  /// What an injected failure does to its worker.
  enum class FailureKind {
    /// Availability drops to `residual_availability` forever
    /// (sysmodel::FailingAvailability) — the worker limps, the in-flight
    /// chunk still (slowly) completes. The historical behavior.
    kDegrade,
    /// Availability drops to 0 forever (sysmodel::CrashingAvailability) —
    /// the worker is gone, its in-flight chunk is LOST and re-dispatched
    /// to the survivors by the fault-tolerance layer.
    kCrash,
    /// As kCrash, but the worker rejoins at `recovery_time` and resumes
    /// requesting work (with a clean slate; the lost chunk stays lost).
    kCrashRecover,
    /// MPI executor only: the MASTER process dies at `time` and restarts
    /// at `recovery_time` from its latest checkpoint + write-ahead log
    /// (see SimConfig::MasterCheckpoint). The `worker` field is ignored
    /// (the master is a dedicated coordinator, not a worker); at most one
    /// master failure per run, and `recovery_time` must be finite — a run
    /// without a master can never finish. The idealized executors have no
    /// explicit coordinator and ignore this kind (like fault_detection).
    kMasterCrashRestart,
    /// Gray failure: from `time` on the worker computes at FULL speed but
    /// each chunk it completes is silently WRONG with probability
    /// `corrupt_probability` — well-formed results that pass every
    /// checksum, invisible to the channel layer and the failure detector.
    /// Only audit-based re-execution (Quarantine::audit_rate) can catch
    /// it. No availability decorator is applied.
    kSilentCorrupt,
  };
  /// Injected processor failures, at most one per worker (duplicates are
  /// rejected with std::invalid_argument — stacking decorators silently
  /// would make the semantics order-dependent).
  struct Failure {
    std::size_t worker = 0;
    double time = 0.0;
    double residual_availability = 1e-3;  // kDegrade only
    FailureKind kind = FailureKind::kDegrade;
    /// kCrashRecover only: absolute time the worker rejoins (> time).
    double recovery_time = std::numeric_limits<double>::infinity();
    /// kSilentCorrupt only: probability in (0, 1] that a chunk completed
    /// after onset carries a wrong result.
    double corrupt_probability = 1.0;
  };
  std::vector<Failure> failures;
  /// Master-side dead-worker detection for the message-passing model
  /// (simulate_loop_mpi). The idealized executors observe crash events
  /// directly (zero detection latency); the MPI master only sees missing
  /// completion reports, so it arms a timeout per outstanding chunk and
  /// declares the worker dead after `max_probes` expirations with
  /// exponential backoff. Armed when a crash-kind failure is configured or
  /// the hardened channel protocol runs (a lost message looks like a dead
  /// worker); any other run arms no timeout.
  struct FaultDetection {
    /// When false, crash faults in the MPI model go undetected; a run that
    /// strands iterations then throws std::runtime_error instead of
    /// deadlocking (the ablation baseline).
    bool enabled = true;
    /// First timeout = factor x expected chunk round-trip (assignment
    /// latency + a-priori compute estimate + report latency).
    double timeout_factor = 3.0;
    /// Lower bound on any armed timeout.
    double min_timeout = 1.0;
    /// Multiplier on the probe interval after each expiration.
    double backoff = 2.0;
    /// Timeout expirations tolerated before the worker is declared dead.
    std::size_t max_probes = 2;
  };
  FaultDetection fault_detection;
  /// Speculative re-execution of straggler chunks. A worker that is alive
  /// but degraded (load spike, kDegrade failure) never trips the crash
  /// detector, yet a single slow chunk at the tail of the loop can push the
  /// makespan past the deadline. When enabled, the master flags a
  /// dispatched chunk as a *straggler* once its elapsed time exceeds a
  /// quantile of its expected completion distribution (a-priori weights
  /// refined by the technique's runtime mu/sigma estimates when available)
  /// and launches a backup copy on an idle worker. First finisher wins;
  /// the loser is cancelled, and only the winner's timing is record()ed
  /// into the technique — duplicate iterations never count twice.
  struct Speculation {
    bool enabled = false;
    /// Straggler threshold in sigmas: elapsed > mu + quantile * sigma of
    /// the chunk's expected compute time flags the chunk.
    double quantile = 3.0;
    /// Lower bound on any straggler threshold (guards tiny chunks whose
    /// sigma is smaller than the scheduling overhead).
    double min_elapsed = 1.0;
    /// Deadline-risk escalation multiplies the quantile by this factor
    /// (more aggressive speculation) down to min_quantile.
    double escalation_factor = 0.5;
    double min_quantile = 0.5;
  };
  Speculation speculation;
  /// Deadline-risk monitor above the speculation layer (idealized
  /// executors): every check_interval the master projects the makespan
  /// from in-flight progress and, when Pr(makespan <= deadline) falls
  /// below risk_floor, escalates speculation aggressiveness — graceful
  /// degradation in stages before the framework's rho_2 re-map cliff.
  /// Requires speculation.enabled (there is nothing else to escalate).
  struct DeadlineRisk {
    bool enabled = false;
    /// Delta. Framework::run_stage_two / execute_plan fill this with the
    /// framework deadline when it is left at 0.
    double deadline = 0.0;
    double check_interval = 250.0;
    /// Escalate when the projected Pr(makespan <= deadline) < risk_floor.
    double risk_floor = 0.5;
  };
  DeadlineRisk deadline_risk;
  /// Gray-failure containment: fail-slow quarantine and audit-based
  /// result validation (both executors). The master keeps a per-worker
  /// EWMA of realized chunk slowdown — elapsed wall-clock over the
  /// a-priori dedicated-time estimate, the same signal the speculation
  /// layer thresholds per chunk — and quarantines a worker whose EWMA
  /// stays above `slowdown_threshold` after `min_observations` accepted
  /// chunks. A quarantined worker is DRAINED: its in-flight chunk still
  /// completes and records, but it receives no new assignments, hosts no
  /// speculative backups, and serves no audits. Every `probe_interval`
  /// the master sends it one canary chunk of real pool work;
  /// `probe_successes` consecutive healthy canaries reinstate it (EWMA
  /// reset). Independently, `audit_rate` of accepted chunks are
  /// re-executed on a different worker and compared; `audit_mismatch_limit`
  /// mismatches quarantine the originator — the only defense against
  /// kSilentCorrupt workers, whose results are wrong but well-formed.
  /// Everything is structurally disarmed by default: with enabled ==
  /// false and audit_rate == 0 no extra RNG stream is created and runs
  /// are bit-identical to the pre-quarantine executor.
  struct Quarantine {
    bool enabled = false;
    /// EWMA smoothing factor in (0, 1] (weight of the newest observation).
    double ewma_alpha = 0.3;
    /// Quarantine when EWMA slowdown exceeds this factor. Healthy workers
    /// sit near 1/availability (typically 1–2.5 under the paper's cases),
    /// so the default cleanly separates 10x fail-slow workers.
    double slowdown_threshold = 4.0;
    /// Accepted chunks required before the EWMA is trusted.
    std::uint64_t min_observations = 3;
    /// Simulated time between canary probes of a quarantined worker (> 0).
    double probe_interval = 200.0;
    /// Consecutive healthy canaries required for reinstatement (>= 1).
    std::size_t probe_successes = 2;
    /// Audit mismatches tolerated before the worker is quarantined (>= 1).
    std::size_t audit_mismatch_limit = 1;
    /// Fraction of accepted chunks re-executed on an independent worker
    /// and compared (0 disables auditing).
    double audit_rate = 0.0;

    /// True when any part of the gray-failure machinery must run.
    [[nodiscard]] bool armed() const noexcept { return enabled || audit_rate > 0.0; }
  };
  Quarantine quarantine;
  /// Unreliable master–worker channel (MPI executor only; the idealized
  /// executors abstract the network away and ignore it, like
  /// fault_detection). All probabilities default to 0: with `faulty()`
  /// false and checkpointing off, simulate_loop_mpi is bit-identical to
  /// the reliable protocol. Any nonzero knob arms the hardened
  /// at-least-once protocol: sequence-numbered assignments/reports with
  /// master- and worker-side dedup, explicit acks, and retransmission
  /// with exponential backoff (see ChannelStats).
  ChannelModel channel;
  /// Master checkpoint/restart (MPI executor only). When enabled the
  /// master appends every assignment, ack, and accepted completion to a
  /// compact write-ahead log (RunResult::wal) and takes a snapshot record
  /// every `interval` simulated time units. A kMasterCrashRestart failure
  /// implies checkpointing (restart needs the WAL) and also arms the
  /// hardened channel protocol: messages arriving at a down master are
  /// lost, so workers must retransmit.
  struct MasterCheckpoint {
    bool enabled = false;
    /// Snapshot period in simulated time (> 0).
    double interval = 500.0;
    /// When non-empty, the final checkpoint state (snapshot + WAL) is
    /// written to this path as schema-tagged JSON at the end of the run.
    std::string json_path;
  };
  MasterCheckpoint checkpoint;
  /// Flight recorder (both executors): an always-on bounded ring of
  /// structured lifecycle events, merged into RunResult::flight at end of
  /// run and dumped as a `cdsf.flight_record/1` postmortem when the run
  /// ends badly (deadline miss, strand, master restart, quarantine trip,
  /// chaos invariant violation) AND the process-global obs::FlightSink is
  /// armed. Recording is structurally inert — no RNG, no clock, no effect
  /// on trace/report output — so default runs stay byte-identical with it
  /// on. The CDSF_FLIGHT environment variable (obs::flight_recording_
  /// enabled) is the process-wide kill switch used by the overhead bench.
  struct Flight {
    bool enabled = true;
    /// Ring capacity per worker track (one extra track for the master).
    std::size_t track_capacity = 64;
    /// Deadline for the deadline-miss anomaly trigger; 0 disables it.
    /// Framework::run_stage_two / execute_plan and the replicated drivers
    /// fill it with the run deadline when left at 0 (the deadline_risk
    /// pattern).
    double deadline = 0.0;
  };
  Flight flight;
  /// Cooperative cancellation hook (util::CancelToken::flag()); polled at
  /// every Monte-Carlo boundary (the start of each replication in
  /// simulate_replicated / simulate_replicated_mpi), so a long replication
  /// sweep unwinds with util::Cancelled within one replication of the
  /// owning watchdog firing. Null = never cancelled; individual runs are
  /// unaffected. The pointee must outlive the simulation.
  const std::atomic<bool>* cancel = nullptr;
};

/// Per-worker accounting.
struct WorkerStats {
  std::uint64_t chunks = 0;
  std::int64_t iterations = 0;
  double busy_time = 0.0;      // wall-clock computing
  double overhead_time = 0.0;  // wall-clock in dispatch overhead
  double finish_time = 0.0;    // when the worker went permanently idle
};

/// One dispatched chunk (trace mode).
struct ChunkTraceEntry {
  std::size_t worker = 0;
  std::int64_t iterations = 0;
  double dispatch_time = 0.0;  // request granted (overhead starts)
  double start_time = 0.0;     // computation starts
  double end_time = 0.0;       // computation ends (would-be end if lost;
                               // cancellation instant if cancelled)
  bool lost = false;           // chunk stranded by a crash; re-dispatched
  /// First parallel-iteration index of the chunk's range (the chaos
  /// harness reconstructs exactly-once coverage from [first, first + n)).
  std::int64_t first = 0;
  /// Speculative backup copy of a straggler chunk.
  bool speculative = false;
  /// Losing copy of a speculated chunk, stopped when the winner finished.
  bool cancelled = false;
  /// The assignment needed at least one channel retransmission before the
  /// worker received it (hardened MPI protocol only).
  bool retransmitted = false;
  /// Audit replica: a re-execution of an already-accepted chunk on an
  /// independent worker for result comparison. Audit entries never feed
  /// record() and are excluded from exactly-once coverage accounting.
  bool audit = false;
  /// Canary probe: real pool work dispatched to a quarantined worker to
  /// test recovery (counts normally toward coverage).
  bool probe = false;
};

/// Scheduler lifecycle moment recorded alongside the chunk trace (only
/// with SimConfig::collect_trace) for the observability layer — the
/// events obs::TraceSink renders as instant markers on the worker tracks.
/// `kind` is one of the lifecycle kinds of obs::FlightEventKind; the
/// executors' one event writer derives the marker from the flight event:
/// a master-track event lists worker 0, and `value` is the kind's count,
/// sequence, ordinal or cause, or 0 (docs/observability.md).
struct LifecycleEvent {
  obs::FlightEventKind kind = obs::FlightEventKind::kWorkerCrashed;
  double time = 0.0;
  std::size_t worker = 0;
  std::int64_t value = 0;
};

/// Fault-tolerance accounting for one run. All zero when no crash-kind
/// failure is configured.
struct FaultStats {
  std::size_t workers_crashed = 0;
  std::size_t workers_recovered = 0;
  /// In-flight chunks stranded by crashes (each later re-dispatched).
  std::uint64_t chunks_lost = 0;
  /// Iterations from lost chunks that had to be executed again.
  std::int64_t iterations_reexecuted = 0;
  /// Wall-clock x availability the crashed workers sank into chunks that
  /// never completed (compute delivered before the crash, plus overhead).
  double wasted_work = 0.0;
  /// Sum over lost chunks of (declared-dead time - crash time). Zero in
  /// the idealized executors, which observe the crash event directly.
  double detection_latency_total = 0.0;
  double max_detection_latency = 0.0;
  /// MPI model: timeouts that expired for a worker that was NOT dead
  /// (a slow chunk probed before its report arrived).
  std::size_t false_suspicions = 0;

  friend bool operator==(const FaultStats&, const FaultStats&) = default;

  /// Adds one run's counters (the detection-latency maximum takes the max).
  void accumulate(const FaultStats& other) noexcept {
    workers_crashed += other.workers_crashed;
    workers_recovered += other.workers_recovered;
    chunks_lost += other.chunks_lost;
    iterations_reexecuted += other.iterations_reexecuted;
    wasted_work += other.wasted_work;
    detection_latency_total += other.detection_latency_total;
    max_detection_latency = std::max(max_detection_latency, other.max_detection_latency);
    false_suspicions += other.false_suspicions;
  }
};

/// Speculative-execution accounting for one run. All zero when
/// SimConfig::speculation is off. Bookkeeping identity (checked by the
/// chaos harness): backups_launched = backups_won + backups_cancelled +
/// backups_lost once the run completes.
struct SpeculationStats {
  /// Chunks that exceeded their straggler threshold (each counted once).
  std::uint64_t stragglers_flagged = 0;
  std::uint64_t backups_launched = 0;
  /// Backups that finished first (or whose primary died) — the rescues.
  std::uint64_t backups_won = 0;
  /// Backups cancelled because the primary finished first.
  std::uint64_t backups_cancelled = 0;
  /// Backups stranded by a crash of the backup worker.
  std::uint64_t backups_lost = 0;
  /// Primaries cancelled because their backup finished first.
  std::uint64_t primaries_cancelled = 0;
  /// Wall-clock x availability sunk into cancelled copies (the price of
  /// speculation, the analogue of FaultStats::wasted_work).
  double cancelled_work = 0.0;
  /// Deadline-risk monitor escalations.
  std::uint64_t risk_escalations = 0;

  friend bool operator==(const SpeculationStats&, const SpeculationStats&) = default;

  /// Order-independent element-wise sum (aggregation across runs).
  void accumulate(const SpeculationStats& other) noexcept {
    stragglers_flagged += other.stragglers_flagged;
    backups_launched += other.backups_launched;
    backups_won += other.backups_won;
    backups_cancelled += other.backups_cancelled;
    backups_lost += other.backups_lost;
    primaries_cancelled += other.primaries_cancelled;
    cancelled_work += other.cancelled_work;
    risk_escalations += other.risk_escalations;
  }
};

/// Unreliable-channel accounting for one run (hardened MPI protocol; all
/// zero when the channel is clean and checkpointing is off). Bookkeeping
/// identities checked by the chaos harness: burst_drops <= drops, and
/// dedup_hits <= duplicates + retransmits (every surplus delivery stems
/// from a channel duplicate or a protocol retransmission).
struct ChannelStats {
  /// Payload messages offered to the channel (including retransmissions;
  /// acks are counted separately in acks_sent).
  std::uint64_t messages_sent = 0;
  std::uint64_t drops = 0;
  /// Subset of drops that fell inside a burst-loss episode.
  std::uint64_t burst_drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  /// Protocol-level resends (unacked assignment, unanswered request,
  /// unacked report).
  std::uint64_t retransmits = 0;
  /// Re-delivered messages dropped by sequence-number dedup — a
  /// re-delivered assignment is never executed twice and a duplicated
  /// report never double-feeds Technique::record.
  std::uint64_t dedup_hits = 0;
  std::uint64_t acks_sent = 0;
  /// Messages whose sender exhausted max_retransmits; recovery falls to
  /// the failure detector.
  std::uint64_t retransmits_abandoned = 0;
  /// Delivered copies the channel corrupted in flight...
  std::uint64_t corrupted = 0;
  /// ...and copies the receiver's checksum frame rejected. The chaos
  /// harness checks corrupted == corrupt_discarded: checksum detection is
  /// assumed perfect, so no corrupted payload is ever processed (a
  /// corrupted report never reaches Technique::record).
  std::uint64_t corrupt_discarded = 0;

  friend bool operator==(const ChannelStats&, const ChannelStats&) = default;

  /// Order-independent element-wise sum (aggregation across runs).
  void accumulate(const ChannelStats& other) noexcept {
    messages_sent += other.messages_sent;
    drops += other.drops;
    burst_drops += other.burst_drops;
    duplicates += other.duplicates;
    reorders += other.reorders;
    retransmits += other.retransmits;
    dedup_hits += other.dedup_hits;
    acks_sent += other.acks_sent;
    retransmits_abandoned += other.retransmits_abandoned;
    corrupted += other.corrupted;
    corrupt_discarded += other.corrupt_discarded;
  }

  /// True when the hardened protocol ran (used to gate report emission).
  [[nodiscard]] bool active() const noexcept {
    return messages_sent > 0 || acks_sent > 0;
  }
};

/// Gray-failure containment accounting for one run (all zero when
/// SimConfig::Quarantine is disarmed). Bookkeeping identities checked by
/// the chaos harness: quarantines == fail_slow_trips + audit_trips,
/// reinstatements <= quarantines, probes_healthy <= probes_launched, and
/// audits_launched == audits_matched + audit_mismatches +
/// audits_abandoned once the run completes.
struct QuarantineStats {
  /// Quarantines triggered by the fail-slow EWMA threshold...
  std::uint64_t fail_slow_trips = 0;
  /// ...and by reaching the audit-mismatch limit.
  std::uint64_t audit_trips = 0;
  std::uint64_t quarantines = 0;
  /// Quarantined workers reinstated after sustained canary recovery.
  std::uint64_t reinstatements = 0;
  /// Canary probe chunks dispatched to quarantined workers...
  std::uint64_t probes_launched = 0;
  /// ...and canaries that came back under the slowdown threshold.
  std::uint64_t probes_healthy = 0;
  /// Total simulated time workers spent quarantined (run end closes any
  /// still-open quarantine window).
  double quarantined_time = 0.0;
  /// Audit replicas dispatched...
  std::uint64_t audits_launched = 0;
  /// ...that agreed with the original result,
  std::uint64_t audits_matched = 0;
  /// ...that disagreed (the originating worker is marked suspect),
  std::uint64_t audit_mismatches = 0;
  /// ...and that never completed (auditing worker crashed / run ended).
  std::uint64_t audits_abandoned = 0;
  /// Ground truth: accepted chunks whose result was silently wrong
  /// (kSilentCorrupt onset). The audit layer's catch rate is
  /// audit_mismatches against this baseline.
  std::uint64_t corrupt_chunks_recorded = 0;

  friend bool operator==(const QuarantineStats&, const QuarantineStats&) = default;

  /// Order-independent element-wise sum (aggregation across runs).
  void accumulate(const QuarantineStats& other) noexcept {
    fail_slow_trips += other.fail_slow_trips;
    audit_trips += other.audit_trips;
    quarantines += other.quarantines;
    reinstatements += other.reinstatements;
    probes_launched += other.probes_launched;
    probes_healthy += other.probes_healthy;
    quarantined_time += other.quarantined_time;
    audits_launched += other.audits_launched;
    audits_matched += other.audits_matched;
    audit_mismatches += other.audit_mismatches;
    audits_abandoned += other.audits_abandoned;
    corrupt_chunks_recorded += other.corrupt_chunks_recorded;
  }

  /// True when the gray-failure machinery ran (gates report emission).
  [[nodiscard]] bool active() const noexcept {
    return quarantines > 0 || audits_launched > 0 || probes_launched > 0 ||
           corrupt_chunks_recorded > 0;
  }
};

/// Master checkpoint/restart accounting (all zero when checkpointing is
/// off and no kMasterCrashRestart failure is configured).
struct CheckpointStats {
  std::uint64_t wal_records = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t master_restarts = 0;
  /// Restart reconciliation: assignments in the WAL without an ack were
  /// reclaimed into the pool and re-dispatched...
  std::uint64_t restart_ranges_redispatched = 0;
  /// ...acked-but-incomplete assignments stayed outstanding on their
  /// workers (their reports are still good)...
  std::uint64_t restart_chunks_preserved = 0;
  /// ...and WAL completions were replayed into the dedup table so a
  /// completed chunk is never record()ed twice.
  std::uint64_t restart_completions_replayed = 0;

  friend bool operator==(const CheckpointStats&, const CheckpointStats&) = default;

  void accumulate(const CheckpointStats& other) noexcept {
    wal_records += other.wal_records;
    snapshots += other.snapshots;
    master_restarts += other.master_restarts;
    restart_ranges_redispatched += other.restart_ranges_redispatched;
    restart_chunks_preserved += other.restart_chunks_preserved;
    restart_completions_replayed += other.restart_completions_replayed;
  }

  [[nodiscard]] bool active() const noexcept { return wal_records > 0 || snapshots > 0; }
};

/// One master write-ahead-log record. The log is append-only and ordered
/// by time; restart reconciliation scans it to rebuild the assignment
/// table (SimConfig::MasterCheckpoint::json_path serializes it as JSON).
struct WalRecord {
  enum class Kind {
    kAssign,    // chunk [first, first+count) assigned to `worker` as `seq`
    kAck,       // worker acknowledged assignment `seq`
    kComplete,  // completion report for `seq` accepted (record() fed)
    kSnapshot,  // periodic snapshot (count = iterations completed so far)
    kRestart,   // master restarted from this log
  };
  Kind kind = Kind::kAssign;
  double time = 0.0;
  std::size_t worker = 0;
  std::uint64_t seq = 0;
  std::int64_t first = 0;
  std::int64_t count = 0;
};

/// Outcome of one simulated application execution.
struct RunResult {
  double makespan = 0.0;    // end of the last chunk (>= serial_end)
  double serial_end = 0.0;  // completion of the serial iterations
  std::uint64_t total_chunks = 0;
  std::vector<WorkerStats> workers;
  std::vector<ChunkTraceEntry> trace;
  /// Lifecycle markers, sorted by time (empty unless collect_trace).
  std::vector<LifecycleEvent> events;
  FaultStats faults;
  SpeculationStats speculation;
  /// Gray-failure containment accounting (zero when disarmed).
  QuarantineStats quarantine;
  /// Hardened-channel accounting (MPI executor; zero elsewhere).
  ChannelStats channel;
  /// Master checkpoint/restart accounting (MPI executor; zero elsewhere).
  CheckpointStats checkpoint;
  /// Master write-ahead log (empty unless checkpointing was on).
  std::vector<WalRecord> wal;
  /// Merged flight recording (enabled == false when the recorder was off).
  obs::FlightRecord flight;

  /// Coefficient of variation of per-worker finish times — the classic
  /// load-imbalance metric (0 = perfectly balanced).
  [[nodiscard]] double finish_time_cov() const;
};

/// Builds a technique from executor-populated params.
using TechniqueFactory =
    std::function<std::unique_ptr<dls::Technique>(const dls::TechniqueParams&)>;

/// Simulates `application` on `processors` workers of `processor_type`,
/// availability drawn from `availability` (one independent process per
/// worker), chunks sized by the technique the factory builds.
/// Throws std::invalid_argument for zero processors, an unknown processor
/// type, or invalid config values.
[[nodiscard]] RunResult simulate_loop(const workload::Application& application,
                                      std::size_t processor_type, std::size_t processors,
                                      const sysmodel::AvailabilitySpec& availability,
                                      const TechniqueFactory& factory, const SimConfig& config,
                                      std::uint64_t seed);

/// Convenience: technique by registry id.
[[nodiscard]] RunResult simulate_loop(const workload::Application& application,
                                      std::size_t processor_type, std::size_t processors,
                                      const sysmodel::AvailabilitySpec& availability,
                                      dls::TechniqueId technique, const SimConfig& config,
                                      std::uint64_t seed);

/// Convenience: caller-owned technique instance (reset() before use);
/// executor-known hints and weights are NOT applied.
[[nodiscard]] RunResult simulate_loop(const workload::Application& application,
                                      std::size_t processor_type, std::size_t processors,
                                      const sysmodel::AvailabilitySpec& availability,
                                      dls::Technique& technique, const SimConfig& config,
                                      std::uint64_t seed);

/// Aggregate over independent replications. Each replication redraws
/// availability processes, iteration noise, and (via the factory) technique
/// weights.
struct ReplicationSummary {
  std::size_t replications = 0;
  double mean_makespan = 0.0;
  /// Median makespan — the representative-execution statistic used for
  /// deadline decisions (the mean is dominated by the rare runs whose
  /// master drew the lowest availability pulse for the serial phase).
  double median_makespan = 0.0;
  double stddev_makespan = 0.0;
  double min_makespan = 0.0;
  double max_makespan = 0.0;
  /// Fraction of replications with makespan <= deadline.
  double deadline_hit_rate = 0.0;
  /// 95% confidence interval for the mean makespan.
  stats::ConfidenceInterval mean_ci;
  /// 95% Wilson interval for the deadline hit rate.
  stats::ConfidenceInterval hit_rate_ci;
  /// Fault accounting summed over all replications (order-independent, so
  /// bit-identical for any thread count).
  FaultStats faults_total;
  /// Speculation accounting summed over all replications.
  SpeculationStats speculation_total;
  /// Gray-failure containment accounting summed over all replications.
  QuarantineStats quarantine_total;
  /// Channel + checkpoint accounting summed over all replications (only
  /// nonzero for the MPI replication path, simulate_replicated_mpi).
  ChannelStats channel_total;
  CheckpointStats checkpoint_total;

  friend bool operator==(const ReplicationSummary&, const ReplicationSummary&) = default;
};

/// Mixed-type group execution: the paper restricts every group to ONE
/// processor type; this relaxation (a natural extension for clusters whose
/// free processors span generations) gives each worker its own type, so
/// iteration costs AND availability laws differ per worker — the speed
/// heterogeneity WF/AWF were originally designed for, on top of the
/// availability heterogeneity the other executors model.
/// `worker_types[w]` is the processor type of worker w; the serial phase
/// runs on worker 0. Iteration-index profiles use the group's mean cost
/// scaled per worker by its type's relative speed.
/// Throws std::invalid_argument on empty worker list, unknown types, or
/// invalid config.
[[nodiscard]] RunResult simulate_loop_mixed(const workload::Application& application,
                                            const std::vector<std::size_t>& worker_types,
                                            const sysmodel::AvailabilitySpec& availability,
                                            dls::TechniqueId technique, const SimConfig& config,
                                            std::uint64_t seed);

/// Statistically sound technique comparison using common random numbers:
/// both techniques run on the SAME per-replication environments (identical
/// availability processes and iteration noise), and the per-replication
/// makespan differences (a - b) are summarized by a paired bootstrap CI.
/// `significant` means the CI excludes zero — the basis for Table VI-style
/// "best technique" claims.
struct TechniqueComparison {
  dls::TechniqueId technique_a = dls::TechniqueId::kStatic;
  dls::TechniqueId technique_b = dls::TechniqueId::kStatic;
  stats::PairedComparison makespan_difference;  // a - b, time units
  double median_a = 0.0;
  double median_b = 0.0;
};

/// Throws std::invalid_argument if replications == 0.
[[nodiscard]] TechniqueComparison compare_techniques(
    const workload::Application& application, std::size_t processor_type,
    std::size_t processors, const sysmodel::AvailabilitySpec& availability,
    dls::TechniqueId technique_a, dls::TechniqueId technique_b, const SimConfig& config,
    std::uint64_t seed, std::size_t replications, double level = 0.95);

/// Runs `replications` independent simulations and summarizes makespans
/// against `deadline`. With `threads` > 1 the replications run on that many
/// threads; every replication derives its randomness from its own child
/// seed, so the summary is bit-identical for ANY thread count.
/// Throws std::invalid_argument if replications == 0.
[[nodiscard]] ReplicationSummary simulate_replicated(
    const workload::Application& application, std::size_t processor_type,
    std::size_t processors, const sysmodel::AvailabilitySpec& availability,
    dls::TechniqueId technique, const SimConfig& config, std::uint64_t seed,
    std::size_t replications, double deadline, std::size_t threads = 1);

/// One arm of a replicated sweep: `application` (not owned; it must
/// outlive the call) on `processors` workers of `processor_type` under
/// `technique`, its replications seeded from `seed`.
struct ReplicatedArm {
  const workload::Application* application = nullptr;
  std::size_t processor_type = 0;
  std::size_t processors = 0;
  dls::TechniqueId technique = dls::TechniqueId::kStatic;
  std::uint64_t seed = 0;
};

/// simulate_replicated for many arms under one availability case: returns
/// one summary per arm, each equal to the single-arm call's. The runs of
/// all arms form one index space whose threads claim one run at a time,
/// so arms of unequal cost keep every thread busy. Throws
/// std::invalid_argument if replications == 0 or an arm has no
/// application.
[[nodiscard]] std::vector<ReplicationSummary> simulate_replicated(
    const std::vector<ReplicatedArm>& arms, const sysmodel::AvailabilitySpec& availability,
    const SimConfig& config, std::size_t replications, double deadline,
    std::size_t threads = 1);

}  // namespace cdsf::sim
