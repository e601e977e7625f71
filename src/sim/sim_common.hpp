// Internal helpers shared by the loop executors (the idealized one in
// loop_executor.cpp and the message-passing one in master_worker.cpp).
// Not part of the public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dls/technique.hpp"
#include "obs/flight.hpp"
#include "sim/engine.hpp"
#include "sim/loop_executor.hpp"
#include "sysmodel/availability.hpp"
#include "util/rng.hpp"
#include "workload/application.hpp"

namespace cdsf::sim::detail {

/// Throws std::invalid_argument on out-of-domain config values.
void validate_config(const SimConfig& config);

/// Validates the failure list against a worker count: every target must be
/// a known worker, at most ONE failure per worker (duplicates would stack
/// decorators with order-dependent semantics), kDegrade residuals in
/// (0, 1], kCrashRecover recoveries strictly after the crash. Throws
/// std::invalid_argument.
void validate_failures(const std::vector<SimConfig::Failure>& failures,
                       std::size_t processors);

/// True if any configured failure is kCrash / kCrashRecover — the switch
/// that arms the fault-tolerance machinery (and, in the MPI model, the
/// timeout timers). Master failures (kMasterCrashRestart) do NOT count:
/// they crash the coordinator, not a worker's availability process.
[[nodiscard]] bool has_crash_failures(const SimConfig& config);

/// The configured master crash-restart failure, or nullptr. At most one
/// exists (validate_failures rejects duplicates).
[[nodiscard]] const SimConfig::Failure* master_restart_failure(const SimConfig& config);

/// The replication driver behind simulate_replicated and
/// simulate_replicated_mpi. Arm a's replication r runs
/// `run_one(a, config, SeedSequence(arm_seeds[a]).child(r))`. All arms'
/// runs form one index space (arm-major) claimed one at a time by up to
/// `threads` threads; each arm's counters are summed in replication order,
/// so every summary is bit-identical for any thread count. Postmortems of
/// the runs are written in index order once the loop ends, keeping in
/// memory no more than the sink's remaining budget; a failing run stops
/// the sweep after the postmortems of the runs before it and its own. The
/// per-run config drops the checkpoint JSON path (one file per batch would
/// race) and inherits `deadline` as the flight recorder's deadline-miss
/// trigger unless one is pinned. Returns one summary per arm. Throws
/// std::invalid_argument("<caller>: replications must be >= 1").
[[nodiscard]] std::vector<ReplicationSummary> replicate(
    const char* caller, const SimConfig& config, const std::vector<std::uint64_t>& arm_seeds,
    std::size_t replications, double deadline, std::size_t threads,
    const std::function<RunResult(std::size_t, const SimConfig&, std::uint64_t)>& run_one);

struct Worker;

/// Applies one (already validated) failure to its worker: wraps the
/// availability process in the kind's decorator and, for crash kinds,
/// mirrors crash metadata and captures the pre-crash weight seed.
void apply_failure(Worker& worker, const SimConfig::Failure& failure);

/// Sum of `count` iid iteration times (exact draws for small chunks, CLT
/// normal approximation for large ones); always > 0.
[[nodiscard]] double sample_work(std::int64_t count, double mean, double stddev,
                                 util::RngStream& rng);

/// Dedicated-processor work of the chunk covering parallel iterations
/// [first_index, first_index + count). For flat profiles this is the iid
/// draw of sample_work (bit-identical to the historical behavior); for
/// index-dependent profiles the profile-weighted mean over the range is
/// taken with one multiplicative noise draw of c.o.v. iteration_cov /
/// sqrt(count).
[[nodiscard]] double chunk_work(const workload::Application& application,
                                std::size_t processor_type, double mean_iter,
                                double stddev_iter, double iteration_cov,
                                std::int64_t first_index, std::int64_t count,
                                util::RngStream& rng);

/// One worker's simulation state.
struct Worker {
  std::unique_ptr<sysmodel::AvailabilityProcess> availability;
  std::unique_ptr<util::RngStream> rng;
  /// Crash metadata mirrored out of the configured failure (both
  /// +infinity when the worker has no crash-kind failure). The executors
  /// read these instead of down-casting the decorated process.
  double crash_time = std::numeric_limits<double>::infinity();
  double recovery_time = std::numeric_limits<double>::infinity();
  /// availability_at(0) of the process BEFORE any crash decorator was
  /// applied — the a-priori weight seed. A crash at t = 0 would otherwise
  /// seed weight 0, which normalized_weights rejects (and the master has
  /// no way to know at dispatch time that the worker is already gone).
  double weight_at_zero = 1.0;

  [[nodiscard]] bool crashes() const noexcept {
    return crash_time != std::numeric_limits<double>::infinity();
  }

  /// Physically down at `t`: crashed and not yet recovered.
  [[nodiscard]] bool down_at(double t) const noexcept {
    return crash_time <= t && t < recovery_time;
  }

  /// The worker's a-priori weight: its availability observed at t = 0,
  /// or the pre-crash value when it is already down at t = 0.
  [[nodiscard]] double weight_seed() const {
    return crashes() && crash_time <= 0.0 ? weight_at_zero : availability->availability_at(0.0);
  }
};

/// One worker's availability process for `law` under
/// config.availability_mode: epoch processes are seeded with `seed`,
/// kSampleOnce draws its level from `run_rng`, and kDiurnal cycles with
/// phase `diurnal_phase`.
[[nodiscard]] std::unique_ptr<sysmodel::AvailabilityProcess> make_process(
    const pmf::Pmf& law, const SimConfig& config, util::RngStream& run_rng, std::uint64_t seed,
    double diurnal_phase);

/// The undispatched parallel iterations. Normally a plain front counter
/// (contiguous ranges handed out in index order — bit-identical to the
/// historical `first_index = total - remaining` arithmetic); when a crash
/// strands a chunk its range is given back and re-dispatched FIFO before
/// any fresh work. take() always returns ONE contiguous range (chunk work
/// of index-dependent profiles needs contiguity), so a grant may come back
/// smaller than requested when the front returned range is short.
class IterationPool {
 public:
  struct Range {
    std::int64_t first = 0;
    std::int64_t count = 0;
  };

  explicit IterationPool(std::int64_t total) : total_(total) {}

  /// Iterations not yet completed-or-in-flight.
  [[nodiscard]] std::int64_t pending() const noexcept {
    std::int64_t p = total_ - next_;
    for (const Range& r : returned_) p += r.count;
    return p;
  }

  /// Hands out up to `max_count` iterations as one contiguous range
  /// (count == 0 when the pool is empty or max_count <= 0).
  [[nodiscard]] Range take(std::int64_t max_count) {
    if (max_count <= 0) return {};
    if (!returned_.empty()) {
      Range& front = returned_.front();
      Range out{front.first, std::min(front.count, max_count)};
      front.first += out.count;
      front.count -= out.count;
      if (front.count == 0) returned_.pop_front();
      return out;
    }
    Range out{next_, std::min(total_ - next_, max_count)};
    if (out.count <= 0) return {};
    next_ += out.count;
    return out;
  }

  /// Returns a lost chunk's range for re-dispatch.
  void give_back(Range range) {
    if (range.count > 0) returned_.push_back(range);
  }

 private:
  std::int64_t total_ = 0;
  std::int64_t next_ = 0;
  std::deque<Range> returned_;
};

/// Fail-slow health tracking + quarantine state machine shared by both
/// executors. Pure bookkeeping with NO randomness: every decision derives
/// from observations the caller feeds in deterministic event order, so
/// the tracker never perturbs the executors' RNG streams. The executors
/// own dispatch policy (benching quarantined workers, firing canary
/// probes); the tracker owns the thresholds, streaks, and counters.
///
/// State machine per worker:
///   Healthy --(EWMA slowdown > threshold after min_observations,
///              or audit mismatches reach audit_mismatch_limit)-->
///   Quarantined (drained; canary probes only) --(probe_successes
///              consecutive healthy canaries)--> Healthy (state reset).
///
/// The fail-slow EWMA trips only with Quarantine::enabled; audit
/// mismatches trip whenever audits run (audit_rate > 0) — both feed the
/// same quarantine machinery.
class HealthTracker {
 public:
  HealthTracker(const SimConfig::Quarantine& config, std::size_t workers)
      : config_(config), state_(workers) {}

  /// Aggregated counters; the executor merges this into
  /// RunResult::quarantine after finish().
  QuarantineStats stats;

  /// Expected dedicated wall-clock of a chunk for the slowdown ratio:
  /// dispatch overhead plus a-priori work scaled by the worker's t = 0
  /// weight, floored like the MPI failure detector's round-trip estimate.
  /// Deliberately NOT the technique's runtime mu estimate: adaptive
  /// estimators normalize themselves to a slow worker's observed rate and
  /// would never flag it.
  [[nodiscard]] static double expected_elapsed(double overhead, double work,
                                               double weight) noexcept {
    return overhead + work / std::max(weight, 0.05);
  }

  /// Feeds one accepted non-canary chunk observation. Returns true when
  /// this observation trips the fail-slow threshold (caller quarantines).
  [[nodiscard]] bool observe(std::size_t worker, double slowdown) {
    State& s = state_[worker];
    s.ewma = s.observations == 0
                 ? slowdown
                 : config_.ewma_alpha * slowdown + (1.0 - config_.ewma_alpha) * s.ewma;
    ++s.observations;
    return config_.enabled && !s.quarantined &&
           s.observations >= config_.min_observations &&
           s.ewma > config_.slowdown_threshold;
  }

  /// Feeds one canary-probe result. Returns true when the healthy streak
  /// reaches probe_successes (caller reinstates).
  [[nodiscard]] bool observe_probe(std::size_t worker, double slowdown) {
    State& s = state_[worker];
    if (slowdown <= config_.slowdown_threshold) {
      ++stats.probes_healthy;
      ++s.healthy_streak;
    } else {
      s.healthy_streak = 0;
    }
    return s.quarantined && s.healthy_streak >= config_.probe_successes;
  }

  /// Feeds one audit mismatch against `worker`. Returns true when the
  /// mismatch limit is reached (caller quarantines).
  [[nodiscard]] bool observe_mismatch(std::size_t worker) {
    State& s = state_[worker];
    ++s.mismatches;
    return !s.quarantined && s.mismatches >= config_.audit_mismatch_limit;
  }

  void quarantine(std::size_t worker, double now, bool audit_trip) {
    State& s = state_[worker];
    s.quarantined = true;
    s.since = now;
    s.healthy_streak = 0;
    ++stats.quarantines;
    if (audit_trip) {
      ++stats.audit_trips;
    } else {
      ++stats.fail_slow_trips;
    }
  }

  /// Reinstates with a clean slate: the EWMA, observation count, and
  /// mismatch tally restart so stale history cannot instantly re-trip.
  void reinstate(std::size_t worker, double now) {
    State& s = state_[worker];
    stats.quarantined_time += now - s.since;
    s = State{};
    ++stats.reinstatements;
  }

  [[nodiscard]] bool quarantined(std::size_t worker) const {
    return state_[worker].quarantined;
  }

  /// Closes still-open quarantine windows into quarantined_time.
  void finish(double now) {
    for (State& s : state_) {
      if (s.quarantined) {
        stats.quarantined_time += now - s.since;
        s.quarantined = false;
      }
    }
  }

 private:
  struct State {
    double ewma = 0.0;
    std::uint64_t observations = 0;
    std::size_t healthy_streak = 0;
    std::size_t mismatches = 0;
    bool quarantined = false;
    double since = 0.0;
  };
  SimConfig::Quarantine config_;
  std::vector<State> state_;
};

/// The one writer of a run's events. Every Stage II happening of both
/// executors goes through emit(): it records the flight event and, with
/// collect_trace, lists a lifecycle kind in RunResult::events, derived by
/// a per-kind rule (a master-track event lists worker 0; `value` is the
/// kind's count, sequence, ordinal or cause, or 0). The chunk outcomes both
/// executors account identically also update the RunResult counters and
/// the chunk trace here.
class EventWriter {
 public:
  EventWriter(const SimConfig& config, std::size_t workers, RunResult& result);

  /// Records one happening on worker w's track (or obs::kFlightMasterTrack).
  /// With the trace off this is the ring write plus one predictable branch.
  void emit(obs::FlightEventKind kind, double time, std::size_t w, std::int64_t a = 0,
            std::int64_t b = 0) {
    record(kind, time, w, a, b);
    if (trace_) list(kind, time, w, a, b);
  }
  void emit(obs::FlightEventKind kind, double time, std::size_t w, IterationPool::Range range) {
    emit(kind, time, w, range.first, range.count);
  }

  /// The flight ring alone; only for the two happenings whose sinks
  /// disagree on purpose (see the callers).
  void record(obs::FlightEventKind kind, double time, std::size_t w, std::int64_t a = 0,
              std::int64_t b = 0) {
    flight_.record(kind, time, static_cast<std::uint32_t>(w), a, b);
  }

  /// RunResult::events alone (lifecycle kinds under collect_trace).
  void list(obs::FlightEventKind kind, double time, std::size_t w, std::int64_t a = 0,
            std::int64_t b = 0);

  [[nodiscard]] bool tracing() const noexcept { return trace_; }
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept { return flight_; }

  /// The losing copy on worker w was stopped after sinking `sunk` work;
  /// its trace entry, if any, ends at `now`.
  void cancelled(std::size_t w, IterationPool::Range range, bool backup, double sunk,
                 std::ptrdiff_t trace_index, double now);

  /// The copy on worker w died with its worker after sinking `wasted` work.
  void lost(std::size_t w, IterationPool::Range range, bool backup, double wasted, double now);

 private:
  bool trace_;
  RunResult& result_;
  obs::FlightRecorder flight_;
};

/// Gray-failure policy shared by both executors: the audit and
/// silent-corruption streams, the fail-slow health tracker, the audit
/// queue, and every decision taken on an accepted chunk or an audit
/// verdict. The executors keep only their transport — when a chunk or a
/// replica starts, when its report or verdict reaches this policy, and
/// which idle worker wakes up for a queued audit.
///
/// Structurally disarmed by default: with the quarantine unarmed and no
/// kSilentCorrupt failure, `active` is false, no stream is created, and
/// the executors skip every call, so disarmed runs are bit-identical to an
/// executor without the gray machinery. The streams are fanned out of the
/// run seed on children 23 (audits) and 29 (corruption), disjoint from the
/// run, worker, availability, channel, and burst streams.
class GrayPolicy {
 public:
  /// One queued audit: re-run `range` on a worker other than `origin` and
  /// compare. `original_wrong` is the ground truth drawn when the original
  /// chunk was accepted.
  struct AuditJob {
    IterationPool::Range range;
    std::size_t origin = 0;
    bool original_wrong = false;
  };

  /// `overhead` is the dispatch cost in the slowdown baseline:
  /// scheduling_overhead in the idealized executor, the message latency in
  /// the MPI one.
  GrayPolicy(const SimConfig& config, const std::vector<Worker>& workers, std::uint64_t seed,
             double input_factor, double overhead, RunResult& result, EventWriter& events);

  /// Quarantine and audit decisions run (SimConfig::Quarantine::armed).
  const bool armed;
  /// `armed`, or a kSilentCorrupt worker needs its ground-truth draws.
  const bool active;
  HealthTracker health;
  std::vector<char> auditing;  // worker busy on an audit replica

  /// The gray checks on one accepted chunk of worker w (call only when
  /// `active`): draws its silent-wrongness ground truth, feeds the
  /// fail-slow EWMA (or, for a canary, the recovery streak), quarantines or
  /// restores at `now`, and enrolls an audit_rate fraction of chunks for
  /// audit. Returns true when the chunk was enrolled: the caller then wakes
  /// one idle eligible worker other than w for the replica.
  [[nodiscard]] bool on_accept(std::size_t w, IterationPool::Range range, bool probe,
                               double dispatch_time, double end_time, double now,
                               double mean_iter);

  /// Takes the first queued audit that worker w may run (never its own
  /// chunk), or nothing.
  [[nodiscard]] std::optional<AuditJob> take_audit(std::size_t w);

  /// Records a replica of `job` launched on worker v. Returns false when
  /// the replica is lost to v's crash (its verdict never lands); otherwise
  /// marks v as auditing until audit_verdict.
  bool launch_audit(std::size_t v, const AuditJob& job, double dispatch_time,
                    double start_time, double end_time, bool lost);

  /// The verdict of v's replica of `job` reaching the decision point at
  /// `now`: charges the replica's time to v (`overhead` into its overhead
  /// time), draws the replica's own wrongness, and on a mismatch suspects
  /// the ORIGINATING worker, quarantining it at the mismatch limit.
  void audit_verdict(std::size_t v, const AuditJob& job, double start_time, double end_time,
                     double overhead, double now);

  /// Records a canary chunk sent to quarantined worker w.
  void canary_launched(std::size_t w, IterationPool::Range range, double now);

  /// Drops every audit in flight or queued: in-flight replicas count as
  /// abandoned; queued jobs were never launched and stay uncounted
  /// (keeping launched == matched + mismatches + abandoned exact).
  void abandon_audits();

  /// Gray epilogue: abandons the audits still open, closes quarantine
  /// windows at `end`, and stores the counters in RunResult::quarantine.
  void finish(double end);

 private:
  [[nodiscard]] bool draw_wrong(std::size_t w, double end_time);
  void quarantine(std::size_t w, double now, bool audit_trip);

  double audit_rate_;
  double input_factor_;
  double overhead_;
  RunResult& result_;
  EventWriter& events_;
  std::optional<util::RngStream> audit_rng_;
  std::optional<util::RngStream> corrupt_rng_;
  std::vector<const SimConfig::Failure*> corrupt_failure_;
  std::vector<double> weight0_;  // a-priori t = 0 weights for the slowdown baseline
  std::deque<AuditJob> audits_waiting_;
};

/// Worker w's assignment: the copy of a range it runs. A worker holds at
/// most one; a straggler's primary and its backup copy link to each other
/// by (worker, id). Ids count up per worker and survive the assignment.
struct Assignment {
  bool active = false;
  /// Stranded by its worker's crash: it never completes, and its loss is
  /// recorded when the executor observes the crash.
  bool lost = false;
  /// Message-passing hardened protocol: the assignment reached the worker.
  /// An undelivered one is reclaimed with no compute wasted.
  bool delivered = true;
  bool backup = false;  // the speculative copy of a straggler
  bool probe = false;   // a canary sent to a quarantined worker
  bool has_partner = false;
  /// Idealized executor: the partner copy won while this lost copy waits
  /// for its worker's crash, so its loss returns nothing to the pool.
  bool partner_won = false;
  std::size_t partner = 0;
  std::uint64_t partner_id = 0;
  std::uint64_t id = 0;
  std::size_t probes = 0;  // message-passing: timeout expirations so far
  IterationPool::Range range{};
  double dispatch_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;
  /// The pending completion (idealized) or report stage (message-passing),
  /// cancelled when the partner copy wins.
  Engine::EventId event = Engine::kNoEvent;
  std::ptrdiff_t trace_index = -1;  // set only with collect_trace
};

/// The chunk lifecycle both executors share: the per-worker assignments,
/// the pool, the free-worker decision, the accept path, straggler flagging
/// and backup hosting, the idle-worker scans, and the rule that decides
/// whether a lost copy's range returns to the pool. The ledger decides what
/// happens next (what a serving worker gets, which idle worker wakes, which
/// partner copy loses); the executor carries it out over its transport —
/// how a copy is timed, delivered, cancelled, and detected as lost.
class ChunkLedger {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  ChunkLedger(const SimConfig& config, std::int64_t iterations, std::size_t workers,
              double input_factor, dls::Technique& technique, RunResult& result,
              EventWriter& events, GrayPolicy& gray);

  IterationPool pool;
  std::vector<Assignment> assignment;
  /// Waiting for work; a scan may wake it.
  std::vector<char> idle;
  /// Gone for the scheduler: crashed (idealized) or declared dead
  /// (message-passing). Maintained by the executor.
  std::vector<char> down;
  /// Accepted parallel iterations.
  std::int64_t completed = 0;
  /// Live straggler threshold in sigmas; the idealized executor's
  /// deadline-risk monitor tightens it for chunks dispatched afterwards.
  double quantile;

  /// What a serving worker gets. kBench: nothing for now (the worker is
  /// drained, busy on an audit, or idle until a scan wakes it); kNothing:
  /// nothing and no reply.
  struct Grant {
    enum class Kind { kNothing, kBench, kChunk, kBackup, kAudit };
    Kind kind = Kind::kNothing;
    IterationPool::Range range{};  // kChunk, kBackup
    std::size_t primary = kNone;   // kBackup: the straggler's worker
    GrayPolicy::AuditJob audit{};  // kAudit
  };

  /// The free-worker decision for worker w at `now`: a drained worker gets
  /// nothing; otherwise pool work, then a queued straggler's backup, then
  /// an audit, else it goes idle (only a worker left waiting keeps its idle
  /// mark). A canary `probe` takes one technique-sized range or nothing.
  /// When the technique's plan is spent, `drain` splits the pending work in
  /// equal shares over the workers not down, so every run completes.
  [[nodiscard]] Grant serve(std::size_t w, double now, bool probe, bool drain);

  /// Opens worker w's assignment of `range` (dispatched, computing from
  /// `start` to `end`, or `lost` to a crash), traces it and records its
  /// dispatch. With `primary` set it is the backup of that worker's
  /// straggler, and the two copies are linked.
  Assignment& open(std::size_t w, IterationPool::Range range, double dispatch, double start,
                   double end, bool lost, bool probe, std::size_t primary = kNone);

  /// Elapsed time past a chunk's start beyond which it is a straggler: the
  /// expected compute time plus `quantile` sigmas, never below
  /// min_elapsed. The per-iteration time is the technique's runtime
  /// estimate when it has one (AWF/AF), else the a-priori `fallback`.
  [[nodiscard]] double straggler_threshold(std::size_t w, std::int64_t count, double fallback,
                                           double stddev_iter) const;

  /// The straggler check of worker w's assignment `id`: unless it already
  /// finished, was reclaimed or has a backup, flags it and returns the idle
  /// worker that hosts its backup, or queues it for the next free worker.
  [[nodiscard]] std::size_t flag_straggler(std::size_t w, std::uint64_t id, double now);

  /// Accepts worker w's assignment at `now`: worker stats (charging
  /// `overhead`), the technique's record() (exactly once per range), and
  /// the accept / backup-won events.
  void accept(std::size_t w, double overhead, double now);

  /// After accept: the gray checks on the chunk, which may wake an idle
  /// worker other than w for its audit, and the partner copy still
  /// running, which lost the race.
  struct Settled {
    std::size_t auditor = kNone;
    std::size_t loser = kNone;
  };
  [[nodiscard]] Settled settle(std::size_t w, double now, double mean_iter);

  /// What worker w's copy has sunk by `now`, charged when it loses the
  /// race or dies: its elapsed dispatch cost (at most `overhead`) plus the
  /// work `availability` delivered from its start until `now` or its end.
  [[nodiscard]] double sunk_work(std::size_t w, double overhead, double now,
                                 sysmodel::AvailabilityProcess& availability) const;

  /// Worker w's assignment was lost or reclaimed (the executor has closed
  /// it). Returns its range to the pool unless the partner copy still
  /// covers it or already delivered it; returns true when it did.
  bool reclaim(std::size_t w);

  /// Wakes every idle worker that may be handed work, in index order.
  template <class Wake>
  void wake_idle(Wake&& wake) {
    for (std::size_t v = 0; v < idle.size(); ++v) {
      if (wakeable(v)) {
        idle[v] = 0;
        wake(v);
      }
    }
  }

  /// A master restart forgets the suspicions, the idle list and the
  /// straggler queue.
  void forget();

 private:
  [[nodiscard]] bool wakeable(std::size_t v) const {
    return idle[v] && !down[v] && !(gray_.armed && gray_.health.quarantined(v));
  }
  [[nodiscard]] std::size_t take_idle(std::size_t except);
  [[nodiscard]] bool partner_active(const Assignment& a) const {
    return a.has_partner && assignment[a.partner].active &&
           assignment[a.partner].id == a.partner_id;
  }
  Grant bench(std::size_t w, double now);

  const SimConfig::Speculation& speculation_;
  bool trace_;
  double input_factor_;
  dls::Technique& technique_;
  RunResult& result_;
  EventWriter& events_;
  GrayPolicy& gray_;
  std::deque<std::pair<std::size_t, std::uint64_t>> stragglers_;  // (worker, id) awaiting a host
};

/// Shared run prologue: sizes the per-worker stats, counts the crash-kind
/// failures into RunResult::faults, runs the serial iterations on worker 0
/// (throwing std::runtime_error(serial_crash_error) when it crashes during
/// them), and with collect_trace lists every crash and recovery as a
/// lifecycle event. Returns the end of the serial phase.
[[nodiscard]] double run_prologue(RunResult& result, EventWriter& events,
                                  const workload::Application& application,
                                  const SimConfig& config, double input_factor,
                                  double mean_iter, double stddev_iter,
                                  std::vector<Worker>& workers, util::RngStream& run_rng,
                                  const char* serial_crash_error);

/// Everything both executors need set up identically: validated inputs,
/// per-run input factor, per-worker availability processes and noise
/// streams (failure decorators applied), and executor-populated
/// TechniqueParams (weights = availabilities observed at t = 0).
struct PreparedRun {
  double input_factor = 1.0;
  double mean_iter = 0.0;
  double stddev_iter = 0.0;
  std::vector<Worker> workers;
  dls::TechniqueParams params;
  util::RngStream run_rng{0};
};

/// Builds the shared state. Throws std::invalid_argument for zero
/// processors, unknown processor types, or invalid config.
[[nodiscard]] PreparedRun prepare_run(const workload::Application& application,
                                      std::size_t processor_type, std::size_t processors,
                                      const sysmodel::AvailabilitySpec& availability,
                                      const SimConfig& config, std::uint64_t seed);

/// Shared run epilogue. A run that left `stranded` > 0 iterations undone
/// dumps a "strand" postmortem and throws
/// std::runtime_error("<executor>: <stranded><strand_reason>"). Otherwise
/// it runs the gray epilogue at the end of simulated activity, gives each
/// worker that never went idle the serial end as its finish time, sorts
/// the lifecycle events by time, merges the flight recorder into
/// RunResult::flight, dumps a postmortem through obs::FlightSink when the
/// run ended badly (deadline miss, master restart, quarantine trip — chaos
/// violations dump at their own detection sites; a run of `replicate`
/// hands its postmortem to `replicate` instead), and, when the global
/// obs::MetricsRegistry is enabled, records the run's aggregate counters
/// and makespan histogram (one registry touch per run — nothing on the
/// per-chunk path).
void finish_run(RunResult& result, const SimConfig& config, const EventWriter& events,
                GrayPolicy& gray, double now, std::int64_t stranded, const char* executor,
                const char* strand_reason);

}  // namespace cdsf::sim::detail
