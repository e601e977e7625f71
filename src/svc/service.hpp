// The crash-safe scheduling service.
//
// A persistent, deterministic daemon shape around the CDSF solve path
// (core::solve_scenario): scenario requests arrive on a virtual-time
// stream, are screened by an admission policy (reusing the PR 9
// core::AdmissionConfig machinery), journaled for crash safety
// (svc/journal.hpp), executed on a sharded solver pool with watchdog
// timeouts, hedged re-issues, and poison quarantine, and their reports
// delivered exactly once — across daemon crashes and restarts.
//
// Determinism is the load-bearing design decision. A run is TWO phases:
//
//   Phase A — a serial event loop on virtual time: a sim::Engine, whose
//   clock is the service's only clock (never the host's). Arrivals,
//   admission, shard queueing, solve durations (drawn from a
//   per-(seed, id, attempt) RNG — an injected hang is an infinite draw),
//   watchdog firings, hedge launches, first-finisher-wins races, poison
//   strikes, the crash cutoff, and the drain all play out here, serially,
//   so the set and order of delivered reports is a pure function of
//   (stream, config). Cancellation of a hedge loser or a timed-out solve
//   is cooperative in the real system (util::CancelToken polled at the
//   RA-enumeration and Monte-Carlo boundaries — see
//   ra::RobustnessConfig::cancel, sim::SimConfig::cancel); the virtual
//   loop models it as taking effect at the boundary event.
//
//   Phase B — the real Stage I/II solves, but ONLY for requests Phase A
//   delivered, keyed by delivery index and fanned out with
//   util::parallel_for_index over `solve_threads`. Each index is an
//   independent solve with its own Framework (the Stage I evaluator is
//   not thread-safe) and a fixed seed, so reports are byte-identical
//   across ANY solve_threads value — the property the chaos axis checks.
//
// Crash safety: `crash_at` is the engine's horizon (Engine::run_until):
// events at or before it run, later ones never do. Admitted-but-
// unterminated requests stay accepted-only in the journal;
// load_journal(...).unfinished() is the exactly-once replay set a
// restarted service re-enters via run(). Completed records carry an
// FNV-1a digest of the delivered report bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdsf/admission.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "svc/journal.hpp"
#include "svc/request.hpp"
#include "util/cancel.hpp"

namespace cdsf::svc {

/// Service knobs. The defaults are what `cdsf serve` runs with.
struct ServiceConfig {
  /// Solver-pool shards. Each shard runs one solve at a time off a FIFO
  /// queue; hedged re-issues need >= 2.
  std::size_t shards = 2;
  /// Phase B fan-out (reports are byte-identical across any value).
  std::size_t solve_threads = 1;
  /// Stage II replications per solve (core::SolveOptions::replications).
  std::size_t replications = 11;
  /// Watchdog: virtual seconds an attempt may run before it is cancelled
  /// and counted as a strike. Finite, like every knob that places an event.
  double watchdog_timeout = 60.0;
  /// Hedge delay = max(hedge_min_delay, hedge_multiplier * p99 of
  /// completed solve durations observed so far); before `hedge_warmup`
  /// samples exist the mean_solve_time stands in for the p99.
  double hedge_multiplier = 2.0;
  double hedge_min_delay = 5.0;
  std::size_t hedge_warmup = 8;
  /// Strikes (throws or watchdog timeouts) before a request is
  /// quarantined as poison.
  std::size_t poison_strikes = 2;
  /// Admission policy (PR 9 machinery). The service supports kAcceptAll
  /// and kBoundedQueue (capacity counts queued-not-running requests);
  /// kRho2Aware needs the dynamic manager's probability machinery and is
  /// rejected by validate().
  core::AdmissionConfig admission;
  /// Journal path; empty = no journal (in-memory service, still
  /// deterministic, no crash safety).
  std::string journal_path;
  /// Start a fresh journal (true) or append to an existing one for
  /// restart/replay (false).
  bool journal_truncate = true;
  /// Service seed: virtual solve durations and hang draws.
  std::uint64_t seed = 1;
  /// Virtual solve-duration model: lognormal with this median and shape.
  double mean_solve_time = 10.0;
  double solve_time_cov = 0.5;
  /// Chaos: probability an attempt hangs (infinite virtual duration, so
  /// only the watchdog ends it). Drawn per attempt from the service RNG.
  double hang_fraction = 0.0;
  /// Chaos: virtual instant the daemon dies. Events strictly after it
  /// never run. Negative = never.
  double crash_at = -1.0;

  /// Throws std::invalid_argument on contradictory knobs.
  void validate() const;
};

/// Final accounting of one request (see RequestOutcome).
struct RequestRecord {
  std::uint64_t id = 0;
  double arrival = 0.0;
  RequestOutcome outcome = RequestOutcome::kNotArrived;
  /// Virtual time the terminal outcome was reached; -1 when none was.
  double delivered_at = -1.0;
  /// Winning shard (delivered outcomes).
  std::size_t shard = 0;
  /// Attempts dispatched (primary + hedges + retries).
  std::size_t attempts = 0;
  bool hedged = false;
  /// The hedge attempt, not the primary, delivered the result.
  bool hedge_won = false;
  bool replayed = false;
  /// FNV-1a digest of the delivered report bytes (delivered outcomes).
  std::uint64_t digest = 0;
  /// Error detail for kFailed / kPoisoned.
  std::string error;
  /// Solve results (kCompleted only).
  double rho1 = 0.0;
  double rho2 = 0.0;
  std::size_t feasible_space = 0;
  bool all_meet_deadline = false;
};

/// Everything one run produced.
struct ServiceRunResult {
  /// One record per input request, in input order.
  std::vector<RequestRecord> requests;
  core::AdmissionStats admission;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t poisoned = 0;
  std::uint64_t replayed = 0;
  std::uint64_t delivered = 0;
  /// Ids whose accepted record was journaled and acked, in ack order.
  std::vector<std::uint64_t> acked;
  bool crashed = false;
  double crash_time = -1.0;
  bool drained = false;
  double drain_time = -1.0;
  /// The cdsf.service_report/1 document (deterministic bytes; excludes
  /// solve_threads and journal_path so runs differing only in those
  /// compare byte-identical).
  obs::Json report;
  /// Per-request delivered report documents, keyed by id (delivered
  /// outcomes only), in delivery order.
  std::vector<std::pair<std::uint64_t, obs::Json>> delivered_reports;
  /// Flight recording of the run (shard tracks + master track).
  obs::FlightRecord flight;
};

/// The service. One instance runs one stream; restart = a new instance
/// over the same journal path (journal_truncate = false) fed
/// load_journal(...).unfinished() + the not-yet-arrived tail.
class SchedulingService {
 public:
  /// Validates the config (ServiceConfig::validate).
  explicit SchedulingService(ServiceConfig config);

  /// Runs the stream to drain (or to crash_at). `requests` need not be
  /// sorted; replayed requests (replayed == true) are not re-journaled.
  /// Throws std::invalid_argument on duplicate request ids and on an
  /// arrival that is negative or not finite.
  [[nodiscard]] ServiceRunResult run(std::vector<ScenarioRequest> requests);

  /// The Phase B cancellation token: cancelling it makes every real
  /// solve unwind (util::Cancelled) at its next RA or Monte-Carlo
  /// boundary and deliver an error report instead.
  [[nodiscard]] util::CancelToken& cancel_token() noexcept { return cancel_; }

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

 private:
  ServiceConfig config_;
  util::CancelToken cancel_;
};

/// Builds the cdsf.service_report/1 document (what run() stores in
/// ServiceRunResult::report).
[[nodiscard]] obs::Json service_report_json(const ServiceRunResult& result,
                                            const ServiceConfig& config);

}  // namespace cdsf::svc
