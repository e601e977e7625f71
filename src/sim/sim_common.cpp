#include "sim/sim_common.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "stats/summary.hpp"
#include "util/cancel.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace cdsf::sim::detail {

void validate_config(const SimConfig& config) {
  if (config.scheduling_overhead < 0.0) {
    throw std::invalid_argument("SimConfig: scheduling_overhead must be >= 0");
  }
  if (config.iteration_cov < 0.0) {
    throw std::invalid_argument("SimConfig: iteration_cov must be >= 0");
  }
  if (config.input_factor_cov < 0.0) {
    throw std::invalid_argument("SimConfig: input_factor_cov must be >= 0");
  }
  if (!(config.epoch_length > 0.0)) {
    throw std::invalid_argument("SimConfig: epoch_length must be > 0");
  }
  if (!(config.markov_persistence >= 0.0 && config.markov_persistence < 1.0)) {
    throw std::invalid_argument("SimConfig: markov_persistence must be in [0, 1)");
  }
  if (config.diurnal_amplitude < 0.0 || !(config.diurnal_period > 0.0)) {
    throw std::invalid_argument("SimConfig: diurnal knobs out of domain");
  }
  const SimConfig::FaultDetection& fd = config.fault_detection;
  if (!(fd.timeout_factor > 0.0) || !(fd.min_timeout > 0.0) || !(fd.backoff >= 1.0) ||
      fd.max_probes == 0) {
    throw std::invalid_argument("SimConfig: fault_detection knobs out of domain");
  }
  const SimConfig::Speculation& sp = config.speculation;
  if (!(sp.quantile > 0.0) || !(sp.min_elapsed > 0.0) ||
      !(sp.escalation_factor > 0.0 && sp.escalation_factor < 1.0) ||
      !(sp.min_quantile > 0.0) || sp.min_quantile > sp.quantile) {
    throw std::invalid_argument("SimConfig: speculation knobs out of domain");
  }
  const ChannelModel& ch = config.channel;
  for (double p : {ch.drop_to_worker, ch.drop_to_master, ch.duplicate_to_worker,
                   ch.duplicate_to_master, ch.reorder_to_worker, ch.reorder_to_master,
                   ch.corrupt_to_worker, ch.corrupt_to_master}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("SimConfig: channel probabilities must be in [0, 1]");
    }
  }
  if ((ch.reorder_to_worker > 0.0 || ch.reorder_to_master > 0.0) && !(ch.reorder_delay > 0.0)) {
    throw std::invalid_argument("SimConfig: channel reorder_delay must be > 0");
  }
  if (ch.burst_gap_mean < 0.0 || ch.burst_duration < 0.0 ||
      (ch.burst_gap_mean > 0.0 && !(ch.burst_duration > 0.0))) {
    throw std::invalid_argument("SimConfig: channel burst knobs out of domain");
  }
  if (!(ch.rto > 0.0) || !(ch.rto_backoff >= 1.0)) {
    throw std::invalid_argument("SimConfig: channel rto must be > 0 and rto_backoff >= 1");
  }
  if (config.checkpoint.enabled && !(config.checkpoint.interval > 0.0)) {
    throw std::invalid_argument("SimConfig: checkpoint interval must be > 0");
  }
  const SimConfig::Quarantine& q = config.quarantine;
  if (!(q.ewma_alpha > 0.0 && q.ewma_alpha <= 1.0)) {
    throw std::invalid_argument("SimConfig: quarantine ewma_alpha must be in (0, 1]");
  }
  if (!(q.slowdown_threshold > 1.0)) {
    throw std::invalid_argument(
        "SimConfig: quarantine slowdown_threshold must be > 1 (a healthy worker's "
        "slowdown sits at 1)");
  }
  if (q.min_observations == 0 || q.probe_successes == 0 || q.audit_mismatch_limit == 0) {
    throw std::invalid_argument("SimConfig: quarantine counts must be >= 1");
  }
  if (!(q.probe_interval > 0.0)) {
    throw std::invalid_argument("SimConfig: quarantine probe_interval must be > 0");
  }
  if (!(q.audit_rate >= 0.0 && q.audit_rate <= 1.0)) {
    throw std::invalid_argument("SimConfig: quarantine audit_rate must be in [0, 1]");
  }
  const SimConfig::DeadlineRisk& dr = config.deadline_risk;
  if (dr.enabled) {
    if (!config.speculation.enabled) {
      throw std::invalid_argument(
          "SimConfig: deadline_risk requires speculation.enabled (nothing to escalate)");
    }
    if (!(dr.deadline >= 0.0) || !std::isfinite(dr.deadline) ||
        !(dr.check_interval > 0.0) || !(dr.risk_floor > 0.0 && dr.risk_floor < 1.0)) {
      throw std::invalid_argument("SimConfig: deadline_risk knobs out of domain");
    }
  }
}

void validate_failures(const std::vector<SimConfig::Failure>& failures,
                       std::size_t processors) {
  std::vector<bool> seen(processors, false);
  bool master_seen = false;
  for (const SimConfig::Failure& failure : failures) {
    if (failure.kind == SimConfig::FailureKind::kMasterCrashRestart) {
      // Targets the coordinator, not a worker: the worker index is ignored
      // and the per-worker dedup does not apply.
      if (master_seen) {
        throw std::invalid_argument("simulate_loop: at most one master crash-restart");
      }
      master_seen = true;
      if (!(failure.time >= 0.0) || !std::isfinite(failure.time)) {
        throw std::invalid_argument("simulate_loop: master crash time must be finite and >= 0");
      }
      if (!(failure.recovery_time > failure.time) || !std::isfinite(failure.recovery_time)) {
        throw std::invalid_argument(
            "simulate_loop: master crash-restart recovery_time must be finite and > crash "
            "time (a run without a master can never finish)");
      }
      continue;
    }
    if (failure.worker >= processors) {
      throw std::invalid_argument("simulate_loop: failure targets an unknown worker");
    }
    if (seen[failure.worker]) {
      throw std::invalid_argument(
          "simulate_loop: duplicate failure for worker " + std::to_string(failure.worker) +
          " (at most one failure per worker)");
    }
    seen[failure.worker] = true;
    if (failure.time < 0.0) {
      throw std::invalid_argument("simulate_loop: failure time must be >= 0");
    }
    switch (failure.kind) {
      case SimConfig::FailureKind::kDegrade:
        if (!(failure.residual_availability > 0.0 && failure.residual_availability <= 1.0)) {
          throw std::invalid_argument(
              "simulate_loop: kDegrade residual availability must be in (0, 1]");
        }
        break;
      case SimConfig::FailureKind::kCrash:
        if (!std::isfinite(failure.time)) {
          throw std::invalid_argument("simulate_loop: crash failure time must be finite");
        }
        break;
      case SimConfig::FailureKind::kCrashRecover:
        if (!std::isfinite(failure.time)) {
          throw std::invalid_argument("simulate_loop: crash failure time must be finite");
        }
        if (!(failure.recovery_time > failure.time) || !std::isfinite(failure.recovery_time)) {
          throw std::invalid_argument(
              "simulate_loop: kCrashRecover recovery_time must be finite and > failure time");
        }
        break;
      case SimConfig::FailureKind::kSilentCorrupt:
        if (!std::isfinite(failure.time)) {
          throw std::invalid_argument(
              "simulate_loop: kSilentCorrupt onset time must be finite");
        }
        if (!(failure.corrupt_probability > 0.0 && failure.corrupt_probability <= 1.0)) {
          throw std::invalid_argument(
              "simulate_loop: kSilentCorrupt corrupt_probability must be in (0, 1]");
        }
        break;
      case SimConfig::FailureKind::kMasterCrashRestart:
        break;  // validated above (the per-worker loop skips it)
    }
  }
}

bool has_crash_failures(const SimConfig& config) {
  for (const SimConfig::Failure& failure : config.failures) {
    if (failure.kind == SimConfig::FailureKind::kCrash ||
        failure.kind == SimConfig::FailureKind::kCrashRecover) {
      return true;
    }
  }
  return false;
}

const SimConfig::Failure* master_restart_failure(const SimConfig& config) {
  for (const SimConfig::Failure& failure : config.failures) {
    if (failure.kind == SimConfig::FailureKind::kMasterCrashRestart) return &failure;
  }
  return nullptr;
}

namespace {

/// True if any configured failure is kSilentCorrupt — the switch that arms
/// the silent-wrongness draw stream and its ground-truth accounting.
bool has_silent_corrupt(const SimConfig& config) {
  for (const SimConfig::Failure& failure : config.failures) {
    if (failure.kind == SimConfig::FailureKind::kSilentCorrupt) return true;
  }
  return false;
}

/// Worker `worker`'s kSilentCorrupt failure, or nullptr (at most one
/// failure per worker exists after validate_failures).
const SimConfig::Failure* silent_corrupt_failure(const SimConfig& config,
                                                 std::size_t worker) {
  for (const SimConfig::Failure& failure : config.failures) {
    if (failure.kind == SimConfig::FailureKind::kSilentCorrupt &&
        failure.worker == worker) {
      return &failure;
    }
  }
  return nullptr;
}

}  // namespace

void apply_failure(Worker& worker, const SimConfig::Failure& failure) {
  switch (failure.kind) {
    case SimConfig::FailureKind::kMasterCrashRestart:
      break;  // the master is not a worker; handled inside simulate_loop_mpi
    case SimConfig::FailureKind::kSilentCorrupt:
      // A gray worker computes at full speed; the executors draw result
      // wrongness at completion time. No availability decorator.
      break;
    case SimConfig::FailureKind::kDegrade:
      worker.availability = std::make_unique<sysmodel::FailingAvailability>(
          std::move(worker.availability), failure.time, failure.residual_availability);
      break;
    case SimConfig::FailureKind::kCrash:
    case SimConfig::FailureKind::kCrashRecover:
      worker.weight_at_zero = worker.availability->availability_at(0.0);
      worker.crash_time = failure.time;
      worker.recovery_time = failure.kind == SimConfig::FailureKind::kCrashRecover
                                 ? failure.recovery_time
                                 : std::numeric_limits<double>::infinity();
      worker.availability = std::make_unique<sysmodel::CrashingAvailability>(
          std::move(worker.availability), failure.time, worker.recovery_time);
      break;
  }
}

double sample_work(std::int64_t count, double mean, double stddev, util::RngStream& rng) {
  constexpr std::int64_t kExactThreshold = 32;
  const double floor = 1e-6 * mean * static_cast<double>(count);
  if (stddev == 0.0) return mean * static_cast<double>(count);
  if (count <= kExactThreshold) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < count; ++i) {
      sum += std::max(rng.normal(mean, stddev), 0.0);
    }
    return std::max(sum, floor);
  }
  const double n = static_cast<double>(count);
  return std::max(rng.normal(n * mean, std::sqrt(n) * stddev), floor);
}

double chunk_work(const workload::Application& application, std::size_t processor_type,
                  double mean_iter, double stddev_iter, double iteration_cov,
                  std::int64_t first_index, std::int64_t count, util::RngStream& rng) {
  if (application.profile() == workload::IterationProfile::kFlat) {
    return sample_work(count, mean_iter, stddev_iter, rng);
  }
  double work = application.parallel_work_in_range(processor_type, first_index, count);
  if (iteration_cov > 0.0 && count > 0) {
    const double cov = iteration_cov / std::sqrt(static_cast<double>(count));
    work *= std::max(rng.normal(1.0, cov), 1e-6);
  }
  return std::max(work, 1e-9 * mean_iter);
}

std::unique_ptr<sysmodel::AvailabilityProcess> make_process(const pmf::Pmf& law,
                                                            const SimConfig& config,
                                                            util::RngStream& run_rng,
                                                            std::uint64_t seed,
                                                            double diurnal_phase) {
  switch (config.availability_mode) {
    case AvailabilityMode::kIidEpoch:
      return std::make_unique<sysmodel::IidEpochAvailability>(law, config.epoch_length, seed);
    case AvailabilityMode::kMarkovEpoch:
      return std::make_unique<sysmodel::MarkovEpochAvailability>(
          law, config.epoch_length, config.markov_persistence, seed);
    case AvailabilityMode::kConstantMean:
      return std::make_unique<sysmodel::ConstantAvailability>(law.expectation());
    case AvailabilityMode::kSampleOnce:
      return std::make_unique<sysmodel::ConstantAvailability>(
          law.sample_with(run_rng.uniform01()));
    case AvailabilityMode::kDiurnal: {
      const double mean = law.expectation();
      // Clamp the amplitude so the cycle stays strictly inside (0, 1].
      const double amplitude =
          std::min({config.diurnal_amplitude, mean - 1e-6, 1.0 - mean});
      return std::make_unique<sysmodel::DiurnalAvailability>(
          mean, std::max(amplitude, 0.0), config.diurnal_period, diurnal_phase);
    }
  }
  throw std::logic_error("make_process: unknown availability mode");
}

PreparedRun prepare_run(const workload::Application& application, std::size_t processor_type,
                        std::size_t processors,
                        const sysmodel::AvailabilitySpec& availability, const SimConfig& config,
                        std::uint64_t seed) {
  if (processors == 0) throw std::invalid_argument("simulate_loop: processors must be >= 1");
  if (processor_type >= availability.type_count() ||
      processor_type >= application.type_count()) {
    throw std::invalid_argument("simulate_loop: unknown processor type");
  }
  validate_config(config);

  const util::SeedSequence seeds(seed);
  PreparedRun run;
  run.run_rng = seeds.stream(0);

  // Per-run input-data factor (uncertainty in input data, Section III).
  if (config.input_factor_cov > 0.0) {
    run.input_factor = std::max(run.run_rng.normal(1.0, config.input_factor_cov), 0.1);
  }

  run.mean_iter = application.mean_iteration_time(processor_type);
  run.stddev_iter = run.mean_iter * config.iteration_cov;
  const pmf::Pmf& law = availability.of_type(processor_type);

  run.workers.resize(processors);
  for (std::size_t w = 0; w < processors; ++w) {
    run.workers[w].rng = std::make_unique<util::RngStream>(seeds.child(100 + 2 * w));
    // Shared-group mode reuses worker 0's seed (and, for kSampleOnce, a
    // single run_rng draw) so every worker sees the same availability path.
    const std::uint64_t avail_seed =
        config.shared_group_availability ? seeds.child(101) : seeds.child(101 + 2 * w);
    if (config.shared_group_availability && w > 0 &&
        config.availability_mode == AvailabilityMode::kSampleOnce) {
      run.workers[w].availability = std::make_unique<sysmodel::ConstantAvailability>(
          run.workers[0].availability->availability_at(0.0));
    } else {
      // Per-worker diurnal phase from the seed: spreads the group around
      // the cycle.
      const double phase =
          static_cast<double>(avail_seed % 1024) / 1024.0 * config.diurnal_period;
      run.workers[w].availability = make_process(law, config, run.run_rng, avail_seed, phase);
    }
  }
  validate_failures(config.failures, processors);
  for (const SimConfig::Failure& failure : config.failures) {
    apply_failure(run.workers[failure.worker], failure);
  }

  // Problem facts for the technique, including observed t=0 availabilities
  // as WF/AWF weight seeds. For a worker that crashes at t = 0 the
  // pre-crash value is used — the master seeds weights before it can know
  // the worker is gone, and normalized_weights rejects a 0.
  run.params.workers = processors;
  run.params.total_iterations = std::max<std::int64_t>(1, application.parallel_iterations());
  run.params.mean_iteration_time = run.mean_iter;
  run.params.stddev_iteration_time = run.stddev_iter;
  run.params.scheduling_overhead = config.scheduling_overhead;
  run.params.weights.reserve(processors);
  for (const Worker& worker : run.workers) run.params.weights.push_back(worker.weight_seed());
  return run;
}

namespace {

/// The lifecycle marker's `value` for a kind, from its flight payload.
std::int64_t lifecycle_value(obs::FlightEventKind kind, std::int64_t a, std::int64_t b) {
  using Kind = obs::FlightEventKind;
  switch (kind) {
    case Kind::kChunkLost:
    case Kind::kStragglerFlagged:
    case Kind::kBackupLaunched:
    case Kind::kChunkCancelled:
    case Kind::kCanaryProbe:
    case Kind::kAuditLaunched:
    case Kind::kAuditMismatch:
      return b;  // the chunk's iteration count
    case Kind::kWorkerSuspected:
    case Kind::kRiskEscalated:
    case Kind::kRetransmit:
    case Kind::kDedupHit:
    case Kind::kCheckpoint:
    case Kind::kWorkerQuarantined:
    case Kind::kMessageCorrupted:
      return a;  // probe number, ordinal, sequence, WAL length or trip cause
    default:
      return 0;  // kMasterRestarted's `a` (the epoch) is flight-only
  }
}

}  // namespace

EventWriter::EventWriter(const SimConfig& config, std::size_t workers, RunResult& result)
    : trace_(config.collect_trace),
      result_(result),
      flight_(workers, config.flight.track_capacity,
              config.flight.enabled && obs::flight_recording_enabled()) {}

void EventWriter::list(obs::FlightEventKind kind, double time, std::size_t w, std::int64_t a,
                       std::int64_t b) {
  if (!trace_ || !obs::is_lifecycle_kind(kind)) return;
  result_.events.push_back(
      {kind, time, w == obs::kFlightMasterTrack ? 0 : w, lifecycle_value(kind, a, b)});
}

void EventWriter::cancelled(std::size_t w, IterationPool::Range range, bool backup,
                            double sunk, std::ptrdiff_t trace_index, double now) {
  result_.speculation.cancelled_work += sunk;
  if (backup) {
    result_.speculation.backups_cancelled += 1;
  } else {
    result_.speculation.primaries_cancelled += 1;
  }
  emit(obs::FlightEventKind::kChunkCancelled, now, w, range);
  if (trace_ && trace_index >= 0) {
    ChunkTraceEntry& entry = result_.trace[static_cast<std::size_t>(trace_index)];
    entry.cancelled = true;
    entry.end_time = std::min(now, entry.end_time);
  }
}

void EventWriter::lost(std::size_t w, IterationPool::Range range, bool backup, double wasted,
                       double now) {
  result_.faults.chunks_lost += 1;
  result_.faults.wasted_work += wasted;
  if (backup) result_.speculation.backups_lost += 1;
  emit(obs::FlightEventKind::kChunkLost, now, w, range);
}

GrayPolicy::GrayPolicy(const SimConfig& config, const std::vector<Worker>& workers,
                       std::uint64_t seed, double input_factor, double overhead,
                       RunResult& result, EventWriter& events)
    : armed(config.quarantine.armed()),
      active(armed || has_silent_corrupt(config)),
      health(config.quarantine, workers.size()),
      auditing(workers.size(), 0),
      audit_rate_(config.quarantine.audit_rate),
      input_factor_(input_factor),
      overhead_(overhead),
      result_(result),
      events_(events),
      corrupt_failure_(workers.size(), nullptr),
      weight0_(workers.size(), 1.0) {
  const util::SeedSequence seeds(seed);
  if (armed && audit_rate_ > 0.0) audit_rng_.emplace(seeds.child(23));
  if (has_silent_corrupt(config)) {
    corrupt_rng_.emplace(seeds.child(29));
    for (std::size_t w = 0; w < workers.size(); ++w) {
      corrupt_failure_[w] = silent_corrupt_failure(config, w);
    }
  }
  if (armed) {
    for (std::size_t w = 0; w < workers.size(); ++w) weight0_[w] = workers[w].weight_seed();
  }
}

bool GrayPolicy::draw_wrong(std::size_t w, double end_time) {
  // Drawn only for a gray worker past its onset, so clean runs consume no
  // stream.
  const SimConfig::Failure* f = corrupt_failure_[w];
  return f != nullptr && end_time > f->time &&
         corrupt_rng_->uniform01() < f->corrupt_probability;
}

void GrayPolicy::quarantine(std::size_t w, double now, bool audit_trip) {
  health.quarantine(w, now, audit_trip);
  events_.emit(obs::FlightEventKind::kWorkerQuarantined, now, w, audit_trip ? 1 : 0);
}

bool GrayPolicy::on_accept(std::size_t w, IterationPool::Range range, bool probe,
                           double dispatch_time, double end_time, double now,
                           double mean_iter) {
  const bool wrong = draw_wrong(w, end_time);
  if (wrong) health.stats.corrupt_chunks_recorded += 1;
  if (!armed) return false;
  // Dispatch-to-completion wall clock against the a-priori expectation.
  const double expected = HealthTracker::expected_elapsed(
      overhead_, input_factor_ * mean_iter * static_cast<double>(range.count), weight0_[w]);
  const double slowdown = (end_time - dispatch_time) / expected;
  if (probe) {
    if (health.observe_probe(w, slowdown)) {
      health.reinstate(w, now);
      events_.emit(obs::FlightEventKind::kWorkerRestored, now, w);
    }
    return false;
  }
  if (health.observe(w, slowdown)) quarantine(w, now, /*audit_trip=*/false);
  if (audit_rng_ && audit_rng_->uniform01() < audit_rate_) {
    audits_waiting_.push_back(AuditJob{range, w, wrong});
    return true;
  }
  return false;
}

std::optional<GrayPolicy::AuditJob> GrayPolicy::take_audit(std::size_t w) {
  for (auto it = audits_waiting_.begin(); it != audits_waiting_.end(); ++it) {
    if (it->origin == w) continue;  // a worker never audits itself
    const AuditJob job = *it;
    audits_waiting_.erase(it);
    return job;
  }
  return std::nullopt;
}

bool GrayPolicy::launch_audit(std::size_t v, const AuditJob& job, double dispatch_time,
                              double start_time, double end_time, bool lost) {
  health.stats.audits_launched += 1;
  events_.emit(obs::FlightEventKind::kAuditLaunched, dispatch_time, v, job.range);
  if (events_.tracing()) {
    result_.trace.push_back({v, job.range.count, dispatch_time, start_time, end_time, lost,
                             job.range.first, false, false, false, true, false});
  }
  if (lost) {
    health.stats.audits_abandoned += 1;
    return false;
  }
  auditing[v] = 1;
  return true;
}

void GrayPolicy::audit_verdict(std::size_t v, const AuditJob& job, double start_time,
                               double end_time, double overhead, double now) {
  auditing[v] = 0;
  WorkerStats& stats = result_.workers[v];
  stats.busy_time += end_time - start_time;
  stats.overhead_time += overhead;
  stats.finish_time = std::max(stats.finish_time, end_time);
  // The replica itself can be silently wrong when ITS worker is gray —
  // either wrongness makes the pair disagree.
  const bool replica_wrong = draw_wrong(v, end_time);
  if (!job.original_wrong && !replica_wrong) {
    health.stats.audits_matched += 1;
    return;
  }
  health.stats.audit_mismatches += 1;
  events_.emit(obs::FlightEventKind::kAuditMismatch, now, job.origin, job.range);
  if (health.observe_mismatch(job.origin)) quarantine(job.origin, now, /*audit_trip=*/true);
}

void GrayPolicy::canary_launched(std::size_t w, IterationPool::Range range, double now) {
  health.stats.probes_launched += 1;
  events_.emit(obs::FlightEventKind::kCanaryProbe, now, w, range);
}

void GrayPolicy::abandon_audits() {
  for (char& busy : auditing) {
    if (busy) health.stats.audits_abandoned += 1;
    busy = 0;
  }
  audits_waiting_.clear();
}

void GrayPolicy::finish(double end) {
  abandon_audits();
  health.finish(end);
  result_.quarantine = health.stats;
}

double run_prologue(RunResult& result, EventWriter& events,
                    const workload::Application& application, const SimConfig& config,
                    double input_factor, double mean_iter, double stddev_iter,
                    std::vector<Worker>& workers, util::RngStream& run_rng,
                    const char* serial_crash_error) {
  result.workers.assign(workers.size(), WorkerStats{});
  for (const SimConfig::Failure& failure : config.failures) {
    if (failure.kind == SimConfig::FailureKind::kCrash) result.faults.workers_crashed += 1;
    if (failure.kind == SimConfig::FailureKind::kCrashRecover) {
      result.faults.workers_crashed += 1;
      result.faults.workers_recovered += 1;
    }
  }
  double serial_end = 0.0;
  if (application.serial_iterations() > 0) {
    const double serial_work =
        input_factor * sample_work(application.serial_iterations(), mean_iter, stddev_iter,
                                   run_rng);
    serial_end = workers[0].availability->finish_time(0.0, serial_work);
    if (!std::isfinite(serial_end)) throw std::runtime_error(serial_crash_error);
  }
  result.serial_end = serial_end;
  result.makespan = serial_end;
  // Every crash and recovery is listed here, up front, for both executors;
  // the flight ring records each where its executor observes it. The zero-
  // cost differential in test_master_worker documents the difference.
  if (events.tracing()) {
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (!workers[w].crashes()) continue;
      events.list(obs::FlightEventKind::kWorkerCrashed, workers[w].crash_time, w);
      if (std::isfinite(workers[w].recovery_time)) {
        events.list(obs::FlightEventKind::kWorkerRecovered, workers[w].recovery_time, w);
      }
    }
  }
  return serial_end;
}

ChunkLedger::ChunkLedger(const SimConfig& config, std::int64_t iterations, std::size_t workers,
                         double input_factor, dls::Technique& technique, RunResult& result,
                         EventWriter& events, GrayPolicy& gray)
    : pool(iterations),
      assignment(workers),
      idle(workers, 0),
      down(workers, 0),
      quantile(config.speculation.quantile),
      speculation_(config.speculation),
      trace_(config.collect_trace),
      input_factor_(input_factor),
      technique_(technique),
      result_(result),
      events_(events),
      gray_(gray) {}

ChunkLedger::Grant ChunkLedger::bench(std::size_t w, double now) {
  idle[w] = 1;  // stay wakeable: a crash or reclaim may refill the pool
  result_.workers[w].finish_time = std::max(result_.workers[w].finish_time, now);
  return {Grant::Kind::kBench};
}

ChunkLedger::Grant ChunkLedger::serve(std::size_t w, double now, bool probe, bool drain) {
  idle[w] = 0;
  WorkerStats& stats = result_.workers[w];
  if (gray_.armed && !probe && gray_.health.quarantined(w)) {
    // Drained: no pool work, no backups, no audits; canaries come from the
    // probe timer. Not marked idle, so no scan wakes it.
    stats.finish_time = std::max(stats.finish_time, now);
    return {Grant::Kind::kBench};
  }
  // Busy on an audit replica (a duplicate message-passing service): the
  // verdict brings the worker back.
  if (gray_.armed && gray_.auditing[w] != 0) return {Grant::Kind::kBench};
  const std::int64_t pending = pool.pending();
  if (pending <= 0) {
    if (probe) return {};  // nothing left to probe with; keep waiting
    // Fresh work outranks speculation, and audits (pure validation) run
    // last of all.
    while (!stragglers_.empty()) {
      const auto [p, id] = stragglers_.front();
      stragglers_.pop_front();
      const Assignment& primary = assignment[p];
      if (!primary.active || primary.id != id || primary.has_partner) continue;  // stale
      return {Grant::Kind::kBackup, primary.range, p};
    }
    if (gray_.armed) {
      if (const auto job = gray_.take_audit(w)) {
        return {Grant::Kind::kAudit, {}, kNone, *job};
      }
    }
    return bench(w, now);
  }
  std::int64_t chunk = technique_.next_chunk(dls::SchedulingContext{pending, w, now});
  if (chunk <= 0 && probe) chunk = 1;
  if (chunk <= 0 && drain) {
    // The technique's plan is spent (STATIC after a crash returned work).
    const auto alive = static_cast<std::int64_t>(std::count(down.begin(), down.end(), 0));
    chunk = (pending + alive - 1) / alive;
  }
  if (chunk <= 0) {
    // The technique has nothing (ever) for this worker (STATIC share spent).
    stats.finish_time = std::max(stats.finish_time, now);
    return {};
  }
  const IterationPool::Range range = pool.take(chunk);
  if (range.count <= 0) return probe ? Grant{} : bench(w, now);
  if (probe) gray_.canary_launched(w, range, now);
  return {Grant::Kind::kChunk, range};
}

Assignment& ChunkLedger::open(std::size_t w, IterationPool::Range range, double dispatch,
                              double start, double end, bool lost, bool probe,
                              std::size_t primary) {
  Assignment& a = assignment[w];
  const bool backup = primary != kNone;
  const std::uint64_t id = a.id + 1;
  a = Assignment{.active = true, .lost = lost, .backup = backup, .probe = probe};
  a.id = id;
  a.range = range;
  a.dispatch_time = dispatch;
  a.start_time = start;
  a.end_time = end;
  if (backup) {
    Assignment& p = assignment[primary];
    a.has_partner = p.has_partner = true;
    a.partner = primary;
    a.partner_id = p.id;
    p.partner = w;
    p.partner_id = id;
    result_.speculation.backups_launched += 1;
  }
  if (trace_) {
    a.trace_index = static_cast<std::ptrdiff_t>(result_.trace.size());
    result_.trace.push_back(
        {w, range.count, dispatch, start, end, lost, range.first, backup, false, false, false,
         probe});
  }
  events_.emit(backup ? obs::FlightEventKind::kBackupLaunched
                      : obs::FlightEventKind::kChunkDispatched,
               dispatch, w, range);
  CDSF_LOG_TRACE << "worker " << w << (backup ? " backup " : probe ? " canary " : " chunk ")
                 << range.count << " [" << dispatch << ", " << end << "]"
                 << (lost ? " LOST" : "");
  return a;
}

double ChunkLedger::straggler_threshold(std::size_t w, std::int64_t count, double fallback,
                                        double stddev_iter) const {
  const double estimate = technique_.estimated_iteration_time(w);
  const double mu_it = estimate > 0.0 ? estimate : fallback;
  const double n = static_cast<double>(count);
  return std::max(speculation_.min_elapsed,
                  mu_it * n + quantile * input_factor_ * stddev_iter * std::sqrt(n));
}

std::size_t ChunkLedger::take_idle(std::size_t except) {
  for (std::size_t v = 0; v < idle.size(); ++v) {
    if (v != except && wakeable(v)) {
      idle[v] = 0;
      return v;
    }
  }
  return kNone;
}

std::size_t ChunkLedger::flag_straggler(std::size_t w, std::uint64_t id, double now) {
  const Assignment& a = assignment[w];
  if (!a.active || a.id != id || a.has_partner) return kNone;
  // A degraded-but-alive worker blows through the threshold without ever
  // tripping a crash detector.
  result_.speculation.stragglers_flagged += 1;
  events_.emit(obs::FlightEventKind::kStragglerFlagged, now, w, a.range);
  const std::size_t host = take_idle(kNone);
  if (host == kNone) stragglers_.emplace_back(w, id);
  return host;
}

void ChunkLedger::accept(std::size_t w, double overhead, double now) {
  Assignment& a = assignment[w];
  a.active = false;
  WorkerStats& stats = result_.workers[w];
  stats.chunks += 1;
  stats.iterations += a.range.count;
  stats.busy_time += a.end_time - a.start_time;
  stats.overhead_time += overhead;
  stats.finish_time = a.end_time;
  result_.total_chunks += 1;
  result_.makespan = std::max(result_.makespan, a.end_time);
  completed += a.range.count;
  events_.emit(obs::FlightEventKind::kChunkAccepted, now, w, a.range);
  if (a.backup) {
    result_.speculation.backups_won += 1;
    events_.emit(obs::FlightEventKind::kBackupWon, now, w, a.range);
  }
  technique_.record(dls::ChunkResult{w, a.range.count, a.end_time - a.start_time,
                                     a.end_time - a.dispatch_time});
}

ChunkLedger::Settled ChunkLedger::settle(std::size_t w, double now, double mean_iter) {
  const Assignment& a = assignment[w];
  Settled settled;
  // The originator cannot audit itself.
  if (gray_.active &&
      gray_.on_accept(w, a.range, a.probe, a.dispatch_time, a.end_time, now, mean_iter)) {
    settled.auditor = take_idle(w);
  }
  if (partner_active(a)) settled.loser = a.partner;
  return settled;
}

double ChunkLedger::sunk_work(std::size_t w, double overhead, double now,
                              sysmodel::AvailabilityProcess& availability) const {
  const Assignment& a = assignment[w];
  double sunk = std::min(overhead, std::max(0.0, now - a.dispatch_time));
  const double stop = std::min(now, a.end_time);
  if (a.start_time < stop) sunk += availability.work_delivered(a.start_time, stop);
  return sunk;
}

bool ChunkLedger::reclaim(std::size_t w) {
  const Assignment& a = assignment[w];
  // Exactly once: the partner copy still runs (or awaits its own reclaim),
  // or it already won.
  if (a.partner_won || partner_active(a)) return false;
  result_.faults.iterations_reexecuted += a.range.count;
  pool.give_back(a.range);
  return true;
}

void ChunkLedger::forget() {
  std::fill(down.begin(), down.end(), 0);
  std::fill(idle.begin(), idle.end(), 0);
  stragglers_.clear();
}

namespace {

/// The postmortems of one replicated sweep, held until the sweep ends so
/// that they reach the sink in run order whatever order the runs finish
/// in. It keeps at most `budget` records, the lowest-indexed ones: no
/// serial sweep could write any other.
class PostmortemQueue {
 public:
  explicit PostmortemQueue(std::size_t budget) : budget_(budget) {}

  void offer(std::size_t run, const obs::FlightRecord& record,
             const obs::FlightAnomaly& anomaly) {
    if (!record.enabled) return;  // the sink would skip it too
    std::lock_guard lock(mutex_);
    if (held_.size() == budget_ && run > held_.rbegin()->first) return;
    held_.insert_or_assign(run, std::make_pair(record, anomaly));
    if (held_.size() > budget_) held_.erase(std::prev(held_.end()));
  }

  /// Writes the held postmortems of runs [0, end) in run order.
  void write(std::size_t end) {
    std::lock_guard lock(mutex_);
    for (const auto& [run, postmortem] : held_) {
      if (run >= end) break;
      obs::FlightSink::global().maybe_dump(postmortem.first, postmortem.second);
    }
  }

 private:
  std::size_t budget_;
  std::mutex mutex_;
  std::map<std::size_t, std::pair<obs::FlightRecord, obs::FlightAnomaly>> held_;
};

/// The queue of the replicated sweep whose run this thread executes, and
/// that run's index; null outside replicate.
thread_local PostmortemQueue* t_postmortems = nullptr;
thread_local std::size_t t_run = 0;

/// Points this thread's postmortems at `queue` as run `run` until the run
/// ends, by an exception too.
class QueueRunPostmortems {
 public:
  QueueRunPostmortems(PostmortemQueue* queue, std::size_t run) {
    t_postmortems = queue;
    t_run = run;
  }
  QueueRunPostmortems(const QueueRunPostmortems&) = delete;
  QueueRunPostmortems& operator=(const QueueRunPostmortems&) = delete;
  ~QueueRunPostmortems() { t_postmortems = nullptr; }
};

/// A single run dumps its postmortem as it ends; a replicated run queues it.
void dump_postmortem(const obs::FlightRecord& record, const obs::FlightAnomaly& anomaly) {
  if (t_postmortems != nullptr) {
    t_postmortems->offer(t_run, record, anomaly);
  } else {
    obs::FlightSink::global().maybe_dump(record, anomaly);
  }
}

}  // namespace

void finish_run(RunResult& result, const SimConfig& config, const EventWriter& events,
                GrayPolicy& gray, double now, std::int64_t stranded, const char* executor,
                const char* strand_reason) {
  if (stranded > 0) {
    const std::string detail = std::to_string(stranded) + strand_reason;
    dump_postmortem(events.flight().finish(), obs::FlightAnomaly{"strand", detail, now});
    throw std::runtime_error(std::string(executor) + ": " + detail);
  }
  gray.finish(std::max(result.makespan, now));
  for (WorkerStats& w : result.workers) {
    if (w.finish_time == 0.0) w.finish_time = result.serial_end;
  }
  std::stable_sort(result.events.begin(), result.events.end(),
                   [](const LifecycleEvent& a, const LifecycleEvent& b) {
                     return a.time < b.time;
                   });
  // Postmortem triggers, most severe first: a run can both restart its
  // master and trip quarantine, but one dump explains it.
  obs::FlightAnomaly anomaly;
  if (config.flight.deadline > 0.0 && result.makespan > config.flight.deadline) {
    anomaly.kind = "deadline_miss";
    anomaly.detail = "makespan " + std::to_string(result.makespan) +
                     " exceeded deadline " + std::to_string(config.flight.deadline);
    anomaly.time = result.makespan;
  } else if (result.checkpoint.master_restarts > 0) {
    anomaly.kind = "master_restart";
    anomaly.detail = "master restarted " +
                     std::to_string(result.checkpoint.master_restarts) +
                     " time(s) from checkpoint + WAL";
    anomaly.time = result.makespan;
  } else if (result.quarantine.quarantines > 0) {
    anomaly.kind = "quarantine_trip";
    anomaly.detail =
        std::to_string(result.quarantine.quarantines) + " quarantine trip(s): " +
        std::to_string(result.quarantine.fail_slow_trips) + " fail-slow, " +
        std::to_string(result.quarantine.audit_trips) + " audit";
    anomaly.time = result.makespan;
  }
  // The merged, time-sorted event tail is only ever read by a postmortem
  // dump — this run's (anomalous) or a later chaos-invariant dump (armed
  // sink; the replication driver keeps no run's record). Clean runs under
  // an unarmed sink or in a replicated sweep take the summary-only path,
  // which skips the merge sort entirely (the recorder's overhead budget).
  if (!anomaly.kind.empty() ||
      (t_postmortems == nullptr && obs::FlightSink::global().armed())) {
    result.flight = events.flight().finish();
  } else {
    result.flight = events.flight().finish_summary();
  }
  if (!anomaly.kind.empty()) dump_postmortem(result.flight, anomaly);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  if (!metrics.enabled()) return;
  metrics.add("sim.runs");
  metrics.add("sim.chunks", static_cast<std::int64_t>(result.total_chunks));
  std::int64_t iterations = 0;
  for (const WorkerStats& w : result.workers) iterations += w.iterations;
  metrics.add("sim.iterations", iterations);
  metrics.observe("sim.makespan", result.makespan);
  const FaultStats& faults = result.faults;
  if (faults.workers_crashed > 0) {
    metrics.add("sim.workers_crashed", static_cast<std::int64_t>(faults.workers_crashed));
    metrics.add("sim.workers_recovered",
                static_cast<std::int64_t>(faults.workers_recovered));
    metrics.add("sim.chunks_lost", static_cast<std::int64_t>(faults.chunks_lost));
    metrics.add("sim.iterations_reexecuted", faults.iterations_reexecuted);
    metrics.add("sim.false_suspicions", static_cast<std::int64_t>(faults.false_suspicions));
  }
  const QuarantineStats& quar = result.quarantine;
  if (quar.active()) {
    metrics.add("sim.quarantined", static_cast<std::int64_t>(quar.quarantines));
    metrics.add("sim.reinstatements", static_cast<std::int64_t>(quar.reinstatements));
    metrics.add("sim.canary_probes", static_cast<std::int64_t>(quar.probes_launched));
    metrics.add("sim.audits", static_cast<std::int64_t>(quar.audits_launched));
    metrics.add("sim.audit_mismatches", static_cast<std::int64_t>(quar.audit_mismatches));
  }
  const ChannelStats& channel = result.channel;
  if (channel.active() && channel.corrupt_discarded > 0) {
    metrics.add("sim.corrupt_discarded",
                static_cast<std::int64_t>(channel.corrupt_discarded));
  }
  const SpeculationStats& spec = result.speculation;
  if (spec.stragglers_flagged > 0 || spec.risk_escalations > 0) {
    metrics.add("sim.stragglers_flagged",
                static_cast<std::int64_t>(spec.stragglers_flagged));
    metrics.add("sim.backups_launched", static_cast<std::int64_t>(spec.backups_launched));
    metrics.add("sim.backups_won", static_cast<std::int64_t>(spec.backups_won));
    metrics.add("sim.backups_cancelled",
                static_cast<std::int64_t>(spec.backups_cancelled));
    metrics.add("sim.risk_escalations", static_cast<std::int64_t>(spec.risk_escalations));
  }
}

namespace {

/// Fills the makespan-distribution fields of `summary` (mean / median /
/// stddev / min / max / CIs / deadline hit rate) from per-replication
/// samples.
void summarize_makespans(ReplicationSummary& summary, std::vector<double> samples,
                         double deadline) {
  stats::OnlineSummary makespans;
  std::size_t hits = 0;
  for (double makespan : samples) {
    makespans.add(makespan);
    if (makespan <= deadline) ++hits;
  }
  summary.replications = samples.size();
  summary.mean_makespan = makespans.mean();
  summary.stddev_makespan = makespans.stddev();
  summary.min_makespan = makespans.min();
  summary.max_makespan = makespans.max();
  summary.deadline_hit_rate =
      static_cast<double>(hits) / static_cast<double>(samples.size());
  summary.mean_ci =
      stats::mean_interval(summary.mean_makespan, summary.stddev_makespan, samples.size());
  summary.hit_rate_ci = stats::wilson_interval(hits, samples.size());
  summary.median_makespan = stats::percentile(std::move(samples), 0.5);
}

}  // namespace

std::vector<ReplicationSummary> replicate(
    const char* caller, const SimConfig& config, const std::vector<std::uint64_t>& arm_seeds,
    std::size_t replications, double deadline, std::size_t threads,
    const std::function<RunResult(std::size_t, const SimConfig&, std::uint64_t)>& run_one) {
  if (replications == 0) {
    throw std::invalid_argument(std::string(caller) + ": replications must be >= 1");
  }
  SimConfig run_config = config;
  run_config.checkpoint.json_path.clear();
  if (run_config.flight.deadline == 0.0 && deadline > 0.0 && std::isfinite(deadline)) {
    run_config.flight.deadline = deadline;
  }
  // Run i is replication i % replications of arm i / replications. Each
  // derives all randomness from its own child seed and writes only its
  // own slot.
  struct RunSlot {
    double makespan = 0.0;
    FaultStats faults;
    SpeculationStats speculation;
    QuarantineStats quarantine;
    ChannelStats channel;
    CheckpointStats checkpoint;
    bool done = false;
  };
  std::vector<util::SeedSequence> seeds;
  seeds.reserve(arm_seeds.size());
  for (std::uint64_t seed : arm_seeds) seeds.emplace_back(seed);
  const std::size_t runs = arm_seeds.size() * replications;
  std::vector<RunSlot> slots(runs);
  const std::size_t budget = obs::FlightSink::global().budget_left();
  std::optional<PostmortemQueue> postmortems;
  if (budget > 0) postmortems.emplace(budget);
  try {
    util::parallel_for_index(runs, threads, [&](std::size_t i) {
      // Monte-Carlo checkpoint boundary: a cancelled token aborts the
      // sweep within one replication per thread.
      util::throw_if_cancelled(run_config.cancel);
      const QueueRunPostmortems queued(postmortems ? &*postmortems : nullptr, i);
      const std::size_t arm = i / replications;
      const RunResult run = run_one(arm, run_config, seeds[arm].child(i % replications));
      RunSlot& slot = slots[i];
      slot.makespan = run.makespan;
      slot.faults = run.faults;
      slot.speculation = run.speculation;
      slot.quarantine = run.quarantine;
      slot.channel = run.channel;
      slot.checkpoint = run.checkpoint;
      slot.done = true;
    });
  } catch (...) {
    // A serial sweep stops at the lowest failing run, the one rethrown:
    // every run before it finished, so it is the first unfinished slot.
    if (postmortems) {
      std::size_t failed = 0;
      while (failed < runs && slots[failed].done) ++failed;
      postmortems->write(failed + 1);
    }
    throw;
  }
  if (postmortems) postmortems->write(runs);

  std::vector<ReplicationSummary> summaries(arm_seeds.size());
  for (std::size_t arm = 0; arm < arm_seeds.size(); ++arm) {
    ReplicationSummary& summary = summaries[arm];
    std::vector<double> samples;
    samples.reserve(replications);
    // Summed in replication order — independent of the thread count.
    for (std::size_t i = arm * replications; i < (arm + 1) * replications; ++i) {
      const RunSlot& slot = slots[i];
      samples.push_back(slot.makespan);
      summary.faults_total.accumulate(slot.faults);
      summary.speculation_total.accumulate(slot.speculation);
      summary.channel_total.accumulate(slot.channel);
      summary.checkpoint_total.accumulate(slot.checkpoint);
      summary.quarantine_total.accumulate(slot.quarantine);
    }
    summarize_makespans(summary, std::move(samples), deadline);
  }
  return summaries;
}

}  // namespace cdsf::sim::detail
