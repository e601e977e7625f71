#include "sim/loop_executor.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/engine.hpp"
#include "sim/sim_common.hpp"
#include "stats/distribution.hpp"
#include "stats/summary.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace cdsf::sim {

namespace {

/// Delegates every call to a caller-owned technique (for the Technique&
/// overload of simulate_loop).
class ForwardingTechnique final : public dls::Technique {
 public:
  explicit ForwardingTechnique(dls::Technique& inner) : inner_(&inner) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::int64_t next_chunk(const dls::SchedulingContext& ctx) override {
    return inner_->next_chunk(ctx);
  }
  void record(const dls::ChunkResult& result) override { inner_->record(result); }
  [[nodiscard]] double estimated_iteration_time(std::size_t worker) const override {
    return inner_->estimated_iteration_time(worker);
  }
  void reset() override { inner_->reset(); }

 private:
  dls::Technique* inner_;
};

void accumulate_faults(FaultStats& total, const FaultStats& run) {
  total.workers_crashed += run.workers_crashed;
  total.workers_recovered += run.workers_recovered;
  total.chunks_lost += run.chunks_lost;
  total.iterations_reexecuted += run.iterations_reexecuted;
  total.wasted_work += run.wasted_work;
  total.detection_latency_total += run.detection_latency_total;
  total.max_detection_latency = std::max(total.max_detection_latency, run.max_detection_latency);
  total.false_suspicions += run.false_suspicions;
}


/// The idealized self-scheduling event loop shared by simulate_loop and
/// simulate_loop_mixed. `worker_types` / `mean_iter` / `stddev_iter` are
/// per-worker (constant vectors for a homogeneous group). Fault tolerance:
/// when crash-kind failures are configured, a chunk whose execution window
/// straddles its worker's crash is LOST — its iterations return to the
/// pool and are re-dispatched FIFO to idle survivors; record() is never
/// called for lost chunks, so adaptive weights see only real timings.
/// Crash detection is instantaneous here (the simulator observes the crash
/// event directly); the message-passing model in master_worker.cpp pays a
/// timeout-detection latency instead.
RunResult run_ideal_loop(const workload::Application& application, const SimConfig& config,
                         double input_factor, const std::vector<std::size_t>& worker_types,
                         const std::vector<double>& mean_iter,
                         const std::vector<double>& stddev_iter,
                         std::vector<detail::Worker>& workers, dls::Technique& technique,
                         util::RngStream& run_rng, std::uint64_t seed) {
  const std::size_t processors = workers.size();
  const bool crash_mode = detail::has_crash_failures(config);
  // Gray-failure machinery, structurally disarmed by default: with the
  // quarantine config unarmed and no kSilentCorrupt failure, no tracker
  // decision fires, no extra RNG stream is created, and no extra event is
  // scheduled — runs are bit-identical to the pre-quarantine executor.
  const bool quarantine_armed = config.quarantine.armed();
  const bool silent_corrupt = detail::has_silent_corrupt(config);

  RunResult result;
  result.workers.assign(processors, WorkerStats{});
  // Always-on flight recorder: bounded per-worker rings, merged into
  // result.flight by finalize_run. Recording never touches the RNG, the
  // trace, or the event list, so enabling it cannot perturb the run.
  obs::FlightRecorder flight(processors, config.flight.track_capacity,
                             config.flight.enabled && obs::flight_recording_enabled());
  for (const SimConfig::Failure& failure : config.failures) {
    // Master failures are MPI-only (this executor has no explicit
    // coordinator) and do not crash a worker; degrade and silent-corrupt
    // workers stay up.
    if (failure.kind == SimConfig::FailureKind::kDegrade ||
        failure.kind == SimConfig::FailureKind::kMasterCrashRestart ||
        failure.kind == SimConfig::FailureKind::kSilentCorrupt) {
      continue;
    }
    result.faults.workers_crashed += 1;
    if (failure.kind == SimConfig::FailureKind::kCrashRecover) {
      result.faults.workers_recovered += 1;
    }
  }

  // Serial iterations on the master (worker 0).
  double serial_end = 0.0;
  if (application.serial_iterations() > 0) {
    const double serial_work =
        input_factor * detail::sample_work(application.serial_iterations(), mean_iter[0],
                                           stddev_iter[0], run_rng);
    serial_end = workers[0].availability->finish_time(0.0, serial_work);
    if (!std::isfinite(serial_end)) {
      throw std::runtime_error(
          "simulate_loop: master crashed during the serial phase — the serial "
          "iterations have no fault tolerance (re-dispatch needs a live master)");
    }
  }
  result.serial_end = serial_end;
  result.makespan = serial_end;

  if (config.collect_trace) {
    for (std::size_t w = 0; w < processors; ++w) {
      if (!workers[w].crashes()) continue;
      result.events.push_back(
          {LifecycleEvent::Kind::kWorkerCrash, workers[w].crash_time, w, 0});
      if (std::isfinite(workers[w].recovery_time)) {
        result.events.push_back(
            {LifecycleEvent::Kind::kWorkerRecover, workers[w].recovery_time, w, 0});
      }
    }
  }

  Engine engine;
  detail::IterationPool pool(application.parallel_iterations());
  std::vector<char> dead(processors, 0);
  std::vector<char> idle(processors, 0);
  const bool speculate = config.speculation.enabled;
  const std::int64_t total_parallel = application.parallel_iterations();

  // One dispatched copy of a task's range. A task is the unit of
  // exactly-once execution: normally just the primary copy; when the
  // speculation layer flags the primary as a straggler, a backup copy runs
  // the SAME range on another worker and the first finisher wins.
  struct Copy {
    std::size_t worker = 0;
    bool live = false;  // running; completion event pending
    bool lost = false;  // straddles its worker's crash; reclaim pending
    double dispatch_time = 0.0;
    double start_time = 0.0;
    Engine::EventId completion = Engine::kNoEvent;
    std::ptrdiff_t trace_index = -1;  // set only with collect_trace
  };
  struct Task {
    detail::IterationPool::Range range;
    Copy primary;
    Copy backup;
    bool has_backup = false;
    bool flagged = false;  // straggler-flagged (at most once)
    bool done = false;     // a winner finished, or the range went back
    bool probe = false;    // canary chunk sent to a quarantined worker
  };
  std::deque<Task> tasks;                           // stable addresses
  std::vector<Task*> running(processors, nullptr);  // copy hosted on worker w
  std::deque<Task*> stragglers;  // flagged tasks awaiting an idle worker
  std::int64_t completed_iterations = 0;
  // Live straggler threshold in sigmas; the deadline-risk monitor tightens
  // it (affects chunks dispatched AFTER the escalation).
  double quantile = config.speculation.quantile;

  // Gray-failure state. The audit/corruption streams are fanned out of the
  // run seed on their own child indices (23 / 29 — disjoint from the
  // run_rng, worker, availability, channel, and burst streams), created
  // only when armed so disarmed runs never consume them.
  detail::HealthTracker health(config.quarantine, processors);
  const util::SeedSequence gray_seeds(seed);
  std::unique_ptr<util::RngStream> audit_rng;
  if (quarantine_armed && config.quarantine.audit_rate > 0.0) {
    audit_rng = std::make_unique<util::RngStream>(gray_seeds.child(23));
  }
  std::unique_ptr<util::RngStream> corrupt_rng;
  std::vector<const SimConfig::Failure*> corrupt_failure(processors, nullptr);
  if (silent_corrupt) {
    corrupt_rng = std::make_unique<util::RngStream>(gray_seeds.child(29));
    for (std::size_t w = 0; w < processors; ++w) {
      corrupt_failure[w] = detail::silent_corrupt_failure(config, w);
    }
  }
  // A-priori t = 0 weights for the slowdown baseline (pre-crash value for
  // a worker already down at t = 0, matching the technique's weight seed).
  std::vector<double> weight0(processors, 1.0);
  if (quarantine_armed) {
    for (std::size_t w = 0; w < processors; ++w) {
      weight0[w] = workers[w].crashes() && workers[w].crash_time <= 0.0
                       ? workers[w].weight_at_zero
                       : workers[w].availability->availability_at(0.0);
    }
  }
  // One queued audit: re-run `range` on a worker other than `origin` and
  // compare. `original_wrong` is the ground truth carried from the
  // original completion's wrongness draw.
  struct AuditJob {
    detail::IterationPool::Range range;
    std::size_t origin = 0;
    bool original_wrong = false;
  };
  std::deque<AuditJob> audits_waiting;
  std::vector<char> auditing(processors, 0);  // worker busy on an audit replica

  std::function<void(std::size_t)> request;

  // Stops a live losing copy: its completion event dies, the sunk work is
  // charged to cancelled_work, and its worker is free immediately.
  auto cancel_copy = [&](Task& task, Copy& copy, bool is_backup) {
    const double now = engine.now();
    engine.cancel(copy.completion);
    copy.live = false;
    double sunk = std::min(config.scheduling_overhead, std::max(0.0, now - copy.dispatch_time));
    if (copy.start_time < now) {
      sunk += workers[copy.worker].availability->work_delivered(copy.start_time, now);
    }
    result.speculation.cancelled_work += sunk;
    if (is_backup) {
      result.speculation.backups_cancelled += 1;
    } else {
      result.speculation.primaries_cancelled += 1;
    }
    flight.record(obs::FlightEventKind::kChunkCancelled, now,
                  static_cast<std::uint32_t>(copy.worker), task.range.first,
                  task.range.count);
    if (config.collect_trace) {
      result.events.push_back(
          {LifecycleEvent::Kind::kChunkCancelled, now, copy.worker, task.range.count});
      if (copy.trace_index >= 0) {
        ChunkTraceEntry& entry = result.trace[static_cast<std::size_t>(copy.trace_index)];
        entry.cancelled = true;
        entry.end_time = now;
      }
    }
    running[copy.worker] = nullptr;
    request(copy.worker);
  };

  // Re-executes an accepted chunk on independent worker v and compares.
  // The replica's timing feeds neither record() nor the coverage
  // accounting (its trace entry is flagged `audit`); only the comparison
  // verdict matters. A mismatch marks the ORIGINATING worker suspect.
  auto launch_audit = [&](std::size_t v, AuditJob job) {
    const double dispatch_time = engine.now();
    const double start_time = dispatch_time + config.scheduling_overhead;
    const double work =
        input_factor * detail::chunk_work(application, worker_types[v], mean_iter[v],
                                          stddev_iter[v], config.iteration_cov,
                                          job.range.first, job.range.count, *workers[v].rng);
    const double end_time = workers[v].availability->finish_time(start_time, work);
    const bool lost =
        dispatch_time < workers[v].crash_time && end_time > workers[v].crash_time;
    health.stats.audits_launched += 1;
    flight.record(obs::FlightEventKind::kAuditLaunched, dispatch_time,
                  static_cast<std::uint32_t>(v), job.range.first, job.range.count);
    if (config.collect_trace) {
      result.events.push_back(
          {LifecycleEvent::Kind::kAuditLaunched, dispatch_time, v, job.range.count});
      result.trace.push_back({v, job.range.count, dispatch_time, start_time, end_time, lost,
                              job.range.first, false, false, false, true, false});
    }
    CDSF_LOG_TRACE << "worker " << v << " audit " << job.range.count << " of worker "
                   << job.origin << " [" << dispatch_time << ", " << end_time << "]"
                   << (lost ? " LOST" : "");
    if (lost) {
      // The auditing worker crashes mid-replica; the verdict never lands.
      health.stats.audits_abandoned += 1;
      return;
    }
    auditing[v] = 1;
    engine.schedule_at(end_time, [&, v, job, start_time, end_time] {
      auditing[v] = 0;
      WorkerStats& stats = result.workers[v];
      stats.busy_time += end_time - start_time;
      stats.overhead_time += config.scheduling_overhead;
      stats.finish_time = std::max(stats.finish_time, end_time);
      // The replica itself can be silently wrong when ITS worker is gray —
      // either wrongness makes the pair disagree.
      bool replica_wrong = false;
      const SimConfig::Failure* f = corrupt_failure[v];
      if (f != nullptr && end_time > f->time &&
          corrupt_rng->uniform01() < f->corrupt_probability) {
        replica_wrong = true;
      }
      if (job.original_wrong || replica_wrong) {
        health.stats.audit_mismatches += 1;
        flight.record(obs::FlightEventKind::kAuditMismatch, end_time,
                      static_cast<std::uint32_t>(job.origin), job.range.first,
                      job.range.count);
        if (config.collect_trace) {
          result.events.push_back({LifecycleEvent::Kind::kAuditMismatch, end_time,
                                   job.origin, job.range.count});
        }
        if (health.observe_mismatch(job.origin)) {
          health.quarantine(job.origin, end_time, /*audit_trip=*/true);
          flight.record(obs::FlightEventKind::kWorkerQuarantined, end_time,
                        static_cast<std::uint32_t>(job.origin), 1);
          if (config.collect_trace) {
            result.events.push_back(
                {LifecycleEvent::Kind::kWorkerQuarantined, end_time, job.origin, 1});
          }
        }
      } else {
        health.stats.audits_matched += 1;
      }
      request(v);
    });
  };

  // Winning copy finished: account it, feed the technique exactly once,
  // cancel the losing copy if one is still running.
  auto complete_copy = [&](Task* task, bool is_backup) {
    Copy& winner = is_backup ? task->backup : task->primary;
    const std::size_t w = winner.worker;
    const double end_time = engine.now();
    winner.live = false;
    running[w] = nullptr;
    task->done = true;
    WorkerStats& stats = result.workers[w];
    stats.chunks += 1;
    stats.iterations += task->range.count;
    stats.busy_time += end_time - winner.start_time;
    stats.overhead_time += config.scheduling_overhead;
    result.total_chunks += 1;
    completed_iterations += task->range.count;
    flight.record(obs::FlightEventKind::kChunkAccepted, end_time,
                  static_cast<std::uint32_t>(w), task->range.first, task->range.count);
    if (is_backup) {
      result.speculation.backups_won += 1;
      flight.record(obs::FlightEventKind::kBackupWon, end_time,
                    static_cast<std::uint32_t>(w), task->range.first, task->range.count);
    }
    technique.record(dls::ChunkResult{w, task->range.count, end_time - winner.start_time,
                                      end_time - winner.dispatch_time});
    stats.finish_time = end_time;
    result.makespan = std::max(result.makespan, end_time);
    // Ground truth for the audit layer: a gray worker's accepted result is
    // silently wrong with its failure's probability (drawn only for gray
    // workers past onset, so clean runs consume no stream).
    bool wrong = false;
    {
      const SimConfig::Failure* f = corrupt_failure[w];
      if (f != nullptr && end_time > f->time &&
          corrupt_rng->uniform01() < f->corrupt_probability) {
        wrong = true;
        health.stats.corrupt_chunks_recorded += 1;
      }
    }
    if (quarantine_armed) {
      const double expected = detail::HealthTracker::expected_elapsed(
          config.scheduling_overhead,
          input_factor * mean_iter[w] * static_cast<double>(task->range.count), weight0[w]);
      const double slowdown = (end_time - winner.dispatch_time) / expected;
      if (task->probe) {
        if (health.observe_probe(w, slowdown)) {
          health.reinstate(w, end_time);
          flight.record(obs::FlightEventKind::kWorkerRestored, end_time,
                        static_cast<std::uint32_t>(w));
          if (config.collect_trace) {
            result.events.push_back(
                {LifecycleEvent::Kind::kWorkerRestored, end_time, w, 0});
          }
        }
      } else {
        if (health.observe(w, slowdown)) {
          health.quarantine(w, end_time, /*audit_trip=*/false);
          flight.record(obs::FlightEventKind::kWorkerQuarantined, end_time,
                        static_cast<std::uint32_t>(w), 0);
          if (config.collect_trace) {
            result.events.push_back(
                {LifecycleEvent::Kind::kWorkerQuarantined, end_time, w, 0});
          }
        }
        if (audit_rng != nullptr && audit_rng->uniform01() < config.quarantine.audit_rate) {
          audits_waiting.push_back(AuditJob{task->range, w, wrong});
          // Wake one idle eligible worker for the replica (the originator
          // cannot audit itself; quarantined workers are never idle[]).
          for (std::size_t v = 0; v < processors; ++v) {
            if (idle[v] && !dead[v] && v != w) {
              idle[v] = 0;
              request(v);
              break;
            }
          }
        }
      }
    }
    Copy& loser = is_backup ? task->primary : task->backup;
    if (task->has_backup && loser.live) cancel_copy(*task, loser, !is_backup);
    request(w);
  };

  // Runs a straggler task's range a second time on idle worker v.
  auto launch_backup = [&](std::size_t v, Task* task) {
    const detail::IterationPool::Range range = task->range;
    const double dispatch_time = engine.now();
    const double start_time = dispatch_time + config.scheduling_overhead;
    const double work =
        input_factor * detail::chunk_work(application, worker_types[v], mean_iter[v],
                                          stddev_iter[v], config.iteration_cov, range.first,
                                          range.count, *workers[v].rng);
    const double end_time = workers[v].availability->finish_time(start_time, work);
    const bool lost =
        dispatch_time < workers[v].crash_time && end_time > workers[v].crash_time;
    task->has_backup = true;
    task->backup = Copy{v, !lost, lost, dispatch_time, start_time, Engine::kNoEvent, -1};
    running[v] = task;
    result.speculation.backups_launched += 1;
    flight.record(obs::FlightEventKind::kBackupLaunched, dispatch_time,
                  static_cast<std::uint32_t>(v), range.first, range.count);
    if (config.collect_trace) {
      result.events.push_back(
          {LifecycleEvent::Kind::kChunkBackup, dispatch_time, v, range.count});
      task->backup.trace_index = static_cast<std::ptrdiff_t>(result.trace.size());
      result.trace.push_back(
          {v, range.count, dispatch_time, start_time, end_time, lost, range.first, true, false});
    }
    CDSF_LOG_TRACE << "worker " << v << " backup " << range.count << " [" << dispatch_time
                   << ", " << end_time << "]" << (lost ? " LOST" : "");
    if (lost) return;  // the crash event at crash_time reclaims it
    task->backup.completion =
        engine.schedule_cancellable_at(end_time, [&, task] { complete_copy(task, true); });
  };

  // Dispatches a granted range onto worker w as a fresh primary copy.
  // Shared by the normal request path and the canary-probe path (a canary
  // is an ordinary chunk of real pool work, flagged `probe` and exempt
  // from straggler speculation — the quarantined worker is deliberately
  // running it, so a backup would defeat the measurement).
  auto launch_task = [&](std::size_t w, detail::IterationPool::Range range, bool is_probe) {
    const double dispatch_time = engine.now();
    const double start_time = dispatch_time + config.scheduling_overhead;
    const double work =
        input_factor * detail::chunk_work(application, worker_types[w], mean_iter[w],
                                          stddev_iter[w], config.iteration_cov, range.first,
                                          range.count, *workers[w].rng);
    const double end_time = workers[w].availability->finish_time(start_time, work);
    // Lost iff the execution window straddles the crash (a permanent crash
    // makes end_time +infinity, which also lands here). Dead workers never
    // request, so dispatch_time < crash_time holds for every pre-crash
    // chunk and is false for every post-recovery one.
    const bool lost =
        dispatch_time < workers[w].crash_time && end_time > workers[w].crash_time;

    Task* task = &tasks.emplace_back();
    task->range = range;
    task->probe = is_probe;
    task->primary = Copy{w, !lost, lost, dispatch_time, start_time, Engine::kNoEvent, -1};
    running[w] = task;
    flight.record(obs::FlightEventKind::kChunkDispatched, dispatch_time,
                  static_cast<std::uint32_t>(w), range.first, range.count);
    if (config.collect_trace) {
      task->primary.trace_index = static_cast<std::ptrdiff_t>(result.trace.size());
      result.trace.push_back({w, range.count, dispatch_time, start_time, end_time, lost,
                              range.first, false, false, false, false, is_probe});
    }
    CDSF_LOG_TRACE << "worker " << w << (is_probe ? " canary " : " chunk ") << range.count
                   << " [" << dispatch_time << ", " << end_time << "]"
                   << (lost ? " LOST" : "");

    if (speculate && !is_probe) {
      // Expected compute time: the technique's measured wall-clock estimate
      // when it has one (AWF/AF — availability-aware), else the a-priori
      // dedicated-time profile. A degraded-but-alive worker blows through
      // mu + quantile * sigma without ever tripping the crash detector.
      double mu_it = technique.estimated_iteration_time(w);
      if (!(mu_it > 0.0)) mu_it = input_factor * mean_iter[w];
      const double count = static_cast<double>(range.count);
      const double threshold =
          std::max(config.speculation.min_elapsed,
                   mu_it * count + quantile * input_factor * stddev_iter[w] * std::sqrt(count));
      engine.schedule_at(start_time + threshold, [&, task, w] {
        if (task->done || task->flagged || task->has_backup) return;
        task->flagged = true;
        result.speculation.stragglers_flagged += 1;
        flight.record(obs::FlightEventKind::kStragglerFlagged, engine.now(),
                      static_cast<std::uint32_t>(w), task->range.first,
                      task->range.count);
        if (config.collect_trace) {
          result.events.push_back(
              {LifecycleEvent::Kind::kChunkStraggler, engine.now(), w, task->range.count});
        }
        for (std::size_t v = 0; v < processors; ++v) {
          if (idle[v] && !dead[v]) {
            idle[v] = 0;
            launch_backup(v, task);
            return;
          }
        }
        stragglers.push_back(task);  // next idle worker picks it up
      });
    }
    if (lost) return;  // never completes; the crash event at crash_time reclaims it
    task->primary.completion =
        engine.schedule_cancellable_at(end_time, [&, task] { complete_copy(task, false); });
  };

  // Self-scheduling protocol: an idle worker requests a chunk; the chunk
  // completion event records feedback and triggers the next request. Fresh
  // work always outranks speculation — backups launch only when the pool is
  // empty (an idle worker exists only when nothing is undispatched) — and
  // audits run last of all (pure validation, never ahead of real work).
  request = [&](std::size_t w) {
    WorkerStats& stats = result.workers[w];
    if (dead[w]) return;
    if (quarantine_armed && health.quarantined(w)) {
      // Drained: no pool work, no backups, no audits. Canary probes arrive
      // through the probe timer. Deliberately NOT marked idle[], so the
      // give-back / straggler / audit wake scans skip this worker.
      stats.finish_time = std::max(stats.finish_time, engine.now());
      return;
    }
    const std::int64_t pending = pool.pending();
    if (pending <= 0) {
      if (speculate) {
        while (!stragglers.empty() && stragglers.front()->done) stragglers.pop_front();
        if (!stragglers.empty()) {
          Task* task = stragglers.front();
          stragglers.pop_front();
          launch_backup(w, task);
          return;
        }
      }
      if (quarantine_armed && !audits_waiting.empty()) {
        for (auto it = audits_waiting.begin(); it != audits_waiting.end(); ++it) {
          if (it->origin == w) continue;  // a worker never audits itself
          const AuditJob job = *it;
          audits_waiting.erase(it);
          launch_audit(w, job);
          return;
        }
      }
      // Nothing undispatched NOW — but a crash may still return work, so
      // stay wakeable instead of retiring.
      idle[w] = 1;
      stats.finish_time = std::max(stats.finish_time, engine.now());
      return;
    }
    std::int64_t chunk = technique.next_chunk(dls::SchedulingContext{pending, w, engine.now()});
    if (chunk <= 0) {
      if (!crash_mode) {
        // Technique has nothing (ever) for this worker (STATIC share spent).
        stats.finish_time = std::max(stats.finish_time, engine.now());
        return;
      }
      // Fault-tolerant fallback: the technique considers its plan spent
      // (STATIC after a crash returned iterations to the pool), yet work is
      // pending — drain it in equal shares so every run completes.
      std::size_t alive = 0;
      for (std::size_t v = 0; v < processors; ++v) alive += dead[v] ? 0u : 1u;
      const auto alive64 = static_cast<std::int64_t>(alive);
      chunk = (pending + alive64 - 1) / alive64;
    }
    const detail::IterationPool::Range range = pool.take(chunk);
    if (range.count <= 0) {
      idle[w] = 1;
      stats.finish_time = std::max(stats.finish_time, engine.now());
      return;
    }
    launch_task(w, range, /*is_probe=*/false);
  };

  // One canary: real pool work, technique-sized, flagged `probe` so its
  // completion feeds the recovery streak instead of the fail-slow EWMA.
  auto launch_canary = [&](std::size_t w) {
    const std::int64_t pending = pool.pending();
    if (pending <= 0) return;  // nothing left to probe with; keep waiting
    std::int64_t chunk = technique.next_chunk(dls::SchedulingContext{pending, w, engine.now()});
    if (chunk <= 0) chunk = 1;  // plan spent; a single iteration still probes
    const detail::IterationPool::Range range = pool.take(chunk);
    if (range.count <= 0) return;
    health.stats.probes_launched += 1;
    flight.record(obs::FlightEventKind::kCanaryProbe, engine.now(),
                  static_cast<std::uint32_t>(w), range.first, range.count);
    if (config.collect_trace) {
      result.events.push_back(
          {LifecycleEvent::Kind::kQuarantineProbe, engine.now(), w, range.count});
    }
    launch_task(w, range, /*is_probe=*/true);
  };

  if (application.parallel_iterations() > 0) {
    // Crash lifecycle events FIRST so that, on a timestamp tie, a worker is
    // marked dead before any request or completion at the same instant.
    for (std::size_t w = 0; w < processors; ++w) {
      if (!workers[w].crashes()) continue;
      engine.schedule_at(workers[w].crash_time, [&, w] {
        dead[w] = 1;
        flight.record(obs::FlightEventKind::kWorkerCrashed, engine.now(),
                      static_cast<std::uint32_t>(w));
        Task* task = running[w];
        if (task == nullptr) return;
        const bool is_backup = task->has_backup && task->backup.worker == w;
        Copy& copy = is_backup ? task->backup : task->primary;
        if (!copy.lost) return;  // completes exactly at crash time; allowed
        running[w] = nullptr;
        copy.lost = false;
        result.faults.chunks_lost += 1;
        flight.record(obs::FlightEventKind::kChunkLost, engine.now(),
                      static_cast<std::uint32_t>(w), task->range.first,
                      task->range.count);
        if (config.collect_trace) {
          result.events.push_back(
              {LifecycleEvent::Kind::kChunkLost, engine.now(), w, task->range.count});
        }
        double wasted =
            std::min(config.scheduling_overhead, std::max(0.0, engine.now() - copy.dispatch_time));
        if (copy.start_time < engine.now()) {
          wasted += workers[w].availability->work_delivered(copy.start_time, engine.now());
        }
        result.faults.wasted_work += wasted;
        if (is_backup) result.speculation.backups_lost += 1;
        // Exactly-once: the range returns to the pool ONLY when no other
        // copy of the task can still deliver it (the winner already did, or
        // a live/pending-reclaim sibling copy covers it).
        const Copy& other = is_backup ? task->primary : task->backup;
        if (task->done || (task->has_backup && (other.live || other.lost))) return;
        task->done = true;
        result.faults.iterations_reexecuted += task->range.count;
        pool.give_back(task->range);
        // Wake idle survivors for the returned iterations.
        for (std::size_t v = 0; v < processors; ++v) {
          if (!dead[v] && idle[v]) {
            idle[v] = 0;
            request(v);
          }
        }
      });
      if (std::isfinite(workers[w].recovery_time) && workers[w].recovery_time > serial_end) {
        engine.schedule_at(workers[w].recovery_time, [&, w] {
          dead[w] = 0;
          flight.record(obs::FlightEventKind::kWorkerRecovered, engine.now(),
                        static_cast<std::uint32_t>(w));
          request(w);
        });
      }
    }
    // Deadline-risk monitor: every check_interval, project the makespan
    // from the realized completion rate and escalate the straggler quantile
    // while Pr(makespan <= deadline) sits under the floor. Self-terminating
    // (it must stop rescheduling for the event queue to drain). The timer
    // closures live in this scope and reschedule themselves by reference —
    // a shared_ptr-owned std::function capturing its own owner would leak.
    std::function<void()> risk_check;
    std::function<void()> probe_tick;
    if (config.deadline_risk.enabled) {
      const double deadline = config.deadline_risk.deadline;
      risk_check = [&, deadline] {
        if (completed_iterations >= total_parallel) return;
        bool rescuable = false;
        for (std::size_t v = 0; v < processors && !rescuable; ++v) {
          rescuable = !dead[v] || (std::isfinite(workers[v].recovery_time) &&
                                   workers[v].recovery_time > engine.now());
        }
        if (!rescuable) return;  // stranded; the post-run check reports it
        const double elapsed = engine.now() - serial_end;
        if (completed_iterations > 0 && elapsed > 0.0) {
          const double rate = static_cast<double>(completed_iterations) / elapsed;
          const double remaining =
              static_cast<double>(total_parallel - completed_iterations);
          const double projected = engine.now() + remaining / rate;
          // CLT over the remaining iid iterations at the realized rate.
          const double sigma =
              std::max(1e-12, std::sqrt(remaining) * config.iteration_cov / rate);
          const double p = stats::standard_normal_cdf((deadline - projected) / sigma);
          if (p < config.deadline_risk.risk_floor &&
              quantile > config.speculation.min_quantile) {
            quantile = std::max(config.speculation.min_quantile,
                                quantile * config.speculation.escalation_factor);
            result.speculation.risk_escalations += 1;
            flight.record(obs::FlightEventKind::kRiskEscalated, engine.now(),
                          obs::kFlightMasterTrack,
                          static_cast<std::int64_t>(result.speculation.risk_escalations));
            if (config.collect_trace) {
              result.events.push_back(
                  {LifecycleEvent::Kind::kRiskEscalated, engine.now(), 0,
                   static_cast<std::int64_t>(result.speculation.risk_escalations)});
            }
          }
        }
        engine.schedule_after(config.deadline_risk.check_interval, risk_check);
      };
      engine.schedule_at(serial_end + config.deadline_risk.check_interval, risk_check);
    }
    // Canary-probe timer: every probe_interval, each quarantined worker
    // that is not already busy receives one chunk of real pool work to
    // measure recovery. Self-terminating like the deadline-risk monitor
    // (and created only when the gray machinery is armed, so disarmed
    // runs schedule nothing).
    if (quarantine_armed) {
      probe_tick = [&] {
        if (completed_iterations >= total_parallel) return;
        bool rescuable = false;
        for (std::size_t v = 0; v < processors && !rescuable; ++v) {
          rescuable = !dead[v] || (std::isfinite(workers[v].recovery_time) &&
                                   workers[v].recovery_time > engine.now());
        }
        if (!rescuable) return;  // stranded; the post-run check reports it
        for (std::size_t w = 0; w < processors; ++w) {
          if (health.quarantined(w) && !dead[w] && running[w] == nullptr && !auditing[w]) {
            launch_canary(w);
          }
        }
        engine.schedule_after(config.quarantine.probe_interval, probe_tick);
      };
      engine.schedule_at(serial_end + config.quarantine.probe_interval, probe_tick);
    }
    // All workers become available for parallel work once the serial
    // portion completes on the master; workers already down then are
    // skipped (their recovery event, if any, revives them).
    engine.schedule_at(serial_end, [&] {
      for (std::size_t w = 0; w < processors; ++w) request(w);
    });
    engine.run();
  }

  if (crash_mode && pool.pending() > 0) {
    const std::string detail = std::to_string(pool.pending()) +
                               " iterations stranded by crashes with no surviving worker "
                               "to re-dispatch to";
    // finalize_run never runs for a stranded run, so the postmortem dumps
    // here, at the detection site.
    obs::FlightSink::global().maybe_dump(flight.finish(),
                                         obs::FlightAnomaly{"strand", detail, engine.now()});
    throw std::runtime_error("simulate_loop: " + detail);
  }

  // Gray-failure epilogue: audits still queued when the run drained were
  // never dispatched, so they are dropped without touching the counters
  // (audits_abandoned tracks LAUNCHED replicas only — keeping
  // launched == matched + mismatches + abandoned exact). Open quarantine
  // windows close at the end of simulated activity (all zero when
  // disarmed).
  audits_waiting.clear();
  health.finish(std::max(result.makespan, engine.now()));
  result.quarantine = health.stats;

  for (WorkerStats& w : result.workers) {
    if (w.finish_time == 0.0) w.finish_time = serial_end;
  }
  detail::finalize_run(result, config, flight);
  return result;
}

}  // namespace

double RunResult::finish_time_cov() const {
  stats::OnlineSummary summary;
  for (const WorkerStats& w : workers) summary.add(w.finish_time);
  return summary.cov();
}

RunResult simulate_loop(const workload::Application& application, std::size_t processor_type,
                        std::size_t processors, const sysmodel::AvailabilitySpec& availability,
                        const TechniqueFactory& factory, const SimConfig& config,
                        std::uint64_t seed) {
  detail::PreparedRun prepared =
      detail::prepare_run(application, processor_type, processors, availability, config, seed);

  const std::unique_ptr<dls::Technique> technique = factory(prepared.params);
  if (technique == nullptr) throw std::invalid_argument("simulate_loop: factory returned null");
  technique->reset();

  const std::vector<std::size_t> worker_types(processors, processor_type);
  const std::vector<double> mean_iter(processors, prepared.mean_iter);
  const std::vector<double> stddev_iter(processors, prepared.stddev_iter);
  return run_ideal_loop(application, config, prepared.input_factor, worker_types, mean_iter,
                        stddev_iter, prepared.workers, *technique, prepared.run_rng, seed);
}

RunResult simulate_loop(const workload::Application& application, std::size_t processor_type,
                        std::size_t processors, const sysmodel::AvailabilitySpec& availability,
                        dls::TechniqueId technique, const SimConfig& config, std::uint64_t seed) {
  return simulate_loop(
      application, processor_type, processors, availability,
      [technique](const dls::TechniqueParams& params) {
        return dls::make_technique(technique, params);
      },
      config, seed);
}

RunResult simulate_loop(const workload::Application& application, std::size_t processor_type,
                        std::size_t processors, const sysmodel::AvailabilitySpec& availability,
                        dls::Technique& technique, const SimConfig& config, std::uint64_t seed) {
  return simulate_loop(
      application, processor_type, processors, availability,
      [&technique](const dls::TechniqueParams&) {
        return std::make_unique<ForwardingTechnique>(technique);
      },
      config, seed);
}

ReplicationSummary simulate_replicated(const workload::Application& application,
                                       std::size_t processor_type, std::size_t processors,
                                       const sysmodel::AvailabilitySpec& availability,
                                       dls::TechniqueId technique, const SimConfig& config,
                                       std::uint64_t seed, std::size_t replications,
                                       double deadline, std::size_t threads) {
  if (replications == 0) {
    throw std::invalid_argument("simulate_replicated: replications must be >= 1");
  }
  const util::SeedSequence seeds(seed);
  // Per-run deadline for the flight recorder's deadline-miss postmortem
  // trigger (mirrors the deadline_risk fill in Framework::run_stage_two).
  SimConfig run_config = config;
  if (run_config.flight.deadline == 0.0 && deadline > 0.0 && std::isfinite(deadline)) {
    run_config.flight.deadline = deadline;
  }
  // Replications are embarrassingly parallel: each derives all randomness
  // from its own child seed, so the aggregation below is bit-identical for
  // any thread count.
  std::vector<double> samples(replications);
  std::vector<FaultStats> faults(replications);
  std::vector<SpeculationStats> speculation(replications);
  std::vector<QuarantineStats> quarantine(replications);
  util::parallel_for_index(replications, threads, [&](std::size_t r) {
    // Monte-Carlo checkpoint boundary: a cancelled token aborts the sweep
    // within one replication (the exception propagates out of
    // parallel_for_index after all threads join).
    util::throw_if_cancelled(run_config.cancel);
    const RunResult run = simulate_loop(application, processor_type, processors, availability,
                                        technique, run_config, seeds.child(r));
    samples[r] = run.makespan;
    faults[r] = run.faults;
    speculation[r] = run.speculation;
    quarantine[r] = run.quarantine;
  });
  ReplicationSummary summary;
  // Summed in replication order — independent of the thread count. The
  // idealized executor never touches the channel or the checkpoint log, so
  // channel_total / checkpoint_total stay zero here (simulate_replicated_mpi
  // fills them).
  for (const FaultStats& f : faults) accumulate_faults(summary.faults_total, f);
  for (const SpeculationStats& s : speculation) summary.speculation_total.accumulate(s);
  for (const QuarantineStats& q : quarantine) summary.quarantine_total.accumulate(q);
  detail::summarize_makespans(summary, std::move(samples), deadline);
  return summary;
}

RunResult simulate_loop_mixed(const workload::Application& application,
                              const std::vector<std::size_t>& worker_types,
                              const sysmodel::AvailabilitySpec& availability,
                              dls::TechniqueId technique, const SimConfig& config,
                              std::uint64_t seed) {
  if (worker_types.empty()) {
    throw std::invalid_argument("simulate_loop_mixed: at least one worker required");
  }
  for (std::size_t type : worker_types) {
    if (type >= availability.type_count() || type >= application.type_count()) {
      throw std::invalid_argument("simulate_loop_mixed: unknown processor type");
    }
  }
  detail::validate_config(config);

  const std::size_t processors = worker_types.size();
  const util::SeedSequence seeds(seed);
  util::RngStream run_rng = seeds.stream(0);
  double input_factor = 1.0;
  if (config.input_factor_cov > 0.0) {
    input_factor = std::max(run_rng.normal(1.0, config.input_factor_cov), 0.1);
  }

  // Per-worker iteration statistics and availability processes, each from
  // ITS OWN type. (prepare_run assumes a homogeneous group; this path
  // builds the heterogeneous equivalent directly.)
  std::vector<double> mean_iter(processors, 0.0);
  std::vector<double> stddev_iter(processors, 0.0);
  std::vector<detail::Worker> group(processors);
  for (std::size_t w = 0; w < processors; ++w) {
    const std::size_t type = worker_types[w];
    mean_iter[w] = application.mean_iteration_time(type);
    stddev_iter[w] = mean_iter[w] * config.iteration_cov;
    group[w].rng = std::make_unique<util::RngStream>(seeds.child(100 + 2 * w));
    const pmf::Pmf& law = availability.of_type(type);
    switch (config.availability_mode) {
      case AvailabilityMode::kIidEpoch:
        group[w].availability = std::make_unique<sysmodel::IidEpochAvailability>(
            law, config.epoch_length, seeds.child(101 + 2 * w));
        break;
      case AvailabilityMode::kMarkovEpoch:
        group[w].availability = std::make_unique<sysmodel::MarkovEpochAvailability>(
            law, config.epoch_length, config.markov_persistence, seeds.child(101 + 2 * w));
        break;
      case AvailabilityMode::kConstantMean:
        group[w].availability =
            std::make_unique<sysmodel::ConstantAvailability>(law.expectation());
        break;
      case AvailabilityMode::kSampleOnce:
        group[w].availability = std::make_unique<sysmodel::ConstantAvailability>(
            law.sample_with(run_rng.uniform01()));
        break;
      case AvailabilityMode::kDiurnal: {
        const double mean = law.expectation();
        const double amplitude =
            std::min({config.diurnal_amplitude, mean - 1e-6, 1.0 - mean});
        const double phase = static_cast<double>(w) /
                             static_cast<double>(processors) * config.diurnal_period;
        group[w].availability = std::make_unique<sysmodel::DiurnalAvailability>(
            mean, std::max(amplitude, 0.0), config.diurnal_period, phase);
        break;
      }
    }
  }
  detail::validate_failures(config.failures, processors);
  for (const SimConfig::Failure& failure : config.failures) {
    detail::apply_failure(group[failure.worker], failure);
  }

  // The technique sees combined speed x availability weights: the rate of
  // worker w relative to the group (1/mean_iter scaled by observed
  // availability at t = 0, pre-crash for a worker already down at t = 0).
  dls::TechniqueParams params;
  params.workers = processors;
  params.total_iterations = std::max<std::int64_t>(1, application.parallel_iterations());
  double mean_iter_sum = 0.0;
  for (double m : mean_iter) mean_iter_sum += m;
  params.mean_iteration_time = mean_iter_sum / static_cast<double>(processors);
  params.stddev_iteration_time = params.mean_iteration_time * config.iteration_cov;
  params.scheduling_overhead = config.scheduling_overhead;
  params.weights.reserve(processors);
  for (std::size_t w = 0; w < processors; ++w) {
    const double avail0 = group[w].crashes() && group[w].crash_time <= 0.0
                              ? group[w].weight_at_zero
                              : group[w].availability->availability_at(0.0);
    params.weights.push_back(avail0 / mean_iter[w] * params.mean_iteration_time);
  }
  const std::unique_ptr<dls::Technique> tech = dls::make_technique(technique, params);
  tech->reset();

  return run_ideal_loop(application, config, input_factor, worker_types, mean_iter,
                        stddev_iter, group, *tech, run_rng, seed);
}

TechniqueComparison compare_techniques(const workload::Application& application,
                                       std::size_t processor_type, std::size_t processors,
                                       const sysmodel::AvailabilitySpec& availability,
                                       dls::TechniqueId technique_a,
                                       dls::TechniqueId technique_b, const SimConfig& config,
                                       std::uint64_t seed, std::size_t replications,
                                       double level) {
  if (replications == 0) {
    throw std::invalid_argument("compare_techniques: replications must be >= 1");
  }
  const util::SeedSequence seeds(seed);
  std::vector<double> a(replications);
  std::vector<double> b(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    // Common random numbers: the SAME child seed drives both techniques, so
    // they face identical availability paths and iteration noise.
    const std::uint64_t child = seeds.child(r);
    a[r] = simulate_loop(application, processor_type, processors, availability, technique_a,
                         config, child)
               .makespan;
    b[r] = simulate_loop(application, processor_type, processors, availability, technique_b,
                         config, child)
               .makespan;
  }
  TechniqueComparison comparison;
  comparison.technique_a = technique_a;
  comparison.technique_b = technique_b;
  comparison.makespan_difference =
      stats::paired_median_comparison(a, b, level, 2000, seeds.child(1 << 20));
  comparison.median_a = stats::percentile(a, 0.5);
  comparison.median_b = stats::percentile(b, 0.5);
  return comparison;
}

}  // namespace cdsf::sim
