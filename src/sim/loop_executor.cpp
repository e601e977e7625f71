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

  RunResult result;
  // Every happening goes through this writer: the always-on flight
  // recorder (merged into result.flight by finish_run; recording never
  // touches the RNG) and, with collect_trace, the lifecycle events.
  detail::EventWriter events(config, processors, result);
  // Serial iterations on the master (worker 0). Master failures are
  // MPI-only (this executor has no explicit coordinator).
  const double serial_end = detail::run_prologue(
      result, events, application, config, input_factor, mean_iter[0], stddev_iter[0], workers,
      run_rng,
      "simulate_loop: master crashed during the serial phase — the serial "
      "iterations have no fault tolerance (re-dispatch needs a live master)");

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

  detail::GrayPolicy gray(config, workers, seed, input_factor, config.scheduling_overhead,
                          result, events);

  std::function<void(std::size_t)> request;

  // Draws the work of `range` on worker v dispatched now and times it:
  // computation starts after the dispatch overhead. Lost iff the execution
  // window straddles the crash (a permanent crash makes end +infinity,
  // which also lands here). Dead workers never request, so dispatch <
  // crash_time holds for every pre-crash chunk and is false for every
  // post-recovery one.
  struct Timing {
    double dispatch;
    double start;
    double end;
    bool lost;
  };
  auto execute = [&](std::size_t v, detail::IterationPool::Range range) {
    Timing t{engine.now(), engine.now() + config.scheduling_overhead, 0.0, false};
    const double work =
        input_factor * detail::chunk_work(application, worker_types[v], mean_iter[v],
                                          stddev_iter[v], config.iteration_cov, range.first,
                                          range.count, *workers[v].rng);
    t.end = workers[v].availability->finish_time(t.start, work);
    t.lost = t.dispatch < workers[v].crash_time && t.end > workers[v].crash_time;
    return t;
  };

  // What a copy has sunk into its worker by now: the elapsed dispatch
  // overhead plus the work delivered since computation started.
  auto sunk_work = [&](const Copy& copy) {
    const double now = engine.now();
    double sunk = std::min(config.scheduling_overhead, std::max(0.0, now - copy.dispatch_time));
    if (copy.start_time < now) {
      sunk += workers[copy.worker].availability->work_delivered(copy.start_time, now);
    }
    return sunk;
  };

  // Stops a live losing copy: its completion event dies, the sunk work is
  // charged to cancelled_work, and its worker is free immediately.
  auto cancel_copy = [&](Task& task, Copy& copy, bool is_backup) {
    engine.cancel(copy.completion);
    copy.live = false;
    events.cancelled(copy.worker, task.range, is_backup, sunk_work(copy), copy.trace_index,
                     engine.now());
    running[copy.worker] = nullptr;
    request(copy.worker);
  };

  // Re-executes an accepted chunk on independent worker v and compares.
  // The replica's timing feeds neither record() nor the coverage
  // accounting (its trace entry is flagged `audit`); only the comparison
  // verdict matters. A mismatch marks the ORIGINATING worker suspect.
  auto launch_audit = [&](std::size_t v, const detail::GrayPolicy::AuditJob& job) {
    const Timing t = execute(v, job.range);
    CDSF_LOG_TRACE << "worker " << v << " audit " << job.range.count << " of worker "
                   << job.origin << " [" << t.dispatch << ", " << t.end << "]"
                   << (t.lost ? " LOST" : "");
    // A worker that crashes mid-replica never delivers the verdict.
    if (!gray.launch_audit(v, job, t.dispatch, t.start, t.end, t.lost)) return;
    engine.schedule_at(t.end, [&, v, job, t] {
      gray.audit_verdict(v, job, t.start, t.end, config.scheduling_overhead, t.end);
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
    events.emit(obs::FlightEventKind::kChunkAccepted, end_time, w, task->range);
    if (is_backup) {
      result.speculation.backups_won += 1;
      events.emit(obs::FlightEventKind::kBackupWon, end_time, w, task->range);
    }
    technique.record(dls::ChunkResult{w, task->range.count, end_time - winner.start_time,
                                      end_time - winner.dispatch_time});
    stats.finish_time = end_time;
    result.makespan = std::max(result.makespan, end_time);
    if (gray.active && gray.on_accept(w, task->range, task->probe, winner.dispatch_time,
                                      end_time, end_time, mean_iter[w])) {
      // Wake one idle eligible worker for the replica (the originator
      // cannot audit itself).
      for (std::size_t v = 0; v < processors; ++v) {
        if (idle[v] && !dead[v] && v != w) {
          idle[v] = 0;
          request(v);
          break;
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
    const Timing t = execute(v, range);
    task->has_backup = true;
    task->backup = Copy{v, !t.lost, t.lost, t.dispatch, t.start, Engine::kNoEvent, -1};
    running[v] = task;
    result.speculation.backups_launched += 1;
    events.emit(obs::FlightEventKind::kBackupLaunched, t.dispatch, v, range);
    if (config.collect_trace) {
      task->backup.trace_index = static_cast<std::ptrdiff_t>(result.trace.size());
      result.trace.push_back(
          {v, range.count, t.dispatch, t.start, t.end, t.lost, range.first, true, false});
    }
    CDSF_LOG_TRACE << "worker " << v << " backup " << range.count << " [" << t.dispatch
                   << ", " << t.end << "]" << (t.lost ? " LOST" : "");
    if (t.lost) return;  // the crash event at crash_time reclaims it
    task->backup.completion =
        engine.schedule_cancellable_at(t.end, [&, task] { complete_copy(task, true); });
  };

  // Dispatches a granted range onto worker w as a fresh primary copy.
  // Shared by the normal request path and the canary-probe path (a canary
  // is an ordinary chunk of real pool work, flagged `probe` and exempt
  // from straggler speculation — the quarantined worker is deliberately
  // running it, so a backup would defeat the measurement).
  auto launch_task = [&](std::size_t w, detail::IterationPool::Range range, bool is_probe) {
    const Timing t = execute(w, range);
    Task* task = &tasks.emplace_back();
    task->range = range;
    task->probe = is_probe;
    task->primary = Copy{w, !t.lost, t.lost, t.dispatch, t.start, Engine::kNoEvent, -1};
    running[w] = task;
    events.emit(obs::FlightEventKind::kChunkDispatched, t.dispatch, w, range);
    if (config.collect_trace) {
      task->primary.trace_index = static_cast<std::ptrdiff_t>(result.trace.size());
      result.trace.push_back({w, range.count, t.dispatch, t.start, t.end, t.lost, range.first,
                              false, false, false, false, is_probe});
    }
    CDSF_LOG_TRACE << "worker " << w << (is_probe ? " canary " : " chunk ") << range.count
                   << " [" << t.dispatch << ", " << t.end << "]" << (t.lost ? " LOST" : "");

    if (speculate && !is_probe) {
      // A degraded-but-alive worker blows through the threshold without
      // ever tripping the crash detector.
      const double threshold = detail::straggler_threshold(
          config.speculation, quantile, technique.estimated_iteration_time(w),
          input_factor * mean_iter[w], input_factor, stddev_iter[w], range.count);
      engine.schedule_at(t.start + threshold, [&, task, w] {
        if (task->done || task->flagged || task->has_backup) return;
        task->flagged = true;
        events.straggler(w, task->range, engine.now());
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
    if (t.lost) return;  // never completes; the crash event at crash_time reclaims it
    task->primary.completion =
        engine.schedule_cancellable_at(t.end, [&, task] { complete_copy(task, false); });
  };

  // Self-scheduling protocol: an idle worker requests a chunk; the chunk
  // completion event records feedback and triggers the next request. Fresh
  // work always outranks speculation — backups launch only when the pool is
  // empty (an idle worker exists only when nothing is undispatched) — and
  // audits run last of all (pure validation, never ahead of real work).
  request = [&](std::size_t w) {
    WorkerStats& stats = result.workers[w];
    if (dead[w]) return;
    if (gray.armed && gray.health.quarantined(w)) {
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
      if (gray.armed) {
        if (const auto job = gray.take_audit(w)) {
          launch_audit(w, *job);
          return;
        }
      }
      // Nothing undispatched NOW — but a crash may still return work, so
      // stay wakeable instead of retiring.
      idle[w] = 1;
      stats.finish_time = std::max(stats.finish_time, engine.now());
      return;
    }
    const std::int64_t chunk =
        detail::chunk_size(technique, pending, w, engine.now(), false, crash_mode, dead);
    if (chunk <= 0) {
      // The technique has nothing (ever) for this worker (STATIC share spent).
      stats.finish_time = std::max(stats.finish_time, engine.now());
      return;
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
    const detail::IterationPool::Range range = pool.take(
        detail::chunk_size(technique, pending, w, engine.now(), true, crash_mode, dead));
    if (range.count <= 0) return;
    gray.canary_launched(w, range, engine.now());
    launch_task(w, range, /*is_probe=*/true);
  };

  if (application.parallel_iterations() > 0) {
    // Crash lifecycle events FIRST so that, on a timestamp tie, a worker is
    // marked dead before any request or completion at the same instant.
    for (std::size_t w = 0; w < processors; ++w) {
      if (!workers[w].crashes()) continue;
      engine.schedule_at(workers[w].crash_time, [&, w] {
        dead[w] = 1;
        // Flight ring only, here and at the recovery: run_prologue already
        // listed both instants.
        events.record(obs::FlightEventKind::kWorkerCrashed, engine.now(), w);
        Task* task = running[w];
        if (task == nullptr) return;
        const bool is_backup = task->has_backup && task->backup.worker == w;
        Copy& copy = is_backup ? task->backup : task->primary;
        if (!copy.lost) return;  // completes exactly at crash time; allowed
        running[w] = nullptr;
        copy.lost = false;
        events.lost(w, task->range, is_backup, sunk_work(copy), engine.now());
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
          events.record(obs::FlightEventKind::kWorkerRecovered, engine.now(), w);
          request(w);
        });
      }
    }
    // The periodic timers stop once the loop completed or every worker is
    // dead for good (stranded; the post-run check reports it), so the event
    // queue can drain.
    auto timers_done = [&] {
      if (completed_iterations >= total_parallel) return true;
      for (std::size_t v = 0; v < processors; ++v) {
        if (!dead[v] || (std::isfinite(workers[v].recovery_time) &&
                         workers[v].recovery_time > engine.now())) {
          return false;
        }
      }
      return true;
    };
    // Deadline-risk monitor: every check_interval, project the makespan
    // from the realized completion rate and escalate the straggler quantile
    // while Pr(makespan <= deadline) sits under the floor. The timer
    // closures live in this scope and reschedule themselves by reference —
    // a shared_ptr-owned std::function capturing its own owner would leak.
    std::function<void()> risk_check;
    std::function<void()> probe_tick;
    if (config.deadline_risk.enabled) {
      const double deadline = config.deadline_risk.deadline;
      risk_check = [&, deadline] {
        if (timers_done()) return;
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
            events.emit(obs::FlightEventKind::kRiskEscalated, engine.now(),
                        obs::kFlightMasterTrack,
                        static_cast<std::int64_t>(result.speculation.risk_escalations));
          }
        }
        engine.schedule_after(config.deadline_risk.check_interval, risk_check);
      };
      engine.schedule_at(serial_end + config.deadline_risk.check_interval, risk_check);
    }
    // Canary-probe timer: every probe_interval, each quarantined worker
    // that is not already busy receives one chunk of real pool work to
    // measure recovery (created only when the gray machinery is armed, so
    // disarmed runs schedule nothing).
    if (gray.armed) {
      probe_tick = [&] {
        if (timers_done()) return;
        for (std::size_t w = 0; w < processors; ++w) {
          if (gray.health.quarantined(w) && !dead[w] && running[w] == nullptr &&
              !gray.auditing[w]) {
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

  detail::finish_run(result, config, events, gray, engine.now(),
                     crash_mode ? pool.pending() : 0, "simulate_loop",
                     " iterations stranded by crashes with no surviving worker to "
                     "re-dispatch to");
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
  // The idealized executor never touches the channel or the checkpoint
  // log, so channel_total / checkpoint_total stay zero.
  return detail::replicate(
      "simulate_replicated", config, seed, replications, deadline, threads,
      [&](const SimConfig& run_config, std::uint64_t run_seed) {
        return simulate_loop(application, processor_type, processors, availability, technique,
                             run_config, run_seed);
      });
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
    // Diurnal phases spread evenly over the group by worker index.
    const double phase =
        static_cast<double>(w) / static_cast<double>(processors) * config.diurnal_period;
    group[w].availability = detail::make_process(availability.of_type(type), config, run_rng,
                                                 seeds.child(101 + 2 * w), phase);
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
    params.weights.push_back(group[w].weight_seed() / mean_iter[w] * params.mean_iteration_time);
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
