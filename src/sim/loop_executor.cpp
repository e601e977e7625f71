#include "sim/loop_executor.hpp"

#include <algorithm>
#include <cmath>
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
  const bool speculate = config.speculation.enabled;
  const std::int64_t total_parallel = application.parallel_iterations();
  constexpr std::size_t kNone = detail::ChunkLedger::kNone;
  detail::GrayPolicy gray(config, workers, seed, input_factor, config.scheduling_overhead,
                          result, events);
  detail::ChunkLedger ledger(config, total_parallel, processors, input_factor, technique, result,
                             events, gray);

  std::function<void(std::size_t)> request;
  std::function<void(std::size_t, detail::IterationPool::Range, bool, std::size_t)> launch;

  // Draws the work of `range` on worker v dispatched now and times it:
  // computation starts after the dispatch overhead. Lost iff the execution
  // window straddles the crash (a permanent crash makes end +infinity,
  // which also lands here). Dead workers never request, so dispatch <=
  // crash_time holds for every pre-crash chunk, including one handed over
  // at the crash instant by another worker's same-time crash, and is false
  // for every post-recovery one.
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
    t.lost = t.dispatch <= workers[v].crash_time && t.end > workers[v].crash_time;
    return t;
  };

  // What worker v's losing or lost copy has sunk by now.
  auto sunk_work = [&](std::size_t v) {
    return ledger.sunk_work(v, config.scheduling_overhead, engine.now(), *workers[v].availability);
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

  // Worker w's copy finished first: the ledger accepts it; a live losing
  // copy stops now (its sunk work charged to cancelled_work), while a lost
  // one is recorded at its worker's crash.
  auto complete = [&](std::size_t w) {
    const double end_time = engine.now();
    ledger.accept(w, config.scheduling_overhead, end_time);
    const detail::ChunkLedger::Settled settled = ledger.settle(w, end_time, mean_iter[w]);
    if (settled.auditor != kNone) request(settled.auditor);
    if (settled.loser != kNone) {
      const std::size_t v = settled.loser;
      detail::Assignment& loser = ledger.assignment[v];
      if (loser.lost) {
        loser.partner_won = true;
      } else {
        engine.cancel(loser.event);
        loser.active = false;
        events.cancelled(v, loser.range, loser.backup, sunk_work(v), loser.trace_index,
                         end_time);
        request(v);
      }
    }
    request(w);
  };

  // Dispatches `range` onto worker w: a fresh chunk (a canary when
  // `probe`) or, when `primary` names a worker, the backup copy of its
  // straggler. A canary is exempt from speculation: the quarantined worker
  // is deliberately running it, so a backup would defeat the measurement.
  launch = [&](std::size_t w, detail::IterationPool::Range range, bool probe,
               std::size_t primary) {
    const Timing t = execute(w, range);
    detail::Assignment& a =
        ledger.open(w, range, t.dispatch, t.start, t.end, t.lost, probe, primary);
    if (speculate && !probe && primary == kNone) {
      const double threshold = ledger.straggler_threshold(
          w, range.count, input_factor * mean_iter[w], stddev_iter[w]);
      engine.schedule_at(t.start + threshold, [&, w, id = a.id] {
        const std::size_t host = ledger.flag_straggler(w, id, engine.now());
        if (host != kNone) launch(host, ledger.assignment[w].range, false, w);
      });
    }
    if (t.lost) return;  // never completes; the crash event at crash_time reclaims it
    a.event = engine.schedule_cancellable_at(t.end, [&, w] { complete(w); });
  };

  // Carries out the ledger's grant to worker w.
  auto serve = [&](std::size_t w, bool probe) {
    const detail::ChunkLedger::Grant grant = ledger.serve(w, engine.now(), probe, crash_mode);
    switch (grant.kind) {
      case detail::ChunkLedger::Grant::Kind::kChunk:
      case detail::ChunkLedger::Grant::Kind::kBackup:
        launch(w, grant.range, probe, grant.primary);
        break;
      case detail::ChunkLedger::Grant::Kind::kAudit:
        launch_audit(w, grant.audit);
        break;
      case detail::ChunkLedger::Grant::Kind::kBench:
      case detail::ChunkLedger::Grant::Kind::kNothing:
        break;
    }
  };

  // Self-scheduling: a free worker requests a chunk; each completion
  // triggers the next request. Dead workers never request.
  request = [&](std::size_t w) {
    if (!ledger.down[w]) serve(w, false);
  };

  if (application.parallel_iterations() > 0) {
    // Crash lifecycle events FIRST so that, on a timestamp tie, a worker is
    // marked dead before any request or completion at the same instant.
    for (std::size_t w = 0; w < processors; ++w) {
      if (!workers[w].crashes()) continue;
      engine.schedule_at(workers[w].crash_time, [&, w] {
        ledger.down[w] = 1;
        // Flight ring only, here and at the recovery: run_prologue already
        // listed both instants.
        events.record(obs::FlightEventKind::kWorkerCrashed, engine.now(), w);
        detail::Assignment& a = ledger.assignment[w];
        if (!a.active || !a.lost) return;  // a copy completing exactly now is allowed
        a.active = false;
        events.lost(w, a.range, a.backup, sunk_work(w), engine.now());
        // Wake idle survivors for the returned iterations.
        if (ledger.reclaim(w)) ledger.wake_idle(request);
      });
      if (std::isfinite(workers[w].recovery_time) && workers[w].recovery_time > serial_end) {
        engine.schedule_at(workers[w].recovery_time, [&, w] {
          ledger.down[w] = 0;
          events.record(obs::FlightEventKind::kWorkerRecovered, engine.now(), w);
          request(w);
        });
      }
    }
    // The periodic timers stop once the loop completed or every worker is
    // dead for good (stranded; the post-run check reports it), so the event
    // queue can drain.
    auto timers_done = [&] {
      if (ledger.completed >= total_parallel) return true;
      for (std::size_t v = 0; v < processors; ++v) {
        if (!ledger.down[v] || (std::isfinite(workers[v].recovery_time) &&
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
        if (ledger.completed > 0 && elapsed > 0.0) {
          const double rate = static_cast<double>(ledger.completed) / elapsed;
          const double remaining = static_cast<double>(total_parallel - ledger.completed);
          const double projected = engine.now() + remaining / rate;
          // CLT over the remaining iid iterations at the realized rate.
          const double sigma =
              std::max(1e-12, std::sqrt(remaining) * config.iteration_cov / rate);
          const double p = stats::standard_normal_cdf((deadline - projected) / sigma);
          if (p < config.deadline_risk.risk_floor &&
              ledger.quantile > config.speculation.min_quantile) {
            ledger.quantile = std::max(config.speculation.min_quantile,
                                       ledger.quantile * SimConfig::Speculation::kEscalationFactor);
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
          if (gray.health.quarantined(w) && !ledger.down[w] && !ledger.assignment[w].active &&
              !gray.auditing[w]) {
            serve(w, /*probe=*/true);
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
                     crash_mode ? ledger.pool.pending() : 0, "simulate_loop",
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
  return simulate_replicated({{&application, processor_type, processors, technique, seed}},
                             availability, config, replications, deadline, threads)
      .front();
}

std::vector<ReplicationSummary> simulate_replicated(const std::vector<ReplicatedArm>& arms,
                                                    const sysmodel::AvailabilitySpec& availability,
                                                    const SimConfig& config,
                                                    std::size_t replications, double deadline,
                                                    std::size_t threads) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(arms.size());
  for (const ReplicatedArm& arm : arms) {
    if (arm.application == nullptr) {
      throw std::invalid_argument("simulate_replicated: arm without an application");
    }
    seeds.push_back(arm.seed);
  }
  // The idealized executor never touches the channel or the checkpoint
  // log, so channel_total / checkpoint_total stay zero.
  return detail::replicate(
      "simulate_replicated", config, seeds, replications, deadline, threads,
      [&](std::size_t a, const SimConfig& run_config, std::uint64_t run_seed) {
        const ReplicatedArm& arm = arms[a];
        return simulate_loop(*arm.application, arm.processor_type, arm.processors,
                             availability, arm.technique, run_config, run_seed);
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
