#include "cdsf/dynamic_manager.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "pmf/ops.hpp"
#include "ra/robustness.hpp"
#include "sim/engine.hpp"
#include "sim/sim_common.hpp"
#include "util/rng.hpp"

namespace cdsf::core {

namespace {

/// Best (type, count) among the free processors: maximize the probability
/// that the application completes within `budget`, tie-break toward fewer
/// processors (leave room for the queue), then toward the smaller expected
/// completion.
struct Choice {
  ra::GroupAssignment group;
  double probability = -1.0;
  bool found = false;
};

/// With `coarse` set (degradation tier kCoarseAllocation and above) the
/// candidate set collapses to the largest admissible count per type.
Choice choose_group(const ra::RobustnessEvaluator& laws, std::size_t app,
                    const std::vector<std::size_t>& free_processors, double budget,
                    ra::CountRule rule, bool coarse) {
  Choice best;
  for (std::size_t type = 0; type < free_processors.size(); ++type) {
    const std::vector<std::size_t> counts =
        ra::candidate_counts(free_processors[type], rule);
    for (std::size_t count : counts) {
      if (coarse && count != counts.back()) continue;
      const double p = laws.completion_pmf(app, ra::GroupAssignment{type, count}).cdf(budget);
      const bool better =
          p > best.probability + 1e-12 ||
          (p > best.probability - 1e-12 && best.found && count < best.group.processors);
      if (!best.found || better) {
        best.group = ra::GroupAssignment{type, count};
        best.probability = p;
        best.found = true;
      }
    }
  }
  return best;
}

/// Arrival-time admission estimate: the group with the best achievable
/// completion law on an IDLE platform (every processor of the chosen type
/// free) — the upper bound the admission test discounts by the backlog, and
/// the law whose shed_floor-quantile prices deadline-aware shedding. It
/// holds the group, not the law: deciding the application forgets its laws.
struct AdmissionEstimate {
  ra::GroupAssignment group;  // best full-platform group
  double shed_budget = 0.0;   // smallest budget with Pr(success) >= shed_floor
};

AdmissionEstimate make_estimate(const ra::RobustnessEvaluator& laws, std::size_t app,
                                const std::vector<std::size_t>& full_capacity, double slack,
                                ra::CountRule rule, double shed_floor) {
  const Choice best = choose_group(laws, app, full_capacity, std::max(slack, 1.0), rule, false);
  AdmissionEstimate estimate{best.group, 0.0};
  if (shed_floor > 0.0) {
    const pmf::Pmf& completion = laws.completion_pmf(app, best.group);
    double cumulative = 0.0;
    estimate.shed_budget = completion.max();
    for (const pmf::Pulse& pulse : completion.pulses()) {
      cumulative += pulse.probability;
      if (cumulative >= shed_floor) {
        estimate.shed_budget = pulse.value;
        break;
      }
    }
  }
  return estimate;
}

/// Hedges an at-risk execution: speculative re-execution on or, when it
/// already is, the straggler quantile tightened by
/// Speculation::kEscalationFactor (floored at min_quantile).
void escalate(sim::SimConfig::Speculation& speculation) {
  if (!speculation.enabled) {
    speculation.enabled = true;
  } else {
    speculation.quantile =
        std::max(speculation.min_quantile,
                 speculation.quantile * sim::SimConfig::Speculation::kEscalationFactor);
  }
}

constexpr std::size_t kMaxTier = static_cast<std::size_t>(DegradationTier::kReject);

/// Reason payload of a kAdmissionRejected flight event (field `b`).
enum RejectReason : std::int64_t {
  kRejectLadder = 0,     // ladder at the reject tier
  kRejectQueueFull = 1,  // bounded queue at capacity
  kRejectAdmitFloor = 2, // backlog-discounted probability below admit_floor
  kRejectMarginal = 3,   // admitting would push queued work under shed_floor
};

}  // namespace

DynamicRunResult run_dynamic_manager(const sysmodel::Platform& platform,
                                     const sysmodel::AvailabilitySpec& reference,
                                     const sysmodel::AvailabilitySpec& runtime,
                                     const DynamicConfig& config, std::uint64_t seed) {
  if (config.applications == 0) {
    throw std::invalid_argument("run_dynamic_manager: applications must be >= 1");
  }
  if (!(config.mean_interarrival > 0.0)) {
    throw std::invalid_argument("run_dynamic_manager: mean_interarrival must be > 0");
  }
  if (!(config.deadline_slack > 0.0)) {
    throw std::invalid_argument("run_dynamic_manager: deadline_slack must be > 0");
  }
  if (config.escalate_speculation_on_risk &&
      !(config.speculation_risk_floor > 0.0 && config.speculation_risk_floor <= 1.0)) {
    throw std::invalid_argument(
        "run_dynamic_manager: speculation_risk_floor must be in (0, 1]");
  }
  // Contradictory admission knobs (shedding or a ladder under accept-all,
  // bounded policies without capacity, ...) are rejected, not ignored.
  validate_admission(config.admission);
  // The dynamic manager executes applications on the idealized
  // simulate_loop, which has no message channel and no master process —
  // silently ignoring these knobs would misreport a hardened run.
  // (Quarantine/audit knobs ARE honored: simulate_loop implements them.)
  if (config.sim.channel.corrupting()) {
    throw std::invalid_argument(
        "run_dynamic_manager: payload corruption ([integrity] / "
        "ChannelModel::corrupt_to_*) requires the MPI executor's checksum "
        "framing (SimConfig::channel is ignored by simulate_loop)");
  }
  if (config.sim.channel.faulty()) {
    throw std::invalid_argument(
        "run_dynamic_manager: channel faults require the MPI executor "
        "(SimConfig::channel is ignored by simulate_loop)");
  }
  if (config.sim.checkpoint.enabled ||
      sim::detail::master_restart_failure(config.sim) != nullptr) {
    throw std::invalid_argument(
        "run_dynamic_manager: master checkpointing/restart requires the MPI "
        "executor (SimConfig::checkpoint is ignored by simulate_loop)");
  }

  // rho_2 trigger: if the realized availability has degraded past the
  // certified radius, plan against it instead of the reference.
  const double realized_decrease =
      sysmodel::availability_decrease(reference, runtime, platform);
  const bool remap_triggered = config.remap_on_rho2 && realized_decrease > config.rho2;
  const sysmodel::AvailabilitySpec& planning_spec = remap_triggered ? runtime : reference;
  const AdmissionConfig& admission = config.admission;
  const bool admission_active = admission.active();

  const util::SeedSequence seeds(seed);
  util::RngStream arrival_rng = seeds.stream(0);

  // Generate the applications up front (deterministic). One Stage I
  // evaluator over the planning spec builds their completion laws, each
  // (application, type, count) once, at its first query, with the
  // manager's 64 discretization pulses and 512-pulse budget. Queries read
  // a law's CDF at their own budget, so the evaluator's deadline is unused.
  // An application's laws are forgotten once it is allocated, rejected or
  // shed, so the memo holds only the applications still in play.
  workload::BatchSpec spec = config.application_spec;
  spec.applications = config.applications;
  const workload::Batch apps = workload::generate_batch(spec, seeds.child(1));
  const ra::RobustnessEvaluator laws(apps, planning_spec, config.deadline_slack,
                                     ra::RobustnessConfig{64, pmf::kDefaultMaxPulses});
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) {
    metrics.add("cdsf.dynamic.runs");
    metrics.add("cdsf.remap.checks");
    if (remap_triggered) metrics.add("cdsf.remap.triggered");
    metrics.observe("cdsf.remap.realized_decrease", realized_decrease);
  }
  // Manager-level flight recording (master track only): admission
  // rejections, sheds, and ladder transitions. Structurally inert under
  // accept-all, so default runs stay byte-identical.
  obs::FlightRecorder flight(0, config.sim.flight.track_capacity,
                             admission_active && obs::flight_recording_enabled());

  DynamicRunResult result;
  result.remap_triggered = remap_triggered;
  result.realized_decrease = realized_decrease;
  result.outcomes.assign(config.applications, DynamicOutcome{});
  double clock = 0.0;
  for (DynamicOutcome& outcome : result.outcomes) {
    clock += -config.mean_interarrival *
             std::log(std::max(1e-12, 1.0 - arrival_rng.uniform01()));
    outcome.arrival_time = clock;
    outcome.deadline_slack = config.deadline_slack;
  }
  // Per-application deadline slack. The spread knob draws from its own
  // stream, created only when armed, so spread == 0 (the default) leaves
  // every historical RNG stream untouched.
  if (config.deadline_slack_spread > 0.0) {
    util::RngStream slack_rng = seeds.stream(2);
    for (DynamicOutcome& outcome : result.outcomes) {
      const double u = slack_rng.uniform01();
      outcome.deadline_slack = config.deadline_slack *
                               (1.0 - config.deadline_slack_spread +
                                2.0 * config.deadline_slack_spread * u);
    }
  }

  // Event-driven manager on the simulation engine: arrivals and
  // completions interleave; completions free processors and trigger
  // queued allocations.
  std::vector<std::size_t> full_capacity(platform.type_count());
  for (std::size_t j = 0; j < platform.type_count(); ++j) {
    full_capacity[j] = platform.processors_of_type(j);
  }
  std::vector<std::size_t> free_processors = full_capacity;
  sim::Engine engine;
  std::deque<std::size_t> waiting;
  std::size_t running = 0;  // groups allocated and not yet completed
  double busy_processor_time = 0.0;

  // Admission state. shed_budget caches, per queued application, the
  // smallest remaining budget that keeps its best-case success probability
  // at or above shed_floor — the deadline-aware shedding test is then one
  // comparison per queued job per event.
  AdmissionStats& stats = result.admission;
  std::vector<double> shed_budget(admission_active ? config.applications : 0, 0.0);
  double service_ewma = 0.0;   // EWMA of realized execution makespans
  bool service_seen = false;
  std::size_t tier = 0;
  double overload_ewma = 0.0;
  std::uint64_t stress_events = 0;  // rejections + sheds since last arrival

  const bool count_metrics = admission_active && metrics.enabled();

  auto deadline_of = [&](std::size_t app_index) {
    const DynamicOutcome& outcome = result.outcomes[app_index];
    return outcome.arrival_time + outcome.deadline_slack;
  };

  auto step_ladder_to = [&](std::size_t new_tier) {
    flight.record(obs::FlightEventKind::kOverloadTierChanged, engine.now(),
                  obs::kFlightMasterTrack, static_cast<std::int64_t>(new_tier),
                  static_cast<std::int64_t>(tier));
    tier = new_tier;
    ++stats.ladder_steps;
    stats.max_tier = std::max<std::uint64_t>(stats.max_tier, tier);
    if (count_metrics) metrics.add("cdsf.dynamic.ladder_steps");
  };

  auto reject_arrival = [&](std::size_t app_index, std::int64_t reason) {
    laws.forget(app_index, platform, config.rule);
    result.outcomes[app_index].disposition = DynamicOutcome::Disposition::kRejected;
    ++stats.rejected;
    ++stress_events;
    flight.record(obs::FlightEventKind::kAdmissionRejected, engine.now(),
                  obs::kFlightMasterTrack, static_cast<std::int64_t>(app_index), reason);
    if (count_metrics) metrics.add("cdsf.dynamic.rejected");
  };

  // Deadline-aware shedding: evict queued applications whose remaining
  // budget fell below their shed_floor quantile — they could no longer
  // meet their deadline even starting NOW on an idle platform, so burning
  // processor time on them only starves the rest of the queue.
  auto shed_stale = [&] {
    if (!admission_active || !(admission.shed_floor > 0.0)) return;
    for (auto it = waiting.begin(); it != waiting.end();) {
      const std::size_t app_index = *it;
      if (deadline_of(app_index) - engine.now() < shed_budget[app_index]) {
        laws.forget(app_index, platform, config.rule);
        result.outcomes[app_index].disposition = DynamicOutcome::Disposition::kShed;
        ++stats.shed;
        ++stress_events;
        flight.record(obs::FlightEventKind::kJobShed, engine.now(), obs::kFlightMasterTrack,
                      static_cast<std::int64_t>(app_index),
                      static_cast<std::int64_t>(tier));
        if (count_metrics) metrics.add("cdsf.dynamic.shed");
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
  };

  // A completion frees its group and drains the queue as far as the freed
  // processors allow (head-of-line: the front blocks the rest, in FIFO or
  // EDF order alike). Declared here because try_allocate schedules it.
  std::function<void(ra::GroupAssignment)> complete;

  auto try_allocate = [&](std::size_t app_index) -> bool {
    const double now = engine.now();
    DynamicOutcome& outcome = result.outcomes[app_index];
    const double budget = deadline_of(app_index) - now;
    const bool coarse = admission_active &&
                        tier >= static_cast<std::size_t>(DegradationTier::kCoarseAllocation);
    const Choice choice = choose_group(laws, app_index, free_processors,
                                       std::max(budget, 1.0), config.rule, coarse);
    if (!choice.found) return false;  // nothing free at all

    laws.forget(app_index, platform, config.rule);
    free_processors[choice.group.processor_type] -= choice.group.processors;
    outcome.start_time = now;
    outcome.group = choice.group;
    outcome.probability = choice.probability;
    ++stats.admitted;
    if (count_metrics) metrics.add("cdsf.dynamic.admitted");

    sim::SimConfig sim_config = config.sim;
    if (config.escalate_speculation_on_risk &&
        choice.probability < config.speculation_risk_floor) {
      // The allocation itself is already at risk: hedge the execution with
      // speculative replication before the rho_2 cliff is even reached.
      ++result.speculation_escalations;
      escalate(sim_config.speculation);
      if (metrics.enabled()) metrics.add("cdsf.dynamic.speculation_escalated");
    }
    if (admission_active) {
      // Degradation-ladder effects on the execution, cumulative by tier.
      if (tier >= static_cast<std::size_t>(DegradationTier::kTightSpeculation)) {
        escalate(sim_config.speculation);
      }
      if (tier >= static_cast<std::size_t>(DegradationTier::kLeanOverheads)) {
        sim_config.quarantine.audit_rate = 0.0;
      }
    }
    if (sim_config.deadline_risk.enabled && sim_config.deadline_risk.deadline == 0.0) {
      sim_config.deadline_risk.deadline = std::max(budget, 1.0);
    }

    const sim::RunResult run = sim::simulate_loop(
        apps.at(app_index), choice.group.processor_type, choice.group.processors, runtime,
        config.technique, sim_config, seeds.child(1000 + app_index));
    result.speculation_total.accumulate(run.speculation);
    outcome.completion_time = now + run.makespan;
    outcome.met_deadline = outcome.completion_time <= deadline_of(app_index);
    busy_processor_time += static_cast<double>(choice.group.processors) * run.makespan;
    ++running;
    engine.schedule_at(outcome.completion_time,
                       [&complete, group = choice.group] { complete(group); });
    if (admission_active) {
      service_ewma = service_seen ? 0.3 * run.makespan + 0.7 * service_ewma : run.makespan;
      service_seen = true;
    }
    return true;
  };

  complete = [&](ra::GroupAssignment group) {
    free_processors[group.processor_type] += group.processors;
    --running;
    result.horizon = engine.now();  // completions dispatch in time order
    shed_stale();
    while (!waiting.empty() && try_allocate(waiting.front())) waiting.pop_front();
  };

  // Admission decision for one arrival under an active (non-accept-all)
  // policy. Mutates queue/stats; the accept-all path never calls this.
  auto admit_arrival = [&](std::size_t app_index) {
    // Sustained-overload ladder: one EWMA update and at most one tier step
    // per arrival. The instant signal combines queue occupancy with the
    // rejection/shed pressure accumulated since the previous arrival.
    if (admission.ladder) {
      const double occupancy =
          std::min(1.0, static_cast<double>(waiting.size()) /
                            static_cast<double>(admission.queue_capacity));
      const double instant = std::min(1.0, occupancy + (stress_events > 0 ? 1.0 : 0.0));
      overload_ewma =
          admission.ladder_alpha * instant + (1.0 - admission.ladder_alpha) * overload_ewma;
      stress_events = 0;
      if (overload_ewma > admission.overload_threshold && tier < kMaxTier) {
        step_ladder_to(tier + 1);
      } else if (overload_ewma < admission.recover_threshold && tier > 0) {
        step_ladder_to(tier - 1);
      }
    }

    if (tier >= static_cast<std::size_t>(DegradationTier::kReject)) {
      reject_arrival(app_index, kRejectLadder);
      return;
    }

    const double slack = result.outcomes[app_index].deadline_slack;
    const AdmissionEstimate estimate = make_estimate(
        laws, app_index, full_capacity, slack, config.rule, admission.shed_floor);
    shed_budget[app_index] = estimate.shed_budget;

    if (admission.policy == AdmissionPolicy::kRho2Aware) {
      // Backlog-discounted best achievable success probability: the idle-
      // platform completion law, evaluated against the slack that remains
      // after an estimated queue wait (realized-service EWMA x backlog,
      // spread over the groups currently running).
      const double parallel_groups = static_cast<double>(std::max<std::size_t>(1, running));
      const double wait_estimate =
          service_seen
              ? service_ewma * static_cast<double>(waiting.size()) / parallel_groups
              : 0.0;
      const double discounted_budget = slack - wait_estimate;
      const double probability =
          discounted_budget > 0.0
              ? laws.completion_pmf(app_index, estimate.group).cdf(discounted_budget)
              : 0.0;
      if (probability < admission.admit_floor) {
        reject_arrival(app_index, kRejectAdmitFloor);
        return;
      }
      // Marginal rho-impact on already-admitted work: if adding one more
      // expected service time to the backlog would push the most
      // slack-starved queued application under its shed floor (when it is
      // not already), admitting only converts this rejection into a later
      // shed of committed work — refuse instead.
      if (service_seen && admission.shed_floor > 0.0 && !waiting.empty()) {
        std::size_t starved = waiting.front();
        for (const std::size_t queued_index : waiting) {
          if (deadline_of(queued_index) < deadline_of(starved)) starved = queued_index;
        }
        const double budget_without = deadline_of(starved) - engine.now() - wait_estimate;
        const double budget_with = budget_without - service_ewma;
        if (budget_without >= shed_budget[starved] && budget_with < shed_budget[starved]) {
          reject_arrival(app_index, kRejectMarginal);
          return;
        }
      }
    }

    if (waiting.empty() && try_allocate(app_index)) return;  // admitted now

    if (waiting.size() >= admission.queue_capacity) {
      reject_arrival(app_index, kRejectQueueFull);
      return;
    }
    // Enqueue per the configured order. EDF inserts before the first
    // queued application with a strictly later absolute deadline, so ties
    // (and the all-equal-slack case) preserve arrival order.
    ++stats.queued;
    if (count_metrics) metrics.add("cdsf.dynamic.queued");
    if (admission.queue_order == QueueOrder::kEdf) {
      auto position = waiting.begin();
      while (position != waiting.end() && deadline_of(*position) <= deadline_of(app_index)) {
        ++position;
      }
      waiting.insert(position, app_index);
    } else {
      waiting.push_back(app_index);
    }
    stats.peak_queue_depth = std::max<std::uint64_t>(stats.peak_queue_depth, waiting.size());
  };

  auto arrive = [&](std::size_t app_index) {
    ++stats.arrivals;
    if (admission_active) {
      shed_stale();
      admit_arrival(app_index);
    } else if (!waiting.empty() || !try_allocate(app_index)) {
      waiting.push_back(app_index);  // preserve FIFO order
    }
  };
  // Every arrival is scheduled before any completion, so at equal times an
  // arrival runs first (the engine breaks ties in scheduling order).
  for (std::size_t i = 0; i < config.applications; ++i) {
    engine.schedule_at(result.outcomes[i].arrival_time, [&arrive, i] { arrive(i); });
  }
  engine.run();

  std::size_t hits = 0;
  std::size_t admitted_hits = 0;
  double delay = 0.0;
  for (const DynamicOutcome& outcome : result.outcomes) {
    if (outcome.met_deadline) ++hits;
    if (outcome.disposition == DynamicOutcome::Disposition::kAdmitted) {
      if (outcome.met_deadline) ++admitted_hits;
      delay += outcome.start_time - outcome.arrival_time;
    }
  }
  result.deadline_hit_rate =
      static_cast<double>(hits) / static_cast<double>(config.applications);
  result.mean_queueing_delay =
      stats.admitted > 0 ? delay / static_cast<double>(stats.admitted) : 0.0;
  result.admitted_hit_rate =
      stats.admitted > 0
          ? static_cast<double>(admitted_hits) / static_cast<double>(stats.admitted)
          : 0.0;
  result.utilization =
      result.horizon > 0.0
          ? busy_processor_time /
                (static_cast<double>(platform.total_processors()) * result.horizon)
          : 0.0;

  if (flight.enabled()) {
    // Keep the merged events when anything noteworthy happened (tests and
    // postmortems read them); otherwise the cheap summary suffices.
    const bool eventful = stats.shed > 0 || stats.rejected > 0 || stats.ladder_steps > 0;
    result.flight = eventful ? flight.finish() : flight.finish_summary();
    if (stats.shed > 0) {
      obs::FlightAnomaly anomaly;
      anomaly.kind = "overload_shed";
      anomaly.detail = std::to_string(stats.shed) + " of " + std::to_string(stats.arrivals) +
                       " arrivals shed from the waiting queue (max tier " +
                       degradation_tier_name(static_cast<DegradationTier>(
                           std::min<std::uint64_t>(stats.max_tier, kMaxTier))) +
                       ")";
      anomaly.time = result.horizon;
      obs::FlightSink::global().maybe_dump(result.flight, anomaly);
    }
  }
  return result;
}

}  // namespace cdsf::core
