#include "cdsf/admission.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "cdsf/dynamic_manager.hpp"
#include "sysmodel/cases.hpp"
#include "util/rng.hpp"

namespace cdsf::core {

const char* admission_policy_name(AdmissionPolicy policy) {
  return util::name_of(kAdmissionPolicyNames, policy);
}

AdmissionPolicy admission_policy_from_name(const std::string& name) {
  if (const auto policy = util::value_named(kAdmissionPolicyNames, name)) return *policy;
  throw std::invalid_argument("admission policy must be one of " +
                              util::joined_names(kAdmissionPolicyNames) + ", got '" + name +
                              "'");
}

const char* queue_order_name(QueueOrder order) { return util::name_of(kQueueOrderNames, order); }

const char* degradation_tier_name(DegradationTier tier) {
  switch (tier) {
    case DegradationTier::kNormal: return "normal";
    case DegradationTier::kTightSpeculation: return "tight_speculation";
    case DegradationTier::kLeanOverheads: return "lean_overheads";
    case DegradationTier::kCoarseAllocation: return "coarse_allocation";
    case DegradationTier::kReject: return "reject";
  }
  return "unknown";
}

void validate_admission(const AdmissionConfig& config) {
  const bool active = config.active();
  if (!active) {
    // Accept-all must really be accept-all: knobs that silently could not
    // take effect are contradictions, not defaults.
    if (config.queue_capacity != 0) {
      throw std::invalid_argument(
          "admission: queue_capacity requires a bounded policy (accept-all queues are "
          "unbounded)");
    }
    if (config.admit_floor > 0.0) {
      throw std::invalid_argument(
          "admission: admit_floor requires policy rho2 (accept-all never rejects)");
    }
    if (config.shed_floor > 0.0) {
      throw std::invalid_argument(
          "admission: shed_floor requires a bounded policy (accept-all never sheds)");
    }
    if (config.ladder) {
      throw std::invalid_argument(
          "admission: the degradation ladder requires a bounded policy (accept-all has "
          "no overload signal)");
    }
    if (config.queue_order != QueueOrder::kFifo) {
      throw std::invalid_argument(
          "admission: queue order EDF requires a bounded policy (the accept-all queue "
          "is FIFO)");
    }
    return;
  }
  if (config.queue_capacity == 0) {
    throw std::invalid_argument(
        "admission: a bounded policy requires queue_capacity >= 1");
  }
  if (config.admit_floor > 0.0 && config.policy != AdmissionPolicy::kRho2Aware) {
    throw std::invalid_argument(
        "admission: admit_floor requires policy rho2 (bounded has no admission test)");
  }
  if (config.admit_floor < 0.0 || config.admit_floor > 1.0) {
    throw std::invalid_argument("admission: admit_floor must be in [0, 1]");
  }
  if (config.shed_floor < 0.0 || config.shed_floor > 1.0) {
    throw std::invalid_argument("admission: shed_floor must be in [0, 1]");
  }
  if (!(config.ladder_alpha > 0.0 && config.ladder_alpha <= 1.0)) {
    throw std::invalid_argument("admission: ladder_alpha must be in (0, 1]");
  }
  if (!(config.overload_threshold > 0.0 && config.overload_threshold <= 1.0)) {
    throw std::invalid_argument("admission: overload_threshold must be in (0, 1]");
  }
  if (!(config.recover_threshold >= 0.0 &&
        config.recover_threshold < config.overload_threshold)) {
    throw std::invalid_argument(
        "admission: recover_threshold must be in [0, overload_threshold) — the "
        "hysteresis band must not be inverted");
  }
}

// -- arrival-storm chaos axis -------------------------------------------

ArrivalStormReport run_arrival_storm_campaign(const ArrivalStormConfig& config) {
  if (config.schedules == 0) {
    throw std::invalid_argument("run_arrival_storm_campaign: schedules must be >= 1");
  }
  const sysmodel::Platform platform = sysmodel::paper_platform();
  const sysmodel::AvailabilitySpec reference = sysmodel::paper_case(1);
  const util::SeedSequence seeds(config.seed);

  ArrivalStormReport report;
  for (std::size_t schedule = 0; schedule < config.schedules; ++schedule) {
    util::RngStream draw = seeds.stream(schedule);
    const std::uint64_t run_seed = seeds.child(100000 + schedule);

    DynamicConfig dynamic;
    dynamic.applications = config.applications;
    // Offered load well past capacity: interarrivals a small fraction of a
    // typical execution makespan so the queue (or the admission layer) is
    // guaranteed to see pressure.
    dynamic.mean_interarrival = draw.uniform(20.0, 120.0);
    dynamic.deadline_slack = draw.uniform(600.0, 2500.0);
    dynamic.deadline_slack_spread = draw.uniform01() < 0.5 ? 0.3 : 0.0;
    dynamic.application_spec.processor_types = platform.type_count();
    dynamic.application_spec.min_total_iterations = 400;
    dynamic.application_spec.max_total_iterations = 1200;
    dynamic.application_spec.min_mean_time = 1000.0;
    dynamic.application_spec.max_mean_time = 3000.0;
    const int runtime_case = 1 + static_cast<int>(draw.uniform_int(0, 3));
    const sysmodel::AvailabilitySpec runtime = sysmodel::paper_case(runtime_case);
    dynamic.remap_on_rho2 = draw.uniform01() < 0.5;
    dynamic.rho2 = 0.05;

    // Round-robin over the three admission arms.
    switch (schedule % 3) {
      case 0:
        ++report.schedules_accept_all;
        break;
      case 1:
        dynamic.admission.policy = AdmissionPolicy::kBoundedQueue;
        dynamic.admission.queue_capacity =
            static_cast<std::size_t>(draw.uniform_int(2, 6));
        dynamic.admission.shed_floor = draw.uniform01() < 0.5 ? 0.10 : 0.0;
        ++report.schedules_bounded;
        break;
      default:
        dynamic.admission.policy = AdmissionPolicy::kRho2Aware;
        dynamic.admission.queue_capacity =
            static_cast<std::size_t>(draw.uniform_int(2, 6));
        dynamic.admission.queue_order = QueueOrder::kEdf;
        dynamic.admission.admit_floor = 0.2;
        dynamic.admission.shed_floor = 0.1;
        dynamic.admission.ladder = true;
        dynamic.admission.ladder_alpha = 0.4;
        dynamic.admission.overload_threshold = 0.7;
        dynamic.admission.recover_threshold = 0.3;
        ++report.schedules_rho2;
        break;
    }

    const DynamicRunResult result =
        run_dynamic_manager(platform, reference, runtime, dynamic, run_seed);
    const DynamicRunResult repeat =
        run_dynamic_manager(platform, reference, runtime, dynamic, run_seed);
    ++report.schedules_run;
    report.totals.accumulate(result.admission);

    auto violate = [&](const std::string& invariant, const std::string& detail) {
      report.violations.push_back(ArrivalStormViolation{
          schedule, run_seed, admission_policy_name(dynamic.admission.policy), invariant,
          detail});
    };

    const AdmissionStats& stats = result.admission;
    if (!stats.identity_holds() || stats.arrivals != config.applications) {
      std::ostringstream detail;
      detail << "arrivals=" << stats.arrivals << " admitted=" << stats.admitted
             << " rejected=" << stats.rejected << " shed=" << stats.shed;
      violate("admission_identity", detail.str());
    }
    if (!dynamic.admission.active() && (stats.rejected != 0 || stats.shed != 0)) {
      violate("accept_all_rejects", "accept-all run rejected or shed work");
    }
    if (dynamic.admission.active() &&
        stats.peak_queue_depth > dynamic.admission.queue_capacity) {
      std::ostringstream detail;
      detail << "peak depth " << stats.peak_queue_depth << " > capacity "
             << dynamic.admission.queue_capacity;
      violate("queue_bound", detail.str());
    }

    std::uint64_t admitted_seen = 0, rejected_seen = 0, shed_seen = 0;
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const DynamicOutcome& outcome = result.outcomes[i];
      std::ostringstream where;
      where << "application " << i;
      switch (outcome.disposition) {
        case DynamicOutcome::Disposition::kAdmitted:
          ++admitted_seen;
          // No admitted job stranded: every admitted application ran to a
          // completion at or after its (post-arrival) start.
          if (!(outcome.completion_time > 0.0 &&
                outcome.completion_time >= outcome.start_time &&
                outcome.start_time >= outcome.arrival_time)) {
            violate("admitted_stranded", where.str() + " admitted but never completed");
          }
          break;
        case DynamicOutcome::Disposition::kRejected:
          ++rejected_seen;
          if (outcome.completion_time != 0.0 || outcome.start_time != 0.0 ||
              outcome.met_deadline) {
            violate("rejected_ran", where.str() + " rejected but carries execution state");
          }
          break;
        case DynamicOutcome::Disposition::kShed:
          ++shed_seen;
          if (outcome.completion_time != 0.0 || outcome.start_time != 0.0 ||
              outcome.met_deadline) {
            violate("shed_ran", where.str() + " shed but carries execution state");
          }
          break;
      }
    }
    if (admitted_seen != stats.admitted || rejected_seen != stats.rejected ||
        shed_seen != stats.shed) {
      violate("disposition_counts",
              "per-outcome dispositions disagree with AdmissionStats");
    }

    if (result != repeat) {
      violate("repeat_determinism", "re-run with the same seed produced a different result");
    }
  }
  return report;
}

}  // namespace cdsf::core
