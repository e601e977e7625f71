// Dynamic per-application resource allocation — the "dynamic [19]
// stochastic resource allocation heuristics" the paper names as a Stage I
// extension (Smith, Chong, Maciejewski & Siegel, ICPP 2009 lineage).
//
// Unlike the batch mode (every application of a batch mapped at once,
// cdsf/multi_batch.hpp), applications here arrive ONE AT A TIME and are
// allocated immediately from whatever processors are currently free,
// maximizing their own probability of meeting their arrival-relative
// deadline; finished applications release their group. Arrivals finding
// no satisfactory processors wait in a FIFO queue. Arrivals and
// completions are events on a sim::Engine, and every success probability
// reads a completion law from Stage I's ra::RobustnessEvaluator (one per
// run, over the planning spec).
//
// Overload robustness (cdsf/admission.hpp): DynamicConfig::admission
// selects an AdmissionPolicy — accept-all (the historical unbounded FIFO,
// byte-identical default), a bounded FIFO/EDF queue with deadline-aware
// shedding, or the rho_2-aware admission test — plus the graceful-
// degradation ladder for sustained overload. AdmissionStats on the result
// carry the closed identity arrivals == admitted + rejected + shed.
#pragma once

#include <cstdint>
#include <vector>

#include "cdsf/admission.hpp"
#include "cdsf/framework.hpp"
#include "obs/flight.hpp"
#include "workload/generator.hpp"

namespace cdsf::core {

/// Arrival process and per-application deadline policy.
struct DynamicConfig {
  std::size_t applications = 20;
  double mean_interarrival = 800.0;
  /// Deadline of each application = its arrival time + this slack.
  double deadline_slack = 8000.0;
  /// Per-application slack heterogeneity in [0, 1): each application's
  /// slack is drawn uniformly from deadline_slack * [1 - spread, 1 + spread]
  /// (its own RNG stream, created only when spread > 0, so the default
  /// leaves every historical stream untouched). Heterogeneous slack is what
  /// makes EDF queue order differ from FIFO.
  double deadline_slack_spread = 0.0;
  /// Shape of the generated applications (one draw per arrival).
  workload::BatchSpec application_spec;
  /// Stage II technique every application executes with.
  dls::TechniqueId technique = dls::TechniqueId::kAF;
  /// Simulation settings for the executions.
  sim::SimConfig sim;
  ra::CountRule rule = ra::CountRule::kPowerOfTwo;
  /// rho_2-triggered re-mapping: when true and the realized (runtime)
  /// weighted-availability decrease relative to `reference` exceeds
  /// `rho2`, every allocation decision scores candidate groups against the
  /// REALIZED availability instead of the stale reference — the dynamic
  /// manager's version of Framework::remap_on_availability.
  bool remap_on_rho2 = false;
  double rho2 = 0.0;
  /// Graceful degradation BEFORE the re-map cliff: when true, an
  /// application whose allocation-time success probability falls below
  /// `speculation_risk_floor` executes with speculative chunk re-execution
  /// enabled (sim.speculation forced on; if it is already on, the straggler
  /// quantile is tightened by Speculation::kEscalationFactor instead,
  /// floored at sim.speculation.min_quantile).
  bool escalate_speculation_on_risk = false;
  double speculation_risk_floor = 0.5;
  /// Overload robustness: admission policy, bounded queue, shedding, and
  /// the degradation ladder (cdsf/admission.hpp). The default accept-all
  /// policy reproduces the historical manager byte-for-byte.
  AdmissionConfig admission;
};

/// One application's journey through the manager.
struct DynamicOutcome {
  /// Where the application ended up: executed (admitted), refused at
  /// arrival, or evicted from the waiting queue by the shed floor.
  /// Rejected/shed applications never start: start_time, completion_time,
  /// group, and probability stay zero and met_deadline stays false.
  enum class Disposition : std::uint8_t { kAdmitted, kRejected, kShed };

  double arrival_time = 0.0;
  /// Slack actually applied to this application (== config.deadline_slack
  /// unless deadline_slack_spread drew a per-application value); absolute
  /// deadline = arrival_time + deadline_slack.
  double deadline_slack = 0.0;
  double start_time = 0.0;       // allocation time (>= arrival when queued)
  double completion_time = 0.0;
  ra::GroupAssignment group;     // what it got
  double probability = 0.0;      // Pr(meets remaining slack) at allocation
  bool met_deadline = false;
  Disposition disposition = Disposition::kAdmitted;

  friend bool operator==(const DynamicOutcome&, const DynamicOutcome&) = default;
};

/// Aggregates over one run.
struct DynamicRunResult {
  std::vector<DynamicOutcome> outcomes;
  double deadline_hit_rate = 0.0;
  double mean_queueing_delay = 0.0;
  /// Fraction of processor-time used: sum over apps of
  /// processors x (completion - start) / (total processors x horizon).
  double utilization = 0.0;
  double horizon = 0.0;  // completion of the last application
  /// rho_2 re-map observability: whether the realized decrease exceeded
  /// DynamicConfig::rho2 (always false when remap_on_rho2 is off), and the
  /// realized weighted-availability decrease itself (recorded regardless).
  bool remap_triggered = false;
  double realized_decrease = 0.0;
  /// Applications whose execution ran with escalated speculation (only
  /// populated when DynamicConfig::escalate_speculation_on_risk is set),
  /// and the speculation activity summed over every execution.
  std::size_t speculation_escalations = 0;
  sim::SpeculationStats speculation_total;
  /// Admission-control accounting (all zero under accept-all except
  /// arrivals/admitted, which close the identity trivially).
  AdmissionStats admission;
  /// Deadline-hit rate over admitted applications only — the service
  /// level an admission-controlled scheduler actually promises (equals
  /// deadline_hit_rate under accept-all; 0 when nothing was admitted).
  double admitted_hit_rate = 0.0;
  /// Manager-level flight recording: admission rejections, sheds, and
  /// ladder transitions on the master track. Only armed when the
  /// admission layer is active (enabled == false otherwise), so default
  /// runs carry no recording state. A run that shed work dumps a
  /// postmortem with anomaly kind "overload_shed" through the global
  /// obs::FlightSink.
  obs::FlightRecord flight;

  /// Bitwise equality of every field — the repeat-run determinism
  /// invariant compares whole results.
  friend bool operator==(const DynamicRunResult&, const DynamicRunResult&) = default;
};

/// Runs the dynamic manager. Applications are generated deterministically
/// from `seed`; every stochastic component fans out from it. Throws
/// std::invalid_argument on degenerate config, including an application
/// spec whose type count differs from the availability specs'.
[[nodiscard]] DynamicRunResult run_dynamic_manager(const sysmodel::Platform& platform,
                                                   const sysmodel::AvailabilitySpec& reference,
                                                   const sysmodel::AvailabilitySpec& runtime,
                                                   const DynamicConfig& config,
                                                   std::uint64_t seed);

}  // namespace cdsf::core
