// Overload robustness: admission policies (accept-all / bounded / rho2),
// bounded queues with deadline-aware shedding, the graceful-degradation
// ladder, the closed admission identity, the arrival-storm campaign, and
// the byte-identity guarantees (accept-all default inert; active admission
// deterministic across repeated seeds and any thread count).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdsf/admission.hpp"
#include "cdsf/dynamic_manager.hpp"
#include "obs/report.hpp"
#include "sysmodel/cases.hpp"
#include "util/parallel.hpp"

namespace cdsf::core {
namespace {

/// Offered load well past capacity: arrivals every 100 time units against
/// executions that take thousands.
DynamicConfig overload_config() {
  DynamicConfig config;
  config.applications = 20;
  config.mean_interarrival = 100.0;
  config.deadline_slack = 4000.0;
  config.deadline_slack_spread = 0.25;  // heterogeneous slack: EDF != FIFO
  config.application_spec.processor_types = 2;
  config.application_spec.min_total_iterations = 800;
  config.application_spec.max_total_iterations = 3000;
  config.application_spec.min_mean_time = 2000.0;
  config.application_spec.max_mean_time = 8000.0;
  return config;
}

AdmissionConfig rho2_ladder() {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kRho2Aware;
  admission.queue_capacity = 4;
  admission.queue_order = QueueOrder::kEdf;
  admission.admit_floor = 0.2;
  admission.shed_floor = 0.1;
  admission.ladder = true;
  admission.ladder_alpha = 0.4;
  admission.overload_threshold = 0.7;
  admission.recover_threshold = 0.3;
  return admission;
}

DynamicRunResult run(const DynamicConfig& config, std::uint64_t seed = 7) {
  const sysmodel::Platform platform = sysmodel::paper_platform();
  const sysmodel::AvailabilitySpec reference = sysmodel::paper_case(1);
  return run_dynamic_manager(platform, reference, reference, config, seed);
}

/// Disposition counts must reproduce the stats counters exactly, and no
/// rejected/shed application may carry any execution state.
void expect_dispositions_consistent(const DynamicRunResult& result) {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  for (const DynamicOutcome& outcome : result.outcomes) {
    switch (outcome.disposition) {
      case DynamicOutcome::Disposition::kAdmitted:
        ++admitted;
        EXPECT_GE(outcome.start_time, outcome.arrival_time);
        EXPECT_GE(outcome.completion_time, outcome.start_time);
        EXPECT_GT(outcome.group.processors, 0u);
        break;
      case DynamicOutcome::Disposition::kRejected:
        ++rejected;
        break;
      case DynamicOutcome::Disposition::kShed:
        ++shed;
        break;
    }
    if (outcome.disposition != DynamicOutcome::Disposition::kAdmitted) {
      EXPECT_EQ(outcome.start_time, 0.0);
      EXPECT_EQ(outcome.completion_time, 0.0);
      EXPECT_EQ(outcome.group.processors, 0u);
      EXPECT_EQ(outcome.probability, 0.0);
      EXPECT_FALSE(outcome.met_deadline);
    }
  }
  EXPECT_EQ(admitted, result.admission.admitted);
  EXPECT_EQ(rejected, result.admission.rejected);
  EXPECT_EQ(shed, result.admission.shed);
  EXPECT_TRUE(result.admission.identity_holds());
}

// ------------------------------------------------------ names + validation --

TEST(Admission, PolicyAndTierNamesRoundTrip) {
  for (AdmissionPolicy policy : {AdmissionPolicy::kAcceptAll, AdmissionPolicy::kBoundedQueue,
                                 AdmissionPolicy::kRho2Aware}) {
    EXPECT_EQ(admission_policy_from_name(admission_policy_name(policy)), policy);
  }
  EXPECT_THROW((void)admission_policy_from_name("open-door"), std::invalid_argument);
  EXPECT_STREQ(degradation_tier_name(DegradationTier::kNormal), "normal");
  EXPECT_STREQ(degradation_tier_name(DegradationTier::kReject), "reject");
}

TEST(Admission, ValidationRejectsContradictoryKnobs) {
  // Accept-all with any bounded-only machinery armed: contradiction, not
  // silently ignored.
  for (auto mutate : std::vector<void (*)(AdmissionConfig&)>{
           [](AdmissionConfig& a) { a.queue_capacity = 4; },
           [](AdmissionConfig& a) { a.queue_order = QueueOrder::kEdf; },
           [](AdmissionConfig& a) { a.admit_floor = 0.5; },
           [](AdmissionConfig& a) { a.shed_floor = 0.5; },
           [](AdmissionConfig& a) { a.ladder = true; }}) {
    AdmissionConfig admission;  // accept-all
    mutate(admission);
    EXPECT_THROW(validate_admission(admission), std::invalid_argument);
  }
  // Bounded policies without a queue bound.
  {
    AdmissionConfig admission;
    admission.policy = AdmissionPolicy::kBoundedQueue;
    EXPECT_THROW(validate_admission(admission), std::invalid_argument);
  }
  // admit_floor belongs to the rho2 test only.
  {
    AdmissionConfig admission;
    admission.policy = AdmissionPolicy::kBoundedQueue;
    admission.queue_capacity = 4;
    admission.admit_floor = 0.5;
    EXPECT_THROW(validate_admission(admission), std::invalid_argument);
  }
  // Out-of-range floors, alpha, and an inverted hysteresis band.
  for (auto mutate : std::vector<void (*)(AdmissionConfig&)>{
           [](AdmissionConfig& a) { a.admit_floor = 1.5; },
           [](AdmissionConfig& a) { a.shed_floor = -0.1; },
           [](AdmissionConfig& a) { a.ladder_alpha = 0.0; },
           [](AdmissionConfig& a) { a.ladder_alpha = 1.5; },
           [](AdmissionConfig& a) { a.overload_threshold = 0.0; },
           [](AdmissionConfig& a) { a.recover_threshold = a.overload_threshold; }}) {
    AdmissionConfig admission = rho2_ladder();
    mutate(admission);
    EXPECT_THROW(validate_admission(admission), std::invalid_argument);
  }
  EXPECT_NO_THROW(validate_admission(rho2_ladder()));
  EXPECT_NO_THROW(validate_admission(AdmissionConfig{}));
}

TEST(Admission, ManagerRejectsContradictoryKnobsUpFront) {
  DynamicConfig config = overload_config();
  config.admission.shed_floor = 0.5;  // shedding under accept-all
  EXPECT_THROW((void)run(config), std::invalid_argument);
}

// ----------------------------------------------------- accept-all default --

TEST(Admission, AcceptAllDefaultAdmitsEverythingAndStaysInert) {
  DynamicConfig config = overload_config();
  config.deadline_slack_spread = 0.0;  // the historical configuration
  const DynamicRunResult result = run(config);
  EXPECT_EQ(result.admission.arrivals, config.applications);
  EXPECT_EQ(result.admission.admitted, config.applications);
  EXPECT_EQ(result.admission.rejected, 0u);
  EXPECT_EQ(result.admission.shed, 0u);
  EXPECT_EQ(result.admission.ladder_steps, 0u);
  EXPECT_TRUE(result.admission.identity_holds());
  // Admitted == everyone, so the admitted service level IS the overall one.
  EXPECT_EQ(result.admitted_hit_rate, result.deadline_hit_rate);
  for (const DynamicOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.disposition, DynamicOutcome::Disposition::kAdmitted);
    EXPECT_EQ(outcome.deadline_slack, config.deadline_slack);
  }
  // No admission machinery: the manager-level flight recorder stays off
  // and the report carries no admission block or dispositions.
  EXPECT_FALSE(result.flight.enabled);
  const std::string report =
      obs::make_dynamic_report(result, config, sysmodel::paper_platform()).dump(1);
  EXPECT_EQ(report.find("\"admission\""), std::string::npos);
  EXPECT_EQ(report.find("\"disposition\""), std::string::npos);
}

// ------------------------------------------- bounded queues + shedding --

TEST(Admission, BoundedQueueRejectsWhenFullAndRespectsCapacity) {
  DynamicConfig config = overload_config();
  config.admission.policy = AdmissionPolicy::kBoundedQueue;
  config.admission.queue_capacity = 2;
  const DynamicRunResult result = run(config);
  EXPECT_GT(result.admission.rejected, 0u);
  EXPECT_LE(result.admission.peak_queue_depth, 2u);
  expect_dispositions_consistent(result);
}

TEST(Admission, ShedFloorEvictsDoomedQueuedWork) {
  DynamicConfig config = overload_config();
  config.applications = 30;
  config.mean_interarrival = 50.0;
  config.admission.policy = AdmissionPolicy::kBoundedQueue;
  config.admission.queue_capacity = 8;
  config.admission.shed_floor = 0.9;
  const DynamicRunResult result = run(config);
  EXPECT_GT(result.admission.shed, 0u);
  expect_dispositions_consistent(result);
  // Every shed landed in the flight record as a kJobShed master event.
  ASSERT_TRUE(result.flight.enabled);
  std::uint64_t shed_events = 0;
  for (const obs::FlightEvent& event : result.flight.events) {
    if (event.kind == obs::FlightEventKind::kJobShed) ++shed_events;
  }
  EXPECT_EQ(shed_events, result.admission.shed);
}

// ------------------------------------------------ rho2 test + the ladder --

TEST(Admission, Rho2FloorRejectsHopelessArrivalsAtArrival) {
  DynamicConfig config = overload_config();
  config.admission = rho2_ladder();
  config.admission.ladder = false;
  config.admission.admit_floor = 0.95;  // nearly nothing clears this under load
  const DynamicRunResult result = run(config);
  EXPECT_GT(result.admission.rejected, 0u);
  expect_dispositions_consistent(result);
  ASSERT_TRUE(result.flight.enabled);
  std::uint64_t rejections = 0;
  for (const obs::FlightEvent& event : result.flight.events) {
    if (event.kind == obs::FlightEventKind::kAdmissionRejected) ++rejections;
  }
  EXPECT_EQ(rejections, result.admission.rejected);
}

TEST(Admission, LadderEscalatesUnderSustainedOverload) {
  DynamicConfig config = overload_config();
  config.applications = 30;
  config.mean_interarrival = 50.0;
  config.admission = rho2_ladder();
  const DynamicRunResult result = run(config);
  EXPECT_GT(result.admission.ladder_steps, 0u);
  EXPECT_GE(result.admission.max_tier, 1u);
  expect_dispositions_consistent(result);
  ASSERT_TRUE(result.flight.enabled);
  std::uint64_t transitions = 0;
  for (const obs::FlightEvent& event : result.flight.events) {
    if (event.kind == obs::FlightEventKind::kOverloadTierChanged) ++transitions;
  }
  EXPECT_EQ(transitions, result.admission.ladder_steps);
}

TEST(Admission, UnderloadAdmitsEverythingUnderEveryPolicy) {
  // With arrivals far apart the platform never saturates: every policy
  // behaves like accept-all (no rejection, no shed, ladder never leaves
  // normal).
  for (int arm = 0; arm < 2; ++arm) {
    DynamicConfig config = overload_config();
    config.applications = 6;
    config.mean_interarrival = 20000.0;
    config.deadline_slack = 60000.0;
    config.admission = arm == 0 ? rho2_ladder() : AdmissionConfig{};
    if (arm == 1) {
      config.admission.policy = AdmissionPolicy::kBoundedQueue;
      config.admission.queue_capacity = 4;
    }
    const DynamicRunResult result = run(config);
    EXPECT_EQ(result.admission.admitted, config.applications) << "arm " << arm;
    EXPECT_EQ(result.admission.rejected, 0u) << "arm " << arm;
    EXPECT_EQ(result.admission.shed, 0u) << "arm " << arm;
    EXPECT_EQ(result.admission.max_tier, 0u) << "arm " << arm;
  }
}

// ------------------------------------------------------------ determinism --

TEST(Admission, ActiveAdmissionIsByteIdenticalAcrossRepeatsAndThreadCounts) {
  DynamicConfig config = overload_config();
  config.admission = rho2_ladder();
  const sysmodel::Platform platform = sysmodel::paper_platform();

  const DynamicRunResult baseline = run(config);
  ASSERT_GT(baseline.admission.rejected + baseline.admission.shed, 0u);
  const std::string baseline_report =
      obs::make_dynamic_report(baseline, config, platform).dump(1);

  // Repeated seeds, and the manager invoked concurrently from worker
  // threads (1, 2, 4): every run must be bit-identical to the serial
  // baseline — decisions are pure functions of the arrival stream.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<DynamicRunResult> results(4);
    util::parallel_for_index(results.size(), threads,
                             [&](std::size_t i) { results[i] = run(config); });
    for (std::size_t i = 0; i < results.size(); ++i) {
      // Whole results, flight record and speculation totals included: the
      // determinism guarantee is ==, not near.
      EXPECT_TRUE(results[i] == baseline) << "threads " << threads << ", run " << i;
      EXPECT_EQ(obs::make_dynamic_report(results[i], config, platform).dump(1),
                baseline_report)
          << "threads " << threads << ", run " << i;
    }
  }
}

// --------------------------------------------------------- report surface --

TEST(Admission, DynamicReportCarriesAdmissionBlockAndDispositions) {
  DynamicConfig config = overload_config();
  config.admission = rho2_ladder();
  const DynamicRunResult result = run(config);
  const obs::Json report =
      obs::make_dynamic_report(result, config, sysmodel::paper_platform());
  const obs::Json& admission = report.at("admission");
  EXPECT_EQ(admission.at("policy").as_string(), "rho2");
  EXPECT_EQ(admission.at("queue_order").as_string(), "edf");
  EXPECT_EQ(static_cast<std::uint64_t>(admission.at("arrivals").as_int()),
            result.admission.arrivals);
  EXPECT_EQ(static_cast<std::uint64_t>(admission.at("rejected").as_int()),
            result.admission.rejected);
  EXPECT_EQ(static_cast<std::uint64_t>(admission.at("shed").as_int()),
            result.admission.shed);
  EXPECT_TRUE(admission.at("identity_holds").as_bool());
  bool saw_non_admitted = false;
  for (const obs::Json& outcome : report.at("applications").items()) {
    const std::string& disposition = outcome.at("disposition").as_string();
    EXPECT_TRUE(disposition == "admitted" || disposition == "rejected" ||
                disposition == "shed");
    if (disposition != "admitted") saw_non_admitted = true;
  }
  EXPECT_TRUE(saw_non_admitted);
}

// ------------------------------------------------- arrival-storm campaign --

TEST(Admission, ArrivalStormCampaignPassesAndClosesTheIdentity) {
  ArrivalStormConfig config;
  config.schedules = 9;
  config.seed = 2026;
  config.applications = 8;
  const ArrivalStormReport report = run_arrival_storm_campaign(config);
  for (const ArrivalStormViolation& violation : report.violations) {
    ADD_FAILURE() << "schedule " << violation.schedule << " seed " << violation.seed << " ["
                  << violation.policy << "] " << violation.invariant << ": "
                  << violation.detail;
  }
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.schedules_run, config.schedules);
  EXPECT_EQ(report.schedules_accept_all + report.schedules_bounded + report.schedules_rho2,
            config.schedules);
  EXPECT_TRUE(report.totals.identity_holds());
  EXPECT_GT(report.totals.arrivals, 0u);
}

TEST(Admission, ArrivalStormCampaignRejectsZeroSchedules) {
  ArrivalStormConfig config;
  config.schedules = 0;
  EXPECT_THROW((void)run_arrival_storm_campaign(config), std::invalid_argument);
}

}  // namespace
}  // namespace cdsf::core
