#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cdsf/dynamic_manager.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "svc/journal.hpp"
#include "sysmodel/cases.hpp"
#include "test_support.hpp"

namespace cdsf::core {
namespace {

DynamicConfig small_config() {
  DynamicConfig config;
  config.applications = 12;
  config.mean_interarrival = 1000.0;
  config.deadline_slack = 8000.0;
  config.application_spec.processor_types = 2;
  config.application_spec.min_total_iterations = 500;
  config.application_spec.max_total_iterations = 2000;
  config.application_spec.min_mean_time = 1500.0;
  config.application_spec.max_mean_time = 6000.0;
  return config;
}

class DynamicManagerTest : public ::testing::Test {
 protected:
  DynamicManagerTest()
      : platform_(sysmodel::paper_platform()),
        reference_(sysmodel::paper_case(1)),
        degraded_(sysmodel::paper_case(4)) {}

  sysmodel::Platform platform_;
  sysmodel::AvailabilitySpec reference_;
  sysmodel::AvailabilitySpec degraded_;
};

TEST_F(DynamicManagerTest, EveryApplicationIsServedExactlyOnce) {
  const DynamicRunResult result =
      run_dynamic_manager(platform_, reference_, reference_, small_config(), 3);
  ASSERT_EQ(result.outcomes.size(), 12u);
  for (const DynamicOutcome& outcome : result.outcomes) {
    EXPECT_GE(outcome.start_time, outcome.arrival_time);
    EXPECT_GT(outcome.completion_time, outcome.start_time);
    EXPECT_GE(outcome.group.processors, 1u);
    EXPECT_GE(outcome.probability, 0.0);
    EXPECT_LE(outcome.probability, 1.0);
  }
}

TEST_F(DynamicManagerTest, CapacityNeverExceeded) {
  // Replay the outcome intervals and check the concurrent processor usage
  // per type at every start event.
  const DynamicRunResult result =
      run_dynamic_manager(platform_, reference_, reference_, small_config(), 7);
  for (const DynamicOutcome& probe : result.outcomes) {
    std::vector<std::size_t> used(platform_.type_count(), 0);
    for (const DynamicOutcome& other : result.outcomes) {
      if (other.start_time <= probe.start_time && other.completion_time > probe.start_time) {
        used[other.group.processor_type] += other.group.processors;
      }
    }
    for (std::size_t j = 0; j < platform_.type_count(); ++j) {
      EXPECT_LE(used[j], platform_.processors_of_type(j)) << "type " << j;
    }
  }
}

TEST_F(DynamicManagerTest, DeterministicGivenSeed) {
  const DynamicRunResult a =
      run_dynamic_manager(platform_, reference_, reference_, small_config(), 11);
  const DynamicRunResult b =
      run_dynamic_manager(platform_, reference_, reference_, small_config(), 11);
  EXPECT_TRUE(a == b);
}

TEST_F(DynamicManagerTest, SparseArrivalsStartImmediately) {
  DynamicConfig config = small_config();
  config.mean_interarrival = 100000.0;  // system always empty on arrival
  const DynamicRunResult result =
      run_dynamic_manager(platform_, reference_, reference_, config, 5);
  EXPECT_NEAR(result.mean_queueing_delay, 0.0, 1e-9);
  for (const DynamicOutcome& outcome : result.outcomes) {
    EXPECT_DOUBLE_EQ(outcome.start_time, outcome.arrival_time);
  }
}

TEST_F(DynamicManagerTest, SaturationBuildsQueueAndRaisesUtilization) {
  DynamicConfig sparse = small_config();
  sparse.mean_interarrival = 100000.0;
  DynamicConfig dense = small_config();
  dense.mean_interarrival = 50.0;
  const DynamicRunResult idle =
      run_dynamic_manager(platform_, reference_, reference_, sparse, 9);
  const DynamicRunResult congested =
      run_dynamic_manager(platform_, reference_, reference_, dense, 9);
  EXPECT_GT(congested.mean_queueing_delay, idle.mean_queueing_delay);
  EXPECT_GT(congested.utilization, idle.utilization);
}

TEST_F(DynamicManagerTest, DegradedRuntimeHurtsHitRate) {
  DynamicConfig config = small_config();
  config.deadline_slack = 5000.0;
  const double good =
      run_dynamic_manager(platform_, reference_, reference_, config, 13).deadline_hit_rate;
  const double bad =
      run_dynamic_manager(platform_, reference_, degraded_, config, 13).deadline_hit_rate;
  EXPECT_LE(bad, good);
}

TEST_F(DynamicManagerTest, Validation) {
  DynamicConfig config = small_config();
  config.applications = 0;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
  config = small_config();
  config.mean_interarrival = 0.0;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
  config = small_config();
  config.deadline_slack = 0.0;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
}

TEST_F(DynamicManagerTest, RejectsApplicationsWithAnotherTypeCount) {
  // Completion laws come from Stage I's evaluator, whose constructor
  // rejects applications with more or fewer types than the availability
  // spec.
  DynamicConfig config = small_config();
  config.application_spec.processor_types = 3;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
  config.application_spec.processor_types = 1;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
}

TEST_F(DynamicManagerTest, RejectsMpiOnlyGrayKnobs) {
  // Payload corruption needs the MPI executor's checksum framing; the
  // idealized loop would silently ignore it and misreport a hardened run.
  DynamicConfig config = small_config();
  config.sim.channel.corrupt_to_worker = 0.01;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
  config = small_config();
  config.sim.channel.corrupt_to_master = 0.01;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
  // Other channel faults are rejected too (pre-existing contract).
  config = small_config();
  config.sim.channel.drop_to_worker = 0.1;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
}

TEST_F(DynamicManagerTest, QuarantineKnobsAreHonoredNotRejected) {
  // simulate_loop implements the quarantine/audit machinery, so the
  // dynamic manager accepts it — and a disarmed config changes nothing.
  DynamicConfig config = small_config();
  config.sim.quarantine.enabled = true;
  config.sim.quarantine.audit_rate = 0.2;
  const DynamicRunResult result =
      run_dynamic_manager(platform_, reference_, reference_, config, 7);
  EXPECT_EQ(result.outcomes.size(), 12u);
}

// ---------------------------------------------- speculation escalation --

TEST_F(DynamicManagerTest, RiskFloorEscalatesSpeculationBeforeTheRemapCliff) {
  DynamicConfig config = small_config();
  config.escalate_speculation_on_risk = true;
  config.speculation_risk_floor = 1.0;  // every admission is "at risk"
  const DynamicRunResult result =
      run_dynamic_manager(platform_, reference_, degraded_, config, 17);
  ASSERT_EQ(result.outcomes.size(), 12u);
  // With the floor at 1.0 every allocation whose success probability is
  // below certainty runs speculatively.
  EXPECT_GE(result.speculation_escalations, 1u);
  // And the aggregate stats identity holds across the whole run.
  const sim::SpeculationStats& total = result.speculation_total;
  EXPECT_EQ(total.backups_launched,
            total.backups_won + total.backups_cancelled + total.backups_lost);
}

TEST_F(DynamicManagerTest, EscalationOffLeavesCountersZero) {
  const DynamicRunResult result =
      run_dynamic_manager(platform_, reference_, degraded_, small_config(), 17);
  EXPECT_EQ(result.speculation_escalations, 0u);
  EXPECT_EQ(result.speculation_total.backups_launched, 0u);
}

TEST_F(DynamicManagerTest, RiskFloorOutOfDomainIsRejected) {
  DynamicConfig config = small_config();
  config.escalate_speculation_on_risk = true;
  config.speculation_risk_floor = 0.0;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
  config.speculation_risk_floor = 1.5;
  EXPECT_THROW(run_dynamic_manager(platform_, reference_, reference_, config, 1),
               std::invalid_argument);
}

// ------------------------------------------------------- recorded digests --

/// One recorded configuration: its inputs and the FNV-1a digests of
/// make_dynamic_report(...).dump() and, when the manager armed one, of the
/// flight record's JSON (0 when it did not).
struct DigestCase {
  const char* name;
  DynamicConfig config;
  sysmodel::AvailabilitySpec reference;
  sysmodel::AvailabilitySpec runtime;
  std::uint64_t seed;
  std::uint64_t report_digest;
  std::uint64_t flight_digest;
};

/// Offered load well past capacity, with heterogeneous slack (EDF != FIFO).
DynamicConfig overload_config() {
  DynamicConfig config = small_config();
  config.applications = 20;
  config.mean_interarrival = 100.0;
  config.deadline_slack = 4000.0;
  config.deadline_slack_spread = 0.25;
  config.application_spec.min_total_iterations = 800;
  config.application_spec.max_total_iterations = 3000;
  config.application_spec.min_mean_time = 2000.0;
  config.application_spec.max_mean_time = 8000.0;
  return config;
}

std::vector<DigestCase> digest_cases() {
  const sysmodel::AvailabilitySpec case1 = sysmodel::paper_case(1);
  const sysmodel::AvailabilitySpec case4 = sysmodel::paper_case(4);
  std::vector<DigestCase> cases;

  DynamicConfig accept_all = small_config();
  accept_all.mean_interarrival = 300.0;  // a queue builds behind the arrivals
  cases.push_back({"accept_all", accept_all, case1, case1, 3, 0xb110f036edbc8afeULL, 0});

  DynamicConfig bounded = overload_config();
  bounded.deadline_slack = 3000.0;  // queued work decays under its shed floor
  bounded.deadline_slack_spread = 0.0;
  bounded.admission.policy = AdmissionPolicy::kBoundedQueue;
  bounded.admission.queue_capacity = 6;
  bounded.admission.shed_floor = 0.1;
  cases.push_back({"bounded_fifo_shed", bounded, case1, case1, 7,
                   0xf51fe705beb42760ULL, 0x605497c6891d45f0ULL});

  DynamicConfig rho2 = overload_config();
  rho2.admission.policy = AdmissionPolicy::kRho2Aware;
  rho2.admission.queue_capacity = 4;
  rho2.admission.queue_order = QueueOrder::kEdf;
  rho2.admission.admit_floor = 0.2;
  rho2.admission.shed_floor = 0.1;
  rho2.admission.ladder = true;
  rho2.admission.ladder_alpha = 0.4;
  rho2.admission.overload_threshold = 0.7;
  rho2.admission.recover_threshold = 0.3;
  cases.push_back({"rho2_ladder_edf", rho2, case1, case1, 7,
                   0xf56abec417ae0088ULL, 0x6729dac7905daab1ULL});

  DynamicConfig remap = small_config();
  remap.remap_on_rho2 = true;
  remap.rho2 = 0.05;
  cases.push_back({"remap_case4", remap, case1, case4, 17, 0xbf00abf706e7820fULL, 0});

  DynamicConfig escalate = small_config();
  escalate.escalate_speculation_on_risk = true;
  escalate.speculation_risk_floor = 0.95;
  cases.push_back({"escalate_speculation", escalate, case1, case4, 17,
                   0xac63c68c16eb80a9ULL, 0});

  // 64 levels x 64 discretization pulses cross the 512-pulse budget, so
  // every completion law here is compacted.
  const sysmodel::AvailabilitySpec leveled = test::leveled_availability(2, 64);
  DynamicConfig compacted = small_config();
  compacted.mean_interarrival = 200.0;
  cases.push_back({"leveled_64", compacted, leveled, leveled, 5, 0x1307a3e602f528cbULL, 0});
  return cases;
}

// Byte-identity oracle for the manager: accept-all, bounded FIFO with
// shedding, rho_2 admission with the ladder and EDF, the rho_2 re-map,
// speculation escalation, and compacted completion laws. A refactor of the
// manager must keep every digest; a deliberate behavior change re-records
// them and says why.
TEST_F(DynamicManagerTest, OutputsMatchRecordedDigests) {
  for (const DigestCase& c : digest_cases()) {
    const DynamicRunResult result =
        run_dynamic_manager(platform_, c.reference, c.runtime, c.config, c.seed);
    EXPECT_EQ(svc::fnv1a64(obs::make_dynamic_report(result, c.config, platform_).dump()),
              c.report_digest)
        << c.name;
    // The flight record is armed only under active admission, and
    // CDSF_FLIGHT=off disarms it everywhere.
    if (result.flight.enabled) {
      EXPECT_EQ(svc::fnv1a64(obs::flight_record_to_json(result.flight, {}).dump()),
                c.flight_digest)
          << c.name;
    }
  }
}

// ------------------------------------------------------- PMF risk metrics --

TEST(RiskMetrics, CvarKnownValues) {
  const pmf::Pmf p = pmf::Pmf::from_pulses({{1.0, 0.5}, {3.0, 0.25}, {11.0, 0.25}});
  EXPECT_NEAR(p.conditional_value_at_risk(0.0), p.expectation(), 1e-12);
  EXPECT_NEAR(p.conditional_value_at_risk(0.75), 11.0, 1e-12);   // worst quarter
  EXPECT_NEAR(p.conditional_value_at_risk(0.5), 7.0, 1e-12);     // (3 + 11) / 2
  // Straddling boundary: worst 40% = 11 (25%) + 3 (15%) -> (11*.25+3*.15)/.4
  EXPECT_NEAR(p.conditional_value_at_risk(0.6), (11.0 * 0.25 + 3.0 * 0.15) / 0.4, 1e-12);
  EXPECT_THROW(p.conditional_value_at_risk(1.0), std::invalid_argument);
  EXPECT_THROW(p.conditional_value_at_risk(-0.1), std::invalid_argument);
}

TEST(RiskMetrics, CvarMonotoneInAlpha) {
  const pmf::Pmf p = pmf::Pmf::uniform_over({1, 2, 3, 4, 5, 6, 7, 8});
  double prev = p.expectation();
  for (double alpha = 0.1; alpha < 0.95; alpha += 0.1) {
    const double cvar = p.conditional_value_at_risk(alpha);
    EXPECT_GE(cvar, prev - 1e-12);
    prev = cvar;
  }
}

TEST(RiskMetrics, ExpectedTardiness) {
  const pmf::Pmf p = pmf::Pmf::from_pulses({{100.0, 0.5}, {300.0, 0.5}});
  EXPECT_DOUBLE_EQ(p.expected_tardiness(300.0), 0.0);
  EXPECT_DOUBLE_EQ(p.expected_tardiness(200.0), 50.0);
  EXPECT_DOUBLE_EQ(p.expected_tardiness(0.0), 200.0);
  EXPECT_DOUBLE_EQ(p.expected_tardiness(1000.0), 0.0);
}

}  // namespace
}  // namespace cdsf::core
