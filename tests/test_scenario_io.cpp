#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cdsf/paper_example.hpp"
#include "cdsf/scenario_io.hpp"
#include "ra/heuristics.hpp"
#include "ra/robustness.hpp"

namespace cdsf::core {
namespace {

constexpr const char* kMinimalScenario = R"(
# a minimal two-type scenario
[platform]
type = fast 2
type = slow 4

[availability ref]
fast = 0.8:0.5 1.0:0.5
slow = 0.5:1.0

[application job1]
serial = 10
parallel = 90
mean = 100 200

[deadline]
value = 500
)";

TEST(ScenarioIo, ParsesMinimalScenario) {
  const Scenario scenario = parse_scenario_text(kMinimalScenario);
  EXPECT_EQ(scenario.platform.type_count(), 2u);
  EXPECT_EQ(scenario.platform.type(0).name, "fast");
  EXPECT_EQ(scenario.platform.processors_of_type(1), 4u);
  ASSERT_EQ(scenario.cases.size(), 1u);
  EXPECT_EQ(scenario.cases[0].name(), "ref");
  EXPECT_NEAR(scenario.cases[0].expected(0), 0.9, 1e-12);
  EXPECT_NEAR(scenario.cases[0].expected(1), 0.5, 1e-12);
  ASSERT_EQ(scenario.batch.size(), 1u);
  EXPECT_EQ(scenario.batch.at(0).name(), "job1");
  EXPECT_EQ(scenario.batch.at(0).serial_iterations(), 10);
  EXPECT_DOUBLE_EQ(scenario.batch.at(0).mean_time(1), 200.0);
  EXPECT_DOUBLE_EQ(scenario.deadline, 500.0);
}

TEST(ScenarioIo, DefaultsAndOptionalKeys) {
  std::string text = kMinimalScenario;
  text += "\n[application job2]\nserial = 0\nparallel = 50\nmean = 10 20\ncov = 0.25\n"
          "law = gamma\n";
  const Scenario scenario = parse_scenario_text(text);
  ASSERT_EQ(scenario.batch.size(), 2u);
  EXPECT_DOUBLE_EQ(scenario.batch.at(0).time_law(0).cov, 0.1);  // default
  EXPECT_DOUBLE_EQ(scenario.batch.at(1).time_law(0).cov, 0.25);
  EXPECT_EQ(scenario.batch.at(1).time_law(0).kind, workload::TimeLawKind::kGamma);
}

TEST(ScenarioIo, PaperScenarioRoundTripsExactly) {
  const PaperExample example = make_paper_example();
  const Scenario parsed = parse_scenario_text(paper_scenario_text());
  EXPECT_EQ(parsed.platform, example.platform);
  ASSERT_EQ(parsed.cases.size(), example.cases.size());
  for (std::size_t k = 0; k < example.cases.size(); ++k) {
    EXPECT_EQ(parsed.cases[k], example.cases[k]) << "case " << k + 1;
  }
  ASSERT_EQ(parsed.batch.size(), example.batch.size());
  for (std::size_t i = 0; i < example.batch.size(); ++i) {
    EXPECT_EQ(parsed.batch.at(i), example.batch.at(i)) << "app " << i + 1;
  }
  EXPECT_DOUBLE_EQ(parsed.deadline, example.deadline);
}

TEST(ScenarioIo, ParsedPaperScenarioReproducesPhi1) {
  const Scenario scenario = parse_scenario_text(paper_scenario_text());
  const ra::RobustnessEvaluator evaluator(scenario.batch, scenario.cases.front(),
                                          scenario.deadline);
  const ra::Allocation robust =
      ra::ExhaustiveOptimal().allocate(evaluator, scenario.platform, ra::CountRule::kPowerOfTwo);
  EXPECT_NEAR(evaluator.joint_probability(robust), 0.745, 0.01);
}

TEST(ScenarioIo, SerializeParseSerializeIsStable) {
  const std::string once = paper_scenario_text();
  const std::string twice = scenario_to_text(parse_scenario_text(once));
  EXPECT_EQ(once, twice);
}

TEST(ScenarioIo, LoadFromFile) {
  const std::string path = ::testing::TempDir() + "/cdsf_scenario_test.ini";
  {
    std::ofstream out(path);
    out << kMinimalScenario;
  }
  const Scenario scenario = load_scenario(path);
  EXPECT_EQ(scenario.batch.size(), 1u);
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario("/nonexistent/dir/nope.ini"), std::runtime_error);
}

// -------------------------------------------------------- parse failures --

TEST(ScenarioIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario_text("key = value\n"), std::runtime_error);   // outside section
  EXPECT_THROW(parse_scenario_text("[platform\n"), std::runtime_error);     // unterminated
  EXPECT_THROW(parse_scenario_text("[what]\n"), std::runtime_error);        // unknown section
  EXPECT_THROW(parse_scenario_text("[platform]\ntype = only\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text("[platform]\ntype = a x\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text("[availability]\n"), std::runtime_error);  // missing name
  EXPECT_THROW(parse_scenario_text("[platform]\ntype = a 2\n[availability c]\na = 0.5\n"),
               std::runtime_error);  // pulse missing ':'
}

TEST(ScenarioIo, RejectsSemanticErrors) {
  // No applications.
  EXPECT_THROW(parse_scenario_text("[platform]\ntype = a 2\n[availability c]\na = 1.0:1\n"
                                   "[deadline]\nvalue = 10\n"),
               std::invalid_argument);
  // Unknown type in availability.
  EXPECT_THROW(parse_scenario_text("[platform]\ntype = a 2\n[availability c]\nb = 1.0:1\n"),
               std::runtime_error);
  // Availability missing a type.
  EXPECT_THROW(
      parse_scenario_text("[platform]\ntype = a 2\ntype = b 2\n[availability c]\na = 1.0:1\n"
                          "[application x]\nserial = 1\nparallel = 1\nmean = 1 1\n"
                          "[deadline]\nvalue = 10\n"),
      std::invalid_argument);
  // Wrong number of means.
  EXPECT_THROW(
      parse_scenario_text("[platform]\ntype = a 2\ntype = b 2\n[availability c]\n"
                          "a = 1.0:1\nb = 1.0:1\n[application x]\nserial = 1\nparallel = 1\n"
                          "mean = 1\n[deadline]\nvalue = 10\n"),
      std::invalid_argument);
  // Missing deadline.
  EXPECT_THROW(
      parse_scenario_text("[platform]\ntype = a 2\n[availability c]\na = 1.0:1\n"
                          "[application x]\nserial = 1\nparallel = 1\nmean = 1\n"),
      std::invalid_argument);
}

TEST(ScenarioIo, CommentsAndBlankLinesIgnored) {
  std::string text = "# leading comment\n\n";
  text += kMinimalScenario;
  text += "\n# trailing comment\n";
  EXPECT_NO_THROW(parse_scenario_text(text));
}

// ------------------------------------------------------- failure sections --

TEST(ScenarioIo, ParsesFailureSections) {
  std::string text = kMinimalScenario;
  text += "\n[failure]\nworker = 2\ntime = 600\nkind = crash-recover\nrecovery = 1400\n";
  text += "\n[failure]\nworker = 0\ntime = 100\nkind = degrade\nresidual = 0.05\n";
  text += "\n[failure]\nworker = 1\ntime = 250\nkind = crash\n";
  const Scenario scenario = parse_scenario_text(text);
  ASSERT_EQ(scenario.failures.size(), 3u);

  EXPECT_EQ(scenario.failures[0].worker, 2u);
  EXPECT_DOUBLE_EQ(scenario.failures[0].time, 600.0);
  EXPECT_EQ(scenario.failures[0].kind, sim::SimConfig::FailureKind::kCrashRecover);
  EXPECT_DOUBLE_EQ(scenario.failures[0].recovery_time, 1400.0);

  EXPECT_EQ(scenario.failures[1].worker, 0u);
  EXPECT_EQ(scenario.failures[1].kind, sim::SimConfig::FailureKind::kDegrade);
  EXPECT_DOUBLE_EQ(scenario.failures[1].residual_availability, 0.05);

  EXPECT_EQ(scenario.failures[2].kind, sim::SimConfig::FailureKind::kCrash);
  EXPECT_TRUE(std::isinf(scenario.failures[2].recovery_time));
}

TEST(ScenarioIo, FailuresRoundTripThroughText) {
  std::string text = kMinimalScenario;
  text += "\n[failure]\nworker = 1\ntime = 50\nkind = crash\n";
  text += "\n[failure]\nworker = 3\ntime = 75\nkind = degrade\nresidual = 0.02\n";
  text += "\n[failure]\nworker = 0\ntime = 10\nkind = crash-recover\nrecovery = 90\n";
  const Scenario original = parse_scenario_text(text);
  const Scenario reparsed = parse_scenario_text(scenario_to_text(original));
  ASSERT_EQ(reparsed.failures.size(), original.failures.size());
  for (std::size_t k = 0; k < original.failures.size(); ++k) {
    EXPECT_EQ(reparsed.failures[k].worker, original.failures[k].worker) << k;
    EXPECT_DOUBLE_EQ(reparsed.failures[k].time, original.failures[k].time) << k;
    EXPECT_EQ(reparsed.failures[k].kind, original.failures[k].kind) << k;
    EXPECT_DOUBLE_EQ(reparsed.failures[k].residual_availability,
                     original.failures[k].residual_availability)
        << k;
    EXPECT_DOUBLE_EQ(reparsed.failures[k].recovery_time, original.failures[k].recovery_time)
        << k;
  }
}

TEST(ScenarioIo, RejectsMalformedFailures) {
  const std::string base = kMinimalScenario;
  // Named [failure] section.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure oops]\nworker = 0\n"),
               std::runtime_error);
  // Unknown key.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nwrker = 0\n"), std::runtime_error);
  // Unknown kind.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\nkind = explode\n"),
               std::runtime_error);
  // Negative worker / time.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = -1\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\ntime = -5\n"),
               std::runtime_error);
  // Residual outside (0, 1].
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\nresidual = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\nresidual = 1.5\n"),
               std::runtime_error);
  // crash-recover needs recovery > time.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\ntime = 100\n"
                                          "kind = crash-recover\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\ntime = 100\n"
                                          "kind = crash-recover\nrecovery = 100\n"),
               std::invalid_argument);
  // recovery is crash-recover-only.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\ntime = 100\n"
                                          "kind = crash\nrecovery = 200\n"),
               std::invalid_argument);
}

// ------------------------------------------- channel / checkpoint sections --

TEST(ScenarioIo, ParsesChannelAndCheckpointSections) {
  std::string text = kMinimalScenario;
  text += "\n[channel]\ndrop-to-worker = 0.05\ndrop-to-master = 0.02\n"
          "duplicate-to-master = 0.1\nreorder-to-worker = 0.2\nreorder-delay = 1.5\n"
          "burst-gap-mean = 300\nburst-duration = 8\nrto = 3\nrto-backoff = 1.5\n"
          "max-retransmits = 4\n";
  text += "\n[checkpoint]\ninterval = 250\njson = out/checkpoint.json\n";
  text += "\n[failure]\ntime = 120\nkind = master-restart\nrecovery = 150\n";
  const Scenario scenario = parse_scenario_text(text);
  EXPECT_TRUE(scenario.channel.faulty());
  EXPECT_DOUBLE_EQ(scenario.channel.drop_to_worker, 0.05);
  EXPECT_DOUBLE_EQ(scenario.channel.drop_to_master, 0.02);
  EXPECT_DOUBLE_EQ(scenario.channel.duplicate_to_master, 0.1);
  EXPECT_DOUBLE_EQ(scenario.channel.reorder_to_worker, 0.2);
  EXPECT_DOUBLE_EQ(scenario.channel.reorder_delay, 1.5);
  EXPECT_DOUBLE_EQ(scenario.channel.burst_gap_mean, 300.0);
  EXPECT_DOUBLE_EQ(scenario.channel.burst_duration, 8.0);
  EXPECT_DOUBLE_EQ(scenario.channel.rto, 3.0);
  EXPECT_DOUBLE_EQ(scenario.channel.rto_backoff, 1.5);
  EXPECT_EQ(scenario.channel.max_retransmits, 4u);
  EXPECT_TRUE(scenario.checkpoint.enabled);
  EXPECT_DOUBLE_EQ(scenario.checkpoint.interval, 250.0);
  EXPECT_EQ(scenario.checkpoint.json_path, "out/checkpoint.json");
  ASSERT_EQ(scenario.failures.size(), 1u);
  EXPECT_EQ(scenario.failures[0].kind, sim::SimConfig::FailureKind::kMasterCrashRestart);
  EXPECT_DOUBLE_EQ(scenario.failures[0].time, 120.0);
  EXPECT_DOUBLE_EQ(scenario.failures[0].recovery_time, 150.0);
}

TEST(ScenarioIo, ChannelAndCheckpointRoundTripThroughText) {
  std::string text = kMinimalScenario;
  text += "\n[channel]\ndrop-to-worker = 0.1\nduplicate-to-worker = 0.3\n"
          "reorder-to-master = 0.25\nburst-gap-mean = 200\nburst-duration = 5\n"
          "rto = 2.5\nmax-retransmits = 6\n";
  text += "\n[checkpoint]\ninterval = 100\n";
  text += "\n[failure]\ntime = 60\nkind = master-restart\nrecovery = 90\n";
  const Scenario original = parse_scenario_text(text);
  const Scenario reparsed = parse_scenario_text(scenario_to_text(original));
  EXPECT_DOUBLE_EQ(reparsed.channel.drop_to_worker, original.channel.drop_to_worker);
  EXPECT_DOUBLE_EQ(reparsed.channel.duplicate_to_worker, original.channel.duplicate_to_worker);
  EXPECT_DOUBLE_EQ(reparsed.channel.reorder_to_master, original.channel.reorder_to_master);
  EXPECT_DOUBLE_EQ(reparsed.channel.burst_gap_mean, original.channel.burst_gap_mean);
  EXPECT_DOUBLE_EQ(reparsed.channel.burst_duration, original.channel.burst_duration);
  EXPECT_DOUBLE_EQ(reparsed.channel.rto, original.channel.rto);
  EXPECT_DOUBLE_EQ(reparsed.channel.rto_backoff, original.channel.rto_backoff);
  EXPECT_EQ(reparsed.channel.max_retransmits, original.channel.max_retransmits);
  EXPECT_EQ(reparsed.checkpoint.enabled, original.checkpoint.enabled);
  EXPECT_DOUBLE_EQ(reparsed.checkpoint.interval, original.checkpoint.interval);
  ASSERT_EQ(reparsed.failures.size(), 1u);
  EXPECT_EQ(reparsed.failures[0].kind, sim::SimConfig::FailureKind::kMasterCrashRestart);
  EXPECT_DOUBLE_EQ(reparsed.failures[0].recovery_time, 90.0);
  // Second serialization is a fixed point.
  EXPECT_EQ(scenario_to_text(original), scenario_to_text(reparsed));
}

TEST(ScenarioIo, CleanChannelIsNotSerialized) {
  const Scenario scenario = parse_scenario_text(kMinimalScenario);
  EXPECT_FALSE(scenario.channel.faulty());
  EXPECT_FALSE(scenario.checkpoint.enabled);
  const std::string text = scenario_to_text(scenario);
  EXPECT_EQ(text.find("[channel]"), std::string::npos);
  EXPECT_EQ(text.find("[checkpoint]"), std::string::npos);
}

TEST(ScenarioIo, RejectsMalformedChannelAndCheckpoint) {
  const std::string base = kMinimalScenario;
  // Named sections.
  EXPECT_THROW(parse_scenario_text(base + "\n[channel lossy]\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[checkpoint c]\n"), std::runtime_error);
  // Unknown keys.
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\ndrop = 0.1\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[checkpoint]\nperiod = 10\n"),
               std::runtime_error);
  // Probabilities outside [0, 1].
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\ndrop-to-worker = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\nduplicate-to-master = -0.1\n"),
               std::runtime_error);
  // Degenerate protocol knobs.
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\nreorder-delay = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\nrto = 0\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\nrto-backoff = 0.5\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\nmax-retransmits = -1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[checkpoint]\ninterval = 0\n"),
               std::runtime_error);
  // master-restart needs recovery > time.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\ntime = 100\nkind = master-restart\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\ntime = 100\nkind = master-restart\n"
                                          "recovery = 100\n"),
               std::invalid_argument);
  // At most one master-restart per scenario.
  EXPECT_THROW(
      parse_scenario_text(base + "\n[failure]\ntime = 10\nkind = master-restart\nrecovery = 20\n"
                                 "\n[failure]\ntime = 30\nkind = master-restart\nrecovery = 40\n"),
      std::invalid_argument);
}

// ------------------------------------------- quarantine / integrity sections --

TEST(ScenarioIo, ParsesQuarantineAndIntegritySections) {
  std::string text = kMinimalScenario;
  text += "\n[quarantine]\newma-alpha = 0.4\nslowdown-threshold = 3\n"
          "min-observations = 5\nprobe-interval = 120\nprobe-successes = 3\n"
          "audit-rate = 0.2\naudit-mismatch-limit = 2\n";
  text += "\n[integrity]\ncorrupt-to-worker = 0.01\ncorrupt-to-master = 0.02\n";
  const Scenario scenario = parse_scenario_text(text);
  EXPECT_TRUE(scenario.quarantine.enabled);  // section presence arms the tracker
  EXPECT_TRUE(scenario.quarantine.armed());
  EXPECT_DOUBLE_EQ(scenario.quarantine.ewma_alpha, 0.4);
  EXPECT_DOUBLE_EQ(scenario.quarantine.slowdown_threshold, 3.0);
  EXPECT_EQ(scenario.quarantine.min_observations, 5u);
  EXPECT_DOUBLE_EQ(scenario.quarantine.probe_interval, 120.0);
  EXPECT_EQ(scenario.quarantine.probe_successes, 3u);
  EXPECT_DOUBLE_EQ(scenario.quarantine.audit_rate, 0.2);
  EXPECT_EQ(scenario.quarantine.audit_mismatch_limit, 2u);
  EXPECT_TRUE(scenario.channel.corrupting());
  EXPECT_TRUE(scenario.channel.faulty());  // corruption implies a faulty channel
  EXPECT_DOUBLE_EQ(scenario.channel.corrupt_to_worker, 0.01);
  EXPECT_DOUBLE_EQ(scenario.channel.corrupt_to_master, 0.02);
}

TEST(ScenarioIo, QuarantineAndIntegrityRoundTripThroughText) {
  std::string text = kMinimalScenario;
  text += "\n[quarantine]\nslowdown-threshold = 2.5\naudit-rate = 0.15\n";
  text += "\n[integrity]\ncorrupt-to-master = 0.005\n";
  text += "\n[failure]\nworker = 1\ntime = 40\nkind = silent-corrupt\nprobability = 0.6\n";
  const Scenario original = parse_scenario_text(text);
  const Scenario reparsed = parse_scenario_text(scenario_to_text(original));
  EXPECT_EQ(reparsed.quarantine.enabled, original.quarantine.enabled);
  EXPECT_DOUBLE_EQ(reparsed.quarantine.ewma_alpha, original.quarantine.ewma_alpha);
  EXPECT_DOUBLE_EQ(reparsed.quarantine.slowdown_threshold, 2.5);
  EXPECT_EQ(reparsed.quarantine.min_observations, original.quarantine.min_observations);
  EXPECT_DOUBLE_EQ(reparsed.quarantine.probe_interval, original.quarantine.probe_interval);
  EXPECT_EQ(reparsed.quarantine.probe_successes, original.quarantine.probe_successes);
  EXPECT_DOUBLE_EQ(reparsed.quarantine.audit_rate, 0.15);
  EXPECT_EQ(reparsed.quarantine.audit_mismatch_limit, original.quarantine.audit_mismatch_limit);
  EXPECT_DOUBLE_EQ(reparsed.channel.corrupt_to_worker, 0.0);
  EXPECT_DOUBLE_EQ(reparsed.channel.corrupt_to_master, 0.005);
  ASSERT_EQ(reparsed.failures.size(), 1u);
  EXPECT_EQ(reparsed.failures[0].kind, sim::SimConfig::FailureKind::kSilentCorrupt);
  EXPECT_DOUBLE_EQ(reparsed.failures[0].corrupt_probability, 0.6);
  // Second serialization is a fixed point.
  EXPECT_EQ(scenario_to_text(original), scenario_to_text(reparsed));
}

TEST(ScenarioIo, AuditOnlyQuarantineRoundTrips) {
  // 'fail-slow = 0' keeps the EWMA tracker off while the audit layer runs.
  std::string text = kMinimalScenario;
  text += "\n[quarantine]\nfail-slow = 0\naudit-rate = 0.3\n";
  const Scenario original = parse_scenario_text(text);
  EXPECT_FALSE(original.quarantine.enabled);
  EXPECT_TRUE(original.quarantine.armed());
  const Scenario reparsed = parse_scenario_text(scenario_to_text(original));
  EXPECT_FALSE(reparsed.quarantine.enabled);
  EXPECT_DOUBLE_EQ(reparsed.quarantine.audit_rate, 0.3);
  EXPECT_EQ(scenario_to_text(original), scenario_to_text(reparsed));
}

TEST(ScenarioIo, DisarmedQuarantineIsNotSerialized) {
  const Scenario scenario = parse_scenario_text(kMinimalScenario);
  EXPECT_FALSE(scenario.quarantine.armed());
  const std::string text = scenario_to_text(scenario);
  EXPECT_EQ(text.find("[quarantine]"), std::string::npos);
  EXPECT_EQ(text.find("[integrity]"), std::string::npos);
}

TEST(ScenarioIo, RejectsMalformedQuarantineAndIntegrity) {
  const std::string base = kMinimalScenario;
  // Named sections.
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine q]\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[integrity i]\n"), std::runtime_error);
  // Unknown keys.
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\nthreshold = 4\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[integrity]\ncorrupt = 0.1\n"),
               std::runtime_error);
  // Out-of-range knobs.
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\newma-alpha = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\newma-alpha = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\nslowdown-threshold = 1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\nmin-observations = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\nprobe-interval = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\nprobe-successes = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\naudit-rate = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\naudit-mismatch-limit = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[quarantine]\nfail-slow = 2\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[integrity]\ncorrupt-to-worker = -0.1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[integrity]\ncorrupt-to-master = 1.01\n"),
               std::runtime_error);
  // silent-corrupt probability must be positive and silent-corrupt-only.
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\ntime = 5\n"
                                          "kind = silent-corrupt\nprobability = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\ntime = 5\n"
                                          "kind = crash\nprobability = 0.5\n"),
               std::invalid_argument);
}

TEST(ScenarioIo, AdmissionSectionRoundTripsThroughText) {
  std::string text = kMinimalScenario;
  text += "\n[admission]\npolicy = rho2\nqueue-capacity = 4\norder = edf\n"
          "admit-floor = 0.2\nshed-floor = 0.1\nladder = 1\nladder-alpha = 0.4\n"
          "overload-threshold = 0.7\nrecover-threshold = 0.3\n";
  const Scenario original = parse_scenario_text(text);
  EXPECT_EQ(original.admission.policy, AdmissionPolicy::kRho2Aware);
  EXPECT_EQ(original.admission.queue_capacity, 4u);
  EXPECT_EQ(original.admission.queue_order, QueueOrder::kEdf);
  EXPECT_DOUBLE_EQ(original.admission.admit_floor, 0.2);
  EXPECT_DOUBLE_EQ(original.admission.shed_floor, 0.1);
  EXPECT_TRUE(original.admission.ladder);
  EXPECT_DOUBLE_EQ(original.admission.ladder_alpha, 0.4);
  EXPECT_DOUBLE_EQ(original.admission.overload_threshold, 0.7);
  EXPECT_DOUBLE_EQ(original.admission.recover_threshold, 0.3);
  const Scenario reparsed = parse_scenario_text(scenario_to_text(original));
  EXPECT_EQ(reparsed.admission.policy, original.admission.policy);
  EXPECT_EQ(reparsed.admission.queue_capacity, original.admission.queue_capacity);
  EXPECT_EQ(reparsed.admission.queue_order, original.admission.queue_order);
  EXPECT_DOUBLE_EQ(reparsed.admission.admit_floor, original.admission.admit_floor);
  EXPECT_DOUBLE_EQ(reparsed.admission.shed_floor, original.admission.shed_floor);
  EXPECT_EQ(reparsed.admission.ladder, original.admission.ladder);
  EXPECT_DOUBLE_EQ(reparsed.admission.ladder_alpha, original.admission.ladder_alpha);
  EXPECT_DOUBLE_EQ(reparsed.admission.overload_threshold,
                   original.admission.overload_threshold);
  EXPECT_DOUBLE_EQ(reparsed.admission.recover_threshold,
                   original.admission.recover_threshold);
  // Second serialization is a fixed point.
  EXPECT_EQ(scenario_to_text(original), scenario_to_text(reparsed));
}

TEST(ScenarioIo, AdmissionSectionAloneDefaultsToBoundedQueue) {
  // The mere presence of [admission] means "bound the queue": a capacity
  // without an explicit policy must not silently stay accept-all.
  const Scenario scenario =
      parse_scenario_text(std::string(kMinimalScenario) + "\n[admission]\nqueue-capacity = 3\n");
  EXPECT_EQ(scenario.admission.policy, AdmissionPolicy::kBoundedQueue);
  EXPECT_EQ(scenario.admission.queue_capacity, 3u);
  EXPECT_TRUE(scenario.admission.active());
}

TEST(ScenarioIo, InertAdmissionIsNotSerialized) {
  const Scenario scenario = parse_scenario_text(kMinimalScenario);
  EXPECT_FALSE(scenario.admission.active());
  EXPECT_EQ(scenario_to_text(scenario).find("[admission]"), std::string::npos);
}

TEST(ScenarioIo, RejectsMalformedAdmission) {
  const std::string base = kMinimalScenario;
  // Named section, unknown keys, unknown enum values.
  EXPECT_THROW(parse_scenario_text(base + "\n[admission a]\n"), std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\ncapacity = 4\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\npolicy = open-door\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\nqueue-capacity = 2\norder = lifo\n"),
               std::runtime_error);
  // Out-of-range knobs.
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\nqueue-capacity = 0\n"),
               std::runtime_error);
  EXPECT_THROW(
      parse_scenario_text(base + "\n[admission]\nqueue-capacity = 2\nadmit-floor = 1.5\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_scenario_text(base + "\n[admission]\nqueue-capacity = 2\nshed-floor = -0.1\n"),
      std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\nqueue-capacity = 2\nladder = 2\n"),
               std::runtime_error);
  EXPECT_THROW(
      parse_scenario_text(base + "\n[admission]\nqueue-capacity = 2\nladder-alpha = 0\n"),
      std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\nqueue-capacity = 2\n"
                                          "overload-threshold = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\nqueue-capacity = 2\n"
                                          "recover-threshold = 1\n"),
               std::runtime_error);
}

TEST(ScenarioIo, RejectsContradictoryAdmissionKnobs) {
  const std::string base = kMinimalScenario;
  // An explicit accept-all policy with bounded-only machinery armed is a
  // contradiction (validate_admission), not a parse error.
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\npolicy = accept-all\n"
                                          "queue-capacity = 4\n"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_text(base + "\n[admission]\npolicy = bounded\n"),  // no capacity
      std::invalid_argument);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\npolicy = bounded\n"
                                          "queue-capacity = 4\nadmit-floor = 0.5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_text(base + "\n[admission]\npolicy = rho2\nqueue-capacity = 4\n"
                                          "ladder = 1\noverload-threshold = 0.3\n"
                                          "recover-threshold = 0.5\n"),
               std::invalid_argument);
}

// Deterministic malformed-input sweep: every truncation of a scenario that
// exercises every section, plus a few hundred seeded byte mutations and a
// set of hand-picked pathological variants. The parser must either accept
// the text or throw — never crash, hang, or trip the sanitizers (this test
// is the parser's coverage anchor in the asan-ubsan / tsan CI jobs).
TEST(ScenarioIo, MalformedInputSweepIsMemorySafe) {
  std::string base = kMinimalScenario;
  base += "\n[failure]\nworker = 1\ntime = 50\nkind = degrade\nresidual = 0.25\n"
          "\n[failure]\nworker = 0\ntime = 80\nkind = silent-corrupt\nprobability = 0.5\n"
          "\n[channel]\ndrop-to-worker = 0.1\nrto = 25\n"
          "\n[quarantine]\nfail-slow = 1\naudit-rate = 0.2\n"
          "\n[integrity]\ncorrupt-to-master = 0.01\n"
          "\n[admission]\npolicy = rho2\nqueue-capacity = 4\norder = edf\n"
          "admit-floor = 0.2\nshed-floor = 0.1\nladder = 1\nladder-alpha = 0.4\n"
          "overload-threshold = 0.7\nrecover-threshold = 0.3\n";
  auto parse_must_not_crash = [](const std::string& text) {
    try {
      (void)parse_scenario_text(text);
    } catch (const std::exception&) {
      // Rejection is a valid outcome; undefined behaviour is not.
    }
  };
  // Truncation at every byte boundary.
  for (std::size_t length = 0; length <= base.size(); ++length) {
    parse_must_not_crash(base.substr(0, length));
  }
  // Seeded byte mutations (fixed splitmix-style generator: replayable,
  // independent of any global RNG state).
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int round = 0; round < 400; ++round) {
    std::string mutated = base;
    const std::uint64_t edits = 1 + next() % 4;
    for (std::uint64_t edit = 0; edit < edits; ++edit) {
      const std::size_t pos = static_cast<std::size_t>(next() % mutated.size());
      mutated[pos] = static_cast<char>(static_cast<unsigned char>(next() & 0xffu));
    }
    parse_must_not_crash(mutated);
  }
  // Pathological hand-picked variants: duplicate keys and sections, empty
  // and non-numeric values, overflow, and embedded NUL bytes.
  const std::string variants[] = {
      "\n[quarantine]\naudit-rate = 0.2\naudit-rate = 0.9\n",
      "\n[integrity]\n[integrity]\ncorrupt-to-worker = 0.5\n",
      "\n[quarantine]\n= 3\n",
      "\n[quarantine]\naudit-rate =\n",
      "\n[quarantine]\naudit-rate = nan\n",
      "\n[quarantine]\naudit-rate = 1e309\n",
      "\n[quarantine]\nmin-observations = 99999999999999999999\n",
      "\n[failure]\nworker = 1\ntime = 50\nkind = degrade\nkind = crash\n",
      "\n[admission]\npolicy = rho2\npolicy = accept-all\nqueue-capacity = 4\n",
      "\n[admission]\nqueue-capacity = 99999999999999999999\n",
      "\n[admission]\norder =\n",
      "\n[admission]\nladder-alpha = nan\n",
      std::string("\n[quarantine]\naudit-rate = 0.2\0junk\n", 33),
  };
  for (const std::string& extra : variants) {
    parse_must_not_crash(std::string(kMinimalScenario) + extra);
  }
  // Still a functioning parser after the sweep.
  EXPECT_NO_THROW(parse_scenario_text(base));
}

// Every domain test fails for NaN, so "nan" is rejected where a key's
// domain is an inequality such as ">= 0" (a NaN failure time would never
// fire).
TEST(ScenarioIo, RejectsNanInBoundedKeys) {
  const std::string base = kMinimalScenario;
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\nburst-gap-mean = nan\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[channel]\nburst-duration = nan\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_text(base + "\n[failure]\nworker = 0\ntime = nan\n"),
               std::runtime_error);
}

// Format oracle: the bytes scenario_to_text writes for the paper scenario,
// for a scenario that sets every key of every optional section to a
// non-default value (including numbers past the writer's six significant
// digits), and for a scenario whose optional keys the writer omits; each
// written text must parse and write back to the same bytes. Then, at each
// value domain's boundary, one accepted and one rejected input.
TEST(ScenarioIo, FormatMatchesRecordedDigests) {
  std::string every_key = kMinimalScenario;
  every_key +=
      "\n[availability fine]\nfast = 0.123456789:0.5 1.0:0.5\nslow = 0.75:1.0\n"
      "\n[application job2]\nserial = 7\nparallel = 1234567\nmean = 3250.123456789 42\n"
      "cov = 0.25\nlaw = lognormal\nprofile = increasing\n"
      "\n[deadline]\nvalue = 3250.123456789\n"
      "\n[failure]\nworker = 1\ntime = 50.5\nkind = degrade\nresidual = 0.25\n"
      "\n[failure]\nworker = 2\ntime = 75\nkind = crash\n"
      "\n[failure]\nworker = 3\ntime = 100\nkind = crash-recover\nrecovery = 400\n"
      "\n[failure]\ntime = 120\nkind = master-restart\nrecovery = 150\n"
      "\n[failure]\nworker = 4\ntime = 30\nkind = silent-corrupt\nprobability = 0.6\n"
      "\n[channel]\ndrop-to-worker = 0.05\ndrop-to-master = 0.02\n"
      "duplicate-to-worker = 0.03\nduplicate-to-master = 0.1\nreorder-to-worker = 0.2\n"
      "reorder-to-master = 0.15\nreorder-delay = 1.5\nburst-gap-mean = 300\n"
      "burst-duration = 8\nrto = 3\nrto-backoff = 1.5\nmax-retransmits = 4\n"
      "\n[checkpoint]\ninterval = 250\njson = out/checkpoint.json\n"
      "\n[quarantine]\nfail-slow = 1\newma-alpha = 0.4\nslowdown-threshold = 3\n"
      "min-observations = 5\nprobe-interval = 120\nprobe-successes = 3\n"
      "audit-rate = 0.2\naudit-mismatch-limit = 2\n"
      "\n[integrity]\ncorrupt-to-worker = 0.01\ncorrupt-to-master = 0.02\n"
      "\n[admission]\npolicy = rho2\nqueue-capacity = 4\norder = edf\n"
      "admit-floor = 0.2\nshed-floor = 0.1\nladder = 1\nladder-alpha = 0.4\n"
      "overload-threshold = 0.7\nrecover-threshold = 0.3\n";
  const std::string omitted_keys = std::string(kMinimalScenario) +
                                   "\n[quarantine]\nfail-slow = 0\naudit-rate = 0.3\n"
                                   "\n[admission]\nqueue-capacity = 3\n";

  const std::vector<std::pair<std::string, std::uint64_t>> recorded = {
      {paper_scenario_text(), 0x5580fbd2712afd5eULL},
      {scenario_to_text(parse_scenario_text(every_key)), 0x0653837c36e7bb60ULL},
      {scenario_to_text(parse_scenario_text(omitted_keys)), 0x4e564dde448ce119ULL}};
  for (std::size_t k = 0; k < recorded.size(); ++k) {
    const std::string& text = recorded[k].first;
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    EXPECT_EQ(hash, recorded[k].second) << "scenario " << k << " digest 0x" << std::hex << hash
                                        << "\n" << text;
    EXPECT_EQ(scenario_to_text(parse_scenario_text(text)), text) << "scenario " << k;
  }

  // {section text, key, accepted value, rejected value}; each rejection is
  // a std::runtime_error (a line-numbered parse error).
  const std::string failure = "\n[failure]\nworker = 0\ntime = 5\nkind = degrade\n";
  const std::string admission = "\n[admission]\nqueue-capacity = 2\n";
  const std::vector<std::array<std::string, 4>> boundaries = {
      {"\n[channel]\n", "drop-to-worker", "0", "-1e-9"},          // [0, 1]
      {"\n[quarantine]\n", "audit-rate", "1", "1.000001"},        // [0, 1]
      {"\n[quarantine]\n", "ewma-alpha", "1", "0"},               // (0, 1]
      {"\n[quarantine]\n", "ewma-alpha", "1e-9", "1.000001"},     // (0, 1]
      {failure, "residual", "1", "0"},                            // (0, 1]
      {admission, "ladder-alpha", "1", "0"},                      // (0, 1]
      {"\n[channel]\n", "rto", "1e-9", "0"},                      // > 0
      {"\n[checkpoint]\n", "interval", "1e-9", "0"},              // > 0
      {"\n[channel]\n", "burst-gap-mean", "0", "-1e-9"},          // >= 0
      {"\n[failure]\nworker = 0\n", "time", "0", "-1e-9"},        // >= 0
      {"\n[channel]\n", "rto-backoff", "1", "0.999"},             // >= 1
      {"\n[quarantine]\n", "slowdown-threshold", "1.000001", "1"},  // > 1
      {admission, "recover-threshold", "0", "1"},                 // [0, 1)
      {admission, "recover-threshold", "0", "-1e-9"},             // [0, 1)
      {admission, "ladder", "1", "2"},                            // 0/1 flag
      {"\n[quarantine]\n", "fail-slow", "0", "-1"},               // 0/1 flag
      {"\n[channel]\n", "max-retransmits", "0", "-1"},            // integer >= 0
      {"\n[failure]\n", "worker", "0", "-1"},                     // integer >= 0
      {"\n[quarantine]\n", "min-observations", "1", "0"},         // integer >= 1
      {"\n[admission]\n", "queue-capacity", "1", "0"},            // integer >= 1
  };
  for (const auto& [section, key, accepted, rejected] : boundaries) {
    const std::string prefix = std::string(kMinimalScenario) + section + key + " = ";
    EXPECT_NO_THROW(parse_scenario_text(prefix + accepted + "\n")) << key << " = " << accepted;
    EXPECT_THROW(parse_scenario_text(prefix + rejected + "\n"), std::runtime_error)
        << key << " = " << rejected;
  }
}

}  // namespace
}  // namespace cdsf::core
