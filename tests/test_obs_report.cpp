// Report layer: emit -> Json::parse -> field comparison must be BIT-EXACT
// against the in-memory RunResult / ReplicationSummary / scenario values,
// including a fault-injected crash run. (The report's contract is that the
// machine-readable twin carries exactly the numbers the tables print.)
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>

#include "cdsf/framework.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "ra/heuristics.hpp"
#include "sim/loop_executor.hpp"

namespace cdsf::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

workload::Application small_app() {
  return workload::Application(
      "small", 0, 512, {workload::TimeLaw{workload::TimeLawKind::kNormal, 512.0, 0.1}});
}

sim::SimConfig crash_config() {
  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  sim::SimConfig::Failure failure;
  failure.worker = 1;
  failure.time = 40.0;
  failure.kind = sim::SimConfig::FailureKind::kCrash;
  config.failures.push_back(failure);
  return config;
}

void expect_faults_match(const Json& doc, const sim::FaultStats& faults) {
  EXPECT_EQ(doc.at("workers_crashed").as_int(),
            static_cast<std::int64_t>(faults.workers_crashed));
  EXPECT_EQ(doc.at("workers_recovered").as_int(),
            static_cast<std::int64_t>(faults.workers_recovered));
  EXPECT_EQ(doc.at("chunks_lost").as_int(), static_cast<std::int64_t>(faults.chunks_lost));
  EXPECT_EQ(doc.at("iterations_reexecuted").as_int(), faults.iterations_reexecuted);
  EXPECT_EQ(doc.at("wasted_work").as_double(), faults.wasted_work);
  EXPECT_EQ(doc.at("detection_latency_total").as_double(), faults.detection_latency_total);
  EXPECT_EQ(doc.at("max_detection_latency").as_double(), faults.max_detection_latency);
  EXPECT_EQ(doc.at("false_suspicions").as_int(),
            static_cast<std::int64_t>(faults.false_suspicions));
}

TEST(ObsReport, RunReportRoundTripsBitExactIncludingFaults) {
  const sysmodel::AvailabilitySpec dedicated("dedicated", {pmf::Pmf::delta(1.0)});
  sim::SimConfig config = crash_config();
  config.collect_trace = true;
  const sim::RunResult run =
      sim::simulate_loop(small_app(), 0, 4, dedicated, dls::TechniqueId::kFAC, config, 11);
  ASSERT_GT(run.faults.chunks_lost, 0u);  // the injected crash really bit

  const double deadline = 400.0;
  const Json parsed = Json::parse(make_run_report("crash run", run, deadline).dump());
  EXPECT_EQ(parsed.at("schema").as_string(), "cdsf.run_report/1");
  EXPECT_EQ(parsed.at("label").as_string(), "crash run");
  EXPECT_EQ(parsed.at("deadline").as_double(), deadline);
  EXPECT_EQ(parsed.at("deadline_slack").as_double(), deadline - run.makespan);

  const Json& run_doc = parsed.at("run");
  EXPECT_EQ(run_doc.at("makespan").as_double(), run.makespan);
  EXPECT_EQ(run_doc.at("serial_end").as_double(), run.serial_end);
  EXPECT_EQ(run_doc.at("finish_time_cov").as_double(), run.finish_time_cov());
  EXPECT_EQ(run_doc.at("chunks").at("count").as_int(),
            static_cast<std::int64_t>(run.total_chunks));
  std::uint64_t lost = 0;
  for (const sim::ChunkTraceEntry& chunk : run.trace) lost += chunk.lost ? 1 : 0;
  EXPECT_EQ(run_doc.at("chunks").at("lost").as_int(), static_cast<std::int64_t>(lost));
  ASSERT_EQ(run_doc.at("workers").size(), run.workers.size());
  for (std::size_t w = 0; w < run.workers.size(); ++w) {
    const Json& worker = run_doc.at("workers").at(w);
    EXPECT_EQ(worker.at("chunks").as_int(), static_cast<std::int64_t>(run.workers[w].chunks));
    EXPECT_EQ(worker.at("iterations").as_int(), run.workers[w].iterations);
    EXPECT_EQ(worker.at("busy_time").as_double(), run.workers[w].busy_time);
    EXPECT_EQ(worker.at("finish_time").as_double(), run.workers[w].finish_time);
  }
  expect_faults_match(run_doc.at("faults"), run.faults);
}

TEST(ObsReport, ReplicationSummaryRoundTripsBitExact) {
  const sysmodel::AvailabilitySpec dedicated("dedicated", {pmf::Pmf::delta(1.0)});
  const double deadline = 300.0;
  const sim::ReplicationSummary summary = sim::simulate_replicated(
      small_app(), 0, 4, dedicated, dls::TechniqueId::kGSS, crash_config(), 5, 21, deadline);
  ASSERT_GT(summary.faults_total.chunks_lost, 0u);

  const Json parsed = Json::parse(to_json(summary, deadline).dump());
  EXPECT_EQ(parsed.at("replications").as_int(),
            static_cast<std::int64_t>(summary.replications));
  EXPECT_EQ(parsed.at("mean_makespan").as_double(), summary.mean_makespan);
  EXPECT_EQ(parsed.at("median_makespan").as_double(), summary.median_makespan);
  EXPECT_EQ(parsed.at("stddev_makespan").as_double(), summary.stddev_makespan);
  EXPECT_EQ(parsed.at("min_makespan").as_double(), summary.min_makespan);
  EXPECT_EQ(parsed.at("max_makespan").as_double(), summary.max_makespan);
  EXPECT_EQ(parsed.at("deadline_hit_rate").as_double(), summary.deadline_hit_rate);
  EXPECT_EQ(parsed.at("mean_ci").at("lower").as_double(), summary.mean_ci.lower);
  EXPECT_EQ(parsed.at("mean_ci").at("upper").as_double(), summary.mean_ci.upper);
  EXPECT_EQ(parsed.at("hit_rate_ci").at("lower").as_double(), summary.hit_rate_ci.lower);
  EXPECT_EQ(parsed.at("hit_rate_ci").at("upper").as_double(), summary.hit_rate_ci.upper);
  EXPECT_EQ(parsed.at("deadline").as_double(), deadline);
  EXPECT_EQ(parsed.at("deadline_slack").as_double(), deadline - summary.median_makespan);
  expect_faults_match(parsed.at("faults_total"), summary.faults_total);
}

TEST(ObsReport, NonFiniteDeadlineOmitsSlackFields) {
  const Json doc = to_json(sim::ReplicationSummary{}, kInf);
  EXPECT_EQ(doc.find("deadline"), nullptr);
  EXPECT_EQ(doc.find("deadline_slack"), nullptr);
}

TEST(ObsReport, ScenarioReportMatchesScenarioBitExact) {
  workload::Batch batch;
  batch.add(workload::Application(
      "app0", 0, 1024, {workload::TimeLaw{workload::TimeLawKind::kNormal, 600.0, 0.1},
                        workload::TimeLaw{workload::TimeLawKind::kNormal, 900.0, 0.1}}));
  batch.add(workload::Application(
      "app1", 0, 1024, {workload::TimeLaw{workload::TimeLawKind::kNormal, 800.0, 0.1},
                        workload::TimeLaw{workload::TimeLawKind::kNormal, 1200.0, 0.1}}));
  const sysmodel::Platform platform({{"fast", 4}, {"slow", 4}});
  const sysmodel::AvailabilitySpec reference(
      "reference", {pmf::Pmf::delta(1.0), pmf::Pmf::delta(0.9)});
  const sysmodel::AvailabilitySpec degraded(
      "degraded", {pmf::Pmf::delta(0.8), pmf::Pmf::delta(0.7)});
  const double deadline = 400.0;
  const core::Framework framework(batch, platform, reference, deadline);

  core::StageTwoConfig config;
  config.replications = 7;
  config.sim.iteration_cov = 0.1;
  config.sim.availability_mode = sim::AvailabilityMode::kConstantMean;
  const std::vector<dls::TechniqueId> techniques = {dls::TechniqueId::kStatic,
                                                    dls::TechniqueId::kFAC};
  const std::vector<sysmodel::AvailabilitySpec> cases = {reference, degraded};
  const core::ScenarioResult scenario = framework.run_scenario(
      "test scenario", ra::ExhaustiveOptimal(), techniques, cases, config);

  const Json parsed = Json::parse(make_scenario_report(framework, scenario, cases).dump());
  EXPECT_EQ(parsed.at("schema").as_string(), "cdsf.scenario_report/1");
  EXPECT_EQ(parsed.at("deadline").as_double(), deadline);
  // phi_1 round trips bit-exactly.
  EXPECT_EQ(parsed.at("stage_one").at("phi1").as_double(), scenario.stage_one.phi1);
  const core::RobustnessReport robustness = framework.robustness_report(scenario, cases);
  EXPECT_EQ(parsed.at("robustness").at("rho1").as_double(), robustness.rho1);
  EXPECT_EQ(parsed.at("robustness").at("rho2").as_double(), robustness.rho2);

  ASSERT_EQ(parsed.at("cases").size(), scenario.per_case.size());
  for (std::size_t k = 0; k < scenario.per_case.size(); ++k) {
    const core::StageTwoResult& stage_two = scenario.per_case[k];
    const Json& case_doc = parsed.at("cases").at(k);
    EXPECT_EQ(case_doc.at("case").as_string(), stage_two.case_name);
    EXPECT_EQ(case_doc.at("system_makespan").as_double(), stage_two.system_makespan);
    ASSERT_EQ(case_doc.at("applications").size(), stage_two.outcomes.size());
    for (std::size_t app = 0; app < stage_two.outcomes.size(); ++app) {
      const Json& app_doc = case_doc.at("applications").at(app);
      ASSERT_EQ(app_doc.at("techniques").size(), stage_two.outcomes[app].size());
      for (std::size_t t = 0; t < stage_two.outcomes[app].size(); ++t) {
        const core::AppTechniqueOutcome& outcome = stage_two.outcomes[app][t];
        const Json& record = app_doc.at("techniques").at(t);
        EXPECT_EQ(record.at("technique").as_string(), dls::technique_name(outcome.technique));
        EXPECT_EQ(record.at("meets_deadline").as_bool(), outcome.meets_deadline);
        // Psi (median makespan) bit-matches the in-memory summary.
        EXPECT_EQ(record.at("summary").at("median_makespan").as_double(),
                  outcome.summary.median_makespan);
        EXPECT_EQ(record.at("summary").at("mean_makespan").as_double(),
                  outcome.summary.mean_makespan);
      }
    }
  }
}

TEST(ObsReport, PlanReportCarriesPhi1AndPsiBitExact) {
  workload::Batch batch;
  batch.add(small_app());
  const sysmodel::Platform platform({{"p", 4}});
  const sysmodel::AvailabilitySpec reference("reference", {pmf::Pmf::delta(0.9)});
  const core::Framework framework(batch, platform, reference, 250.0);
  const core::StageOneResult stage_one = framework.run_stage_one(ra::ExhaustiveOptimal());

  core::Framework::ExecutionPlan plan;
  plan.allocation = stage_one.allocation;
  plan.phi1 = stage_one.phi1;
  plan.techniques.assign(batch.size(), dls::TechniqueId::kFAC);
  sim::SimConfig config;
  config.iteration_cov = 0.1;
  config.availability_mode = sim::AvailabilityMode::kConstantMean;
  const sim::BatchRunResult result = framework.execute_plan(plan, reference, config, 3);

  const Json parsed = Json::parse(make_plan_report(framework, plan, result).dump());
  EXPECT_EQ(parsed.at("schema").as_string(), "cdsf.plan_report/1");
  EXPECT_EQ(parsed.at("plan").at("phi1").as_double(), plan.phi1);
  ASSERT_EQ(parsed.at("app_makespans").size(), result.app_makespans.size());
  for (std::size_t app = 0; app < result.app_makespans.size(); ++app) {
    EXPECT_EQ(parsed.at("app_makespans").at(app).as_double(), result.app_makespans[app]);
  }
  EXPECT_EQ(parsed.at("system_makespan").as_double(), result.system_makespan);
  EXPECT_EQ(parsed.at("deadline_slack").as_double(),
            framework.deadline() - result.system_makespan);
}

TEST(ObsReport, MetricsAttachOnlyWhenGlobalRegistryEnabled) {
  MetricsRegistry& global = MetricsRegistry::global();
  const bool was_enabled = global.enabled();
  sim::RunResult minimal_run;
  minimal_run.workers = {sim::WorkerStats{}};
  global.set_enabled(false);
  EXPECT_EQ(make_run_report("r", minimal_run, kInf).find("metrics"), nullptr);
  global.set_enabled(true);
  global.add("test.counter");
  const Json doc = make_run_report("r", minimal_run, kInf);
  const Json* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->at("counters").at("test.counter").as_int(), 1);
  global.reset();
  global.set_enabled(was_enabled);
}

TEST(ObsReport, WriteJsonToAFullDiskThrows) {
  // A small document sits in the stream buffer until the flush: the write
  // must fail there, not report success (/dev/full fails every write).
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "/dev/full is not writable here";
  Json doc = Json::object();
  doc.set("schema", "test");
  EXPECT_THROW(write_json(doc, "/dev/full"), std::runtime_error);
}

}  // namespace
}  // namespace cdsf::obs
