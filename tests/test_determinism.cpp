// Byte-level determinism of the serialized observability outputs: the
// report and trace documents for the same (scenario, seed) must be
// IDENTICAL bytes run after run and — for the replicated reduction —
// across thread counts. This is the regression net behind the
// unordered-iteration lint rule: a nondeterministically ordered container
// anywhere in the report/trace emission paths shows up here as a byte
// diff long before a human notices reordered JSON keys.
#include <gtest/gtest.h>

#include <string>

#include "cdsf/scenario_io.hpp"
#include "cdsf/solve.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/loop_executor.hpp"
#include "test_support.hpp"

namespace cdsf {
namespace {

constexpr std::uint64_t kSeed = 20260805;

sim::SimConfig traced_config() {
  sim::SimConfig config;
  config.collect_trace = true;
  return config;
}

sim::RunResult run_once() {
  return sim::simulate_loop(test::simple_app("app", 100, 2000, {5.0, 3.0}), 0, 4,
                            test::full_availability(2), dls::TechniqueId::kFAC,
                            traced_config(), kSeed);
}

TEST(Determinism, RunReportBytesAreIdenticalAcrossRepeatedRuns) {
  const std::string first = obs::make_run_report("det", run_once(), 5000.0).dump(1);
  const std::string second = obs::make_run_report("det", run_once(), 5000.0).dump(1);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, TraceBytesAreIdenticalAcrossRepeatedRuns) {
  auto render = [] {
    obs::TraceSink sink;
    obs::TraceSink::RunOptions options;
    options.pid = 0;
    options.process_name = "det";
    sink.append_run(run_once(), options);
    return sink.to_string();
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, ReplicationSummaryReportBytesAreThreadCountInvariant) {
  auto render = [](std::size_t threads) {
    const sim::ReplicationSummary summary = sim::simulate_replicated(
        test::simple_app("app", 100, 2000, {5.0, 3.0}), 0, 4, test::full_availability(2),
        dls::TechniqueId::kAWF_B, sim::SimConfig{}, kSeed, 16, 4000.0, threads);
    return obs::to_json(summary, 4000.0).dump(1);
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(2));
  EXPECT_EQ(serial, render(4));
}

/// The encoded scenario report of one solve_on of `text` at 7
/// replications on `threads` threads, with Stage I exhaustive up to
/// `space_limit` allocations.
std::string solve_report(const std::string& text, std::size_t threads,
                         std::size_t space_limit = core::SolveOptions{}.exhaustive_space_limit) {
  const core::Scenario scenario = core::parse_scenario_text(text);
  const core::Framework framework = core::make_framework(scenario);
  core::SolveOptions options;
  options.replications = 7;
  options.threads = threads;
  options.exhaustive_space_limit = space_limit;
  const core::SolveOutcome outcome = core::solve_on(framework, scenario, options);
  return obs::make_scenario_report(framework, outcome.scenario, scenario.cases).dump(1);
}

/// Checks the report at 2, 3 and 8 threads against 1 thread; returns the
/// 1-thread report.
std::string expect_solve_thread_count_invariant(
    const std::string& text,
    std::size_t space_limit = core::SolveOptions{}.exhaustive_space_limit) {
  const std::string serial = solve_report(text, 1, space_limit);
  for (std::size_t threads : {2u, 3u, 8u}) {
    EXPECT_EQ(serial, solve_report(text, threads, space_limit)) << "threads=" << threads;
  }
  return serial;
}

TEST(Determinism, SolveReportBytesAreThreadCountInvariant) {
  // Each case's Stage II is one grid of (application, technique,
  // replication) runs; the report must not see how threads claimed it.
  expect_solve_thread_count_invariant(core::paper_scenario_text());
}

TEST(Determinism, SolveReportWithFaultSectionsIsThreadCountInvariant) {
  // Crash-recover reclaims and quarantine audits on every run of the grid.
  const std::string faulty = expect_solve_thread_count_invariant(
      core::paper_scenario_text() +
      "\n[failure]\nworker = 1\ntime = 600\nkind = crash-recover\nrecovery = 1400\n"
      "\n[quarantine]\naudit-rate = 0.1\n");
  EXPECT_NE(faulty, solve_report(core::paper_scenario_text(), 1));
}

TEST(Determinism, SolveReportWithCompactedTableAndPortfolioIsThreadCountInvariant) {
  // 64 availability levels make every completion PMF of Stage I's table
  // compact, and a zero space limit sends the search to the portfolio.
  core::Scenario scenario = core::parse_scenario_text(core::paper_scenario_text());
  scenario.cases = {test::leveled_availability(scenario.platform.type_count(), 64)};
  const std::string report =
      expect_solve_thread_count_invariant(core::scenario_to_text(scenario), 0);
  EXPECT_NE(report.find("\"BestOfPortfolio\""), std::string::npos);
}

TEST(Determinism, MetricsSnapshotOrderIsInsertionOrderInvariant) {
  // Same metric names registered in different orders must serialize the
  // same way (snapshot maps are ordered by name, not by registration).
  obs::MetricsRegistry forward(true);
  forward.add("z.counter", 3);
  forward.set_gauge("m.gauge", 1.5);
  forward.add("a.counter", 7);
  forward.observe("h.hist", 0.25);

  obs::MetricsRegistry reverse(true);
  reverse.observe("h.hist", 0.25);
  reverse.add("a.counter", 7);
  reverse.set_gauge("m.gauge", 1.5);
  reverse.add("z.counter", 3);

  EXPECT_EQ(forward.snapshot().to_json().dump(1), reverse.snapshot().to_json().dump(1));
}

}  // namespace
}  // namespace cdsf
