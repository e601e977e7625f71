// Shared plumbing for the scenario benches (Figures 3-6, Table VI): run one
// scenario of the paper's Section IV study and print its per-case,
// per-application, per-technique execution times the way the corresponding
// figure reports them.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cdsf/framework.hpp"
#include "cdsf/paper_example.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace cdsf::bench {

struct ScenarioBenchOptions {
  std::size_t replications = 201;
  std::uint64_t seed = 42;
  /// When non-empty, the per-case series are also written to this CSV file
  /// (one row per application x technique x case) for external plotting.
  std::string csv_path;
  /// When non-empty, the whole scenario is also written as a structured
  /// JSON report (obs::make_scenario_report) — the machine-readable twin
  /// of the printed tables. Requesting it enables the global metrics
  /// registry so the report embeds a metrics snapshot.
  std::string json_path;
};

/// Registers the flags every scenario bench takes.
inline void add_scenario_options(util::Cli& cli) {
  cli.add_int("replications", 201, "simulation replications per (application, technique)");
  cli.add_int("seed", 42, "master random seed");
  cli.add_string("csv", "", "also write the series to this CSV file");
  cli.add_string("json", "", "also write a machine-readable JSON report to this file");
}

/// Reads them back after a successful parse.
inline ScenarioBenchOptions read_scenario_options(const util::Cli& cli) {
  ScenarioBenchOptions options;
  options.replications = static_cast<std::size_t>(cli.get_int("replications"));
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.csv_path = cli.get_string("csv");
  options.json_path = cli.get_string("json");
  if (!options.json_path.empty()) obs::MetricsRegistry::global().set_enabled(true);
  return options;
}

inline ScenarioBenchOptions parse_scenario_options(int argc, char** argv,
                                                   const std::string& description,
                                                   bool* show_help) {
  util::Cli cli(description);
  add_scenario_options(cli);
  *show_help = !cli.parse(argc, argv);
  return *show_help ? ScenarioBenchOptions{} : read_scenario_options(cli);
}

/// Writes the scenario as a structured JSON report, stamped with the bench
/// name and run parameters.
inline void write_scenario_json(const std::string& path, const std::string& bench_name,
                                const core::PaperExample& example,
                                const core::Framework& framework,
                                const core::ScenarioResult& scenario,
                                const ScenarioBenchOptions& options) {
  obs::Json doc = obs::make_scenario_report(framework, scenario, example.cases);
  doc.set("bench", bench_name);
  doc.set("replications", options.replications);
  doc.set("seed", static_cast<std::int64_t>(options.seed));
  obs::write_json(doc, path);
  std::printf("report written to %s\n", path.c_str());
}

/// Writes the scenario's full measurement series as CSV (the data behind
/// the rendered figure).
inline void write_scenario_csv(const std::string& path, const core::PaperExample& example,
                               const core::ScenarioResult& scenario,
                               const std::vector<dls::TechniqueId>& techniques) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "warning: cannot write CSV to %s\n", path.c_str());
    return;
  }
  util::CsvWriter csv(file);
  csv.write_row({"case", "weighted_availability", "application", "technique",
                 "median_makespan", "mean_makespan", "mean_ci_lo", "mean_ci_hi",
                 "hit_rate", "meets_deadline"});
  for (std::size_t k = 0; k < scenario.per_case.size(); ++k) {
    const core::StageTwoResult& per_case = scenario.per_case[k];
    const std::string weighted = util::format_fixed(
        example.cases[k].weighted_system_availability(example.platform), 4);
    for (std::size_t app = 0; app < per_case.outcomes.size(); ++app) {
      for (std::size_t t = 0; t < per_case.outcomes[app].size(); ++t) {
        const core::AppTechniqueOutcome& outcome = per_case.outcomes[app][t];
        csv.write_row({per_case.case_name, weighted, example.batch.at(app).name(),
                       dls::technique_name(techniques[t]),
                       util::format_fixed(outcome.summary.median_makespan, 2),
                       util::format_fixed(outcome.summary.mean_makespan, 2),
                       util::format_fixed(outcome.summary.mean_ci.lower, 2),
                       util::format_fixed(outcome.summary.mean_ci.upper, 2),
                       util::format_fixed(outcome.summary.deadline_hit_rate, 4),
                       outcome.meets_deadline ? "1" : "0"});
      }
    }
  }
  std::printf("series written to %s\n", path.c_str());
}

/// Prints one scenario: Stage I summary plus a per-case table of median
/// simulated execution times with deadline verdicts.
inline void print_scenario(const core::PaperExample& example, const core::Framework& framework,
                           const core::ScenarioResult& scenario,
                           const std::vector<dls::TechniqueId>& techniques) {
  std::printf("Stage I (%s): allocation %s\n", scenario.stage_one.heuristic_name.c_str(),
              scenario.stage_one.allocation.to_string(example.platform).c_str());
  std::printf("phi_1 = %s\n\n", util::format_percent(scenario.stage_one.phi1, 1).c_str());

  for (std::size_t k = 0; k < scenario.per_case.size(); ++k) {
    const core::StageTwoResult& per_case = scenario.per_case[k];
    util::Table table;
    std::vector<std::string> headers = {"application"};
    for (dls::TechniqueId id : techniques) headers.push_back(dls::technique_name(id));
    headers.push_back("meets deadline via");
    table.set_headers(headers);
    table.set_alignment({util::Align::kLeft});
    table.set_title(per_case.case_name + "  (weighted availability " +
                    util::format_percent(
                        example.cases[k].weighted_system_availability(example.platform), 2) +
                    ", deadline " + util::format_fixed(framework.deadline(), 0) + ")");
    for (std::size_t app = 0; app < example.batch.size(); ++app) {
      std::vector<std::string> row = {example.batch.at(app).name()};
      for (const auto& outcome : per_case.outcomes[app]) {
        std::string cell = util::format_fixed(outcome.summary.median_makespan, 0);
        cell += outcome.meets_deadline ? " *" : "  ";
        row.push_back(cell);
      }
      const int best = per_case.best_technique[app];
      row.push_back(best >= 0
                        ? dls::technique_name(techniques[static_cast<std::size_t>(best)])
                        : "- (violated)");
      table.add_row(row);
    }
    std::puts(table.render().c_str());
  }

  const core::RobustnessReport report =
      framework.robustness_report(scenario, example.cases);
  std::printf("robustness: rho_1 = %s, rho_2 = %s\n\n",
              util::format_percent(report.rho1, 1).c_str(),
              report.rho2 >= 0.0 ? util::format_percent(report.rho2, 2).c_str() : "n/a (not robust)");
}

}  // namespace cdsf::bench
