// Reproduces Figures 3-6 — the four scenarios of the paper's Section IV
// study, {naive, robust} IM x {naive (STATIC), robust} RAS. Each figure
// prints its reference markers (Figures 3 and 4: the analytic expected
// STATIC times T_i under case 1), the Stage I allocation, the simulated
// per-case execution times with deadline verdicts, and the paper's verdict.
//
//   bench_paper_figures --figure 6 --replications 201 --json fig6.json
//
// Without --figure all four run in order.
#include <array>
#include <cstdio>
#include <vector>

#include "scenario_common.hpp"

namespace {

using namespace cdsf;

/// One figure of the study.
struct Figure {
  int number;
  const char* scenario;             // run_scenario name, "<IM> + <RAS>"
  const ra::Heuristic* heuristic;   // the IM
  bool robust_dls;                  // paper_robust_set() instead of STATIC
  ra::Allocation (*marker_allocation)();  // T_i markers' allocation, or null
  std::array<double, 3> paper_t;    // the paper's T_i markers
  const char* bench;                // the JSON report's "bench" name
  const char* verdict;
};

const ra::NaiveLoadBalance kNaiveIm{};
const ra::ExhaustiveOptimal kRobustIm{};

const std::array<Figure, 4> kFigures = {{
    {3, "naive IM + STATIC", &kNaiveIm, false, core::paper_naive_allocation,
     {3800.02, 1306.39, 4599.76}, "bench_fig3_scenario1",
     "Paper verdict: phi_2 > Delta for all four cases — the system is not robust.\n"},
    {4, "robust IM + STATIC", &kRobustIm, false, core::paper_robust_allocation,
     {1365.46, 1959.59, 2699.86}, "bench_fig4_scenario2",
     "Paper verdict: phi_1 = 74.5% but STATIC degrades with decreasing availability;\n"
     "phi_2 > Delta for all four cases — the system is not robust.\n"},
    {5, "naive IM + robust DLS", &kNaiveIm, true, nullptr, {}, "bench_fig5_scenario3",
     "Paper verdict: even the most robust DLS cannot compensate the naive mapping —\n"
     "application 3 violates the deadline at case 1 and applications 1 and 3 in\n"
     "cases 2-4; the system is not robust.\n"},
    {6, "robust IM + robust DLS", &kRobustIm, true, nullptr, {}, "bench_fig6_scenario4",
     "Paper verdict: deadline met for all applications through a 30.77% weighted\n"
     "availability decrease (case 3); violated in case 4 (app 2 under every DLS).\n"
     "System robustness (rho_1, rho_2) = (74.5%, 30.77%); ours uses the rounded\n"
     "Table I inputs, giving rho_2 = 30.89%.\n"},
}};

void run_figure(const Figure& figure, const bench::ScenarioBenchOptions& options) {
  const core::PaperExample example = core::make_paper_example();
  const core::Framework framework(example.batch, example.platform, example.cases.front(),
                                  example.deadline);

  if (figure.marker_allocation != nullptr) {
    const ra::Allocation allocation = figure.marker_allocation();
    std::printf("Figure %d reference markers (expected STATIC times under case 1):\n",
                figure.number);
    for (std::size_t app = 0; app < 3; ++app) {
      std::printf("  T%zu: measured %.2f, paper %.2f\n", app + 1,
                  framework.analytic_static_time(app, allocation.at(app), example.cases.front()),
                  figure.paper_t[app]);
    }
    std::printf("  deadline Delta = %.0f\n\n", example.deadline);
  }

  core::StageTwoConfig config;
  config.replications = options.replications;
  config.seed = options.seed;
  config.threads = util::default_thread_count();
  const std::vector<dls::TechniqueId> techniques =
      figure.robust_dls ? dls::paper_robust_set()
                        : std::vector<dls::TechniqueId>{dls::TechniqueId::kStatic};
  const core::ScenarioResult scenario = framework.run_scenario(
      figure.scenario, *figure.heuristic, techniques, example.cases, config);
  bench::print_scenario(example, framework, scenario, techniques);
  if (!options.csv_path.empty()) {
    bench::write_scenario_csv(options.csv_path, example, scenario, techniques);
  }
  if (!options.json_path.empty()) {
    bench::write_scenario_json(options.json_path, figure.bench, example, framework, scenario,
                               options);
  }
  std::fputs(figure.verdict, stdout);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("Figures 3-6 — the Section IV scenarios: {naive, robust} IM x {STATIC, "
                "robust DLS}.");
  bench::add_scenario_options(cli);
  cli.add_int("figure", 0, "figure to reproduce: 3, 4, 5 or 6 (0 runs all four)");
  if (!cli.parse(argc, argv)) return 0;
  const bench::ScenarioBenchOptions options = bench::read_scenario_options(cli);

  const std::int64_t number = cli.get_int("figure");
  std::vector<const Figure*> chosen;
  for (const Figure& figure : kFigures) {
    if (number == 0 || figure.number == number) chosen.push_back(&figure);
  }
  if (chosen.empty()) {
    std::fputs("--figure must be 3, 4, 5 or 6 (or 0 for all four)\n", stderr);
    return 2;
  }
  if (chosen.size() > 1 && (!options.csv_path.empty() || !options.json_path.empty())) {
    std::fputs("--csv and --json need a single --figure\n", stderr);
    return 2;
  }
  for (const Figure* figure : chosen) run_figure(*figure, options);
  return 0;
}
