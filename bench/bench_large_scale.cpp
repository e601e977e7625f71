// The paper's future-work study: a larger problem (more applications, more
// processor types, more processors) demonstrating why scalable RA
// heuristics are needed — the exhaustive search space explodes — and how
// the CDSF behaves at scale.
#include <cstdio>
#include <limits>

#include "cdsf/framework.hpp"
#include "ra/heuristics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace cdsf;
  util::Cli cli("Large-scale CDSF study (future-work section of the paper).");
  cli.add_int("apps", 10, "applications in the batch");
  cli.add_int("seed", 7, "workload seed");
  cli.add_int("replications", 31, "stage II replications");
  if (!cli.parse(argc, argv)) return 0;

  // A 3-type, 56-processor system with distinct availability profiles.
  const sysmodel::Platform platform({{"fast", 8}, {"mid", 16}, {"slow", 32}});
  const sysmodel::AvailabilitySpec reference(
      "reference", {pmf::Pmf::from_pulses({{0.70, 0.30}, {1.00, 0.70}}),
                    pmf::Pmf::from_pulses({{0.40, 0.25}, {0.70, 0.25}, {1.00, 0.50}}),
                    pmf::Pmf::from_pulses({{0.25, 0.30}, {0.50, 0.40}, {0.90, 0.30}})});
  const sysmodel::AvailabilitySpec degraded(
      "degraded", {pmf::Pmf::from_pulses({{0.50, 0.60}, {0.80, 0.40}}),
                   pmf::Pmf::from_pulses({{0.30, 0.50}, {0.60, 0.40}, {0.90, 0.10}}),
                   pmf::Pmf::from_pulses({{0.15, 0.40}, {0.40, 0.40}, {0.70, 0.20}})});

  workload::BatchSpec spec;
  spec.applications = static_cast<std::size_t>(cli.get_int("apps"));
  spec.processor_types = 3;
  spec.min_total_iterations = 1000;
  spec.max_total_iterations = 6000;
  spec.min_mean_time = 4000.0;
  spec.max_mean_time = 40000.0;
  const workload::Batch batch =
      workload::generate_batch(spec, static_cast<std::uint64_t>(cli.get_int("seed")));

  const double deadline = 14000.0;
  const core::Framework framework(batch, platform, reference, deadline);

  // count_feasible saturates at SIZE_MAX.
  const std::size_t space = ra::count_feasible(batch.size(), platform, ra::CountRule::kPowerOfTwo);
  std::printf(
      "search-space size (power-of-2 groups, %zu apps, 3 types): %s%zu feasible allocations\n\n",
      batch.size(), space == std::numeric_limits<std::size_t>::max() ? "at least " : "", space);

  util::Table table({"heuristic", "phi_1", "max E[T]", "procs used", "robust vs degraded?"});
  table.set_alignment({util::Align::kLeft});
  table.set_title("Stage I heuristics on the large instance (deadline " +
                  util::format_fixed(deadline, 0) + ")");
  core::StageTwoConfig config;
  config.replications = static_cast<std::size_t>(cli.get_int("replications"));

  for (const auto& heuristic : ra::all_heuristics(false)) {
    const core::StageOneResult stage1 = framework.run_stage_one(*heuristic);
    double worst = 0.0;
    for (double t : stage1.expected_times) worst = std::max(worst, t);
    const core::StageTwoResult stage2 = framework.run_stage_two(
        stage1.allocation, degraded, dls::paper_robust_set(), config);
    table.add_row({heuristic->name(), util::format_percent(stage1.phi1, 1),
                   util::format_fixed(worst, 0),
                   std::to_string(stage1.allocation.total_processors()) + "/" +
                       std::to_string(platform.total_processors()),
                   stage2.all_meet_deadline ? "yes" : "no"});
  }
  std::puts(table.render().c_str());
  return 0;
}
