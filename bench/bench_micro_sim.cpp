// Micro-benchmarks (google-benchmark) for the discrete-event loop
// simulator and the Stage I robustness evaluation — the two hot paths of
// every experiment in this repository.
#include <benchmark/benchmark.h>

#include <functional>

#include "cdsf/paper_example.hpp"
#include "dls/adaptive.hpp"
#include "ra/heuristics.hpp"
#include "sim/engine.hpp"
#include "sim/loop_executor.hpp"
#include "util/rng.hpp"

namespace {

using namespace cdsf;

void BM_SimulateLoopApp3(benchmark::State& state) {
  const core::PaperExample example = core::make_paper_example();
  const auto id = static_cast<dls::TechniqueId>(state.range(0));
  const sim::SimConfig config;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_loop(example.batch.at(2), 1, 8, example.cases.front(), id, config,
                           seed++));
  }
  state.SetLabel(dls::technique_name(id));
}
BENCHMARK(BM_SimulateLoopApp3)
    ->Arg(static_cast<int>(dls::TechniqueId::kStatic))
    ->Arg(static_cast<int>(dls::TechniqueId::kSS))
    ->Arg(static_cast<int>(dls::TechniqueId::kFAC))
    ->Arg(static_cast<int>(dls::TechniqueId::kAWF_B))
    ->Arg(static_cast<int>(dls::TechniqueId::kAF));

void BM_StageOneExhaustive(benchmark::State& state) {
  const core::PaperExample example = core::make_paper_example();
  for (auto _ : state) {
    // Fresh evaluator per iteration: measures the uncached search cost.
    ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(), example.deadline);
    benchmark::DoNotOptimize(ra::ExhaustiveOptimal().allocate(
        evaluator, example.platform, ra::CountRule::kPowerOfTwo));
  }
}
BENCHMARK(BM_StageOneExhaustive);

void BM_JointProbabilityCached(benchmark::State& state) {
  const core::PaperExample example = core::make_paper_example();
  ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(), example.deadline);
  const ra::Allocation allocation = core::paper_robust_allocation();
  (void)evaluator.joint_probability(allocation);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.joint_probability(allocation));
  }
}
BENCHMARK(BM_JointProbabilityCached);

void BM_EventEngineThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t count = 0;
    std::function<void()> chain = [&] {
      if (++count < 10000) engine.schedule_after(1.0, chain);
    };
    engine.schedule_at(0.0, chain);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_EventEngineThroughput);

// Per-replication RNG cost: every simulated run builds 1 + 2P streams
// (run, worker and availability) and most draw only a few dozen words, so
// set-up is a large share of a stream's cost.
void BM_RngStreamSetup(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::RngStream rng(seed++);
    double sum = 0.0;
    for (int i = 0; i < 64; ++i) sum += rng.uniform01();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RngStreamSetup);

// The draw behind simulated iteration noise (sample_work: one per chunk,
// or one per iteration in chunks of up to 32): 64 normal variates per
// iteration from one long-lived stream.
void BM_RngNormal(benchmark::State& state) {
  util::RngStream rng(2012);
  double mean = 1.0;
  for (auto _ : state) {
    double sum = 0.0;
    for (int i = 0; i < 64; ++i) sum += rng.normal(mean, 0.25);
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(mean);
  }
}
BENCHMARK(BM_RngNormal);

// AF's per-chunk cost once every worker is measured: the bisection for the
// batch target time over all workers' (mu, sigma) estimates.
void BM_AfNextChunk(benchmark::State& state) {
  constexpr std::size_t kWorkers = 8;
  dls::TechniqueParams params;
  params.workers = kWorkers;
  params.total_iterations = 100000;
  dls::AdaptiveFactoring technique(params);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (int c = 1; c <= 3; ++c) {
      const double per_iteration = 1.0 + 0.25 * static_cast<double>(w) + 0.1 * c;
      technique.record(dls::ChunkResult{w, 100, 100.0 * per_iteration, 100.0 * per_iteration});
    }
  }
  std::int64_t remaining = params.total_iterations;
  std::size_t worker = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(technique.next_chunk(dls::SchedulingContext{remaining, worker, 0.0}));
    worker = (worker + 1) % kWorkers;
    remaining = remaining > 1000 ? remaining - 7 : params.total_iterations;
  }
}
BENCHMARK(BM_AfNextChunk);

}  // namespace

BENCHMARK_MAIN();
