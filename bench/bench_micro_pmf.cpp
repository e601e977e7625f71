// Micro-benchmarks (google-benchmark) for the PMF engine — the inner loop
// of Stage I's exhaustive and heuristic searches.
#include <benchmark/benchmark.h>

#include "pmf/discretize.hpp"
#include "pmf/ops.hpp"
#include "pmf/pmf.hpp"
#include "stats/distribution.hpp"
#include "util/rng.hpp"

namespace {

using namespace cdsf;

pmf::Pmf make_pmf(std::size_t pulses, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<pmf::Pulse> out;
  out.reserve(pulses);
  for (std::size_t i = 0; i < pulses; ++i) {
    out.push_back({rng.uniform(1.0, 1000.0), rng.uniform(0.01, 1.0)});
  }
  return pmf::Pmf::from_pulses(std::move(out));
}

void BM_PmfConstruction(benchmark::State& state) {
  const auto pulses = static_cast<std::size_t>(state.range(0));
  util::RngStream rng(1);
  std::vector<pmf::Pulse> raw;
  raw.reserve(pulses);
  for (std::size_t i = 0; i < pulses; ++i) {
    raw.push_back({rng.uniform(1.0, 1000.0), rng.uniform(0.01, 1.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf::Pmf::from_pulses(raw));
  }
}
BENCHMARK(BM_PmfConstruction)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ConvolveSum(benchmark::State& state) {
  const pmf::Pmf a = make_pmf(static_cast<std::size_t>(state.range(0)), 2);
  const pmf::Pmf b = make_pmf(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf::convolve_sum(a, b));
  }
}
BENCHMARK(BM_ConvolveSum)->Arg(16)->Arg(64)->Arg(128);

void BM_ApplyAvailability(benchmark::State& state) {
  const pmf::Pmf time = make_pmf(static_cast<std::size_t>(state.range(0)), 4);
  const pmf::Pmf avail = pmf::Pmf::from_pulses({{0.25, 0.25}, {0.5, 0.25}, {1.0, 0.5}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf::apply_availability(time, avail));
  }
}
BENCHMARK(BM_ApplyAvailability)->Arg(16)->Arg(64)->Arg(256);

// The large_stage1 completion: a 64-pulse time PMF over a 64-level
// availability PMF gives 4096 pulses, compacted to the 2048-pulse budget.
pmf::Pmf make_availability64() {
  util::RngStream rng(9);
  std::vector<pmf::Pulse> levels;
  levels.reserve(64);
  for (std::size_t i = 0; i < 64; ++i) {
    levels.push_back({rng.uniform(0.05, 1.0), rng.uniform(0.01, 1.0)});
  }
  return pmf::Pmf::from_pulses(std::move(levels));
}

void BM_CompletionPmf(benchmark::State& state) {
  const pmf::Pmf time = make_pmf(64, 8);
  const pmf::Pmf availability = make_availability64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf::apply_availability(time, availability, 2048));
  }
}
BENCHMARK(BM_CompletionPmf);

// BM_CompletionPmf's compaction alone: the uncompacted 4096-pulse t/a
// product cut to 2048.
void BM_CompactionTaProduct(benchmark::State& state) {
  const pmf::Pmf product = pmf::apply_availability(make_pmf(64, 8), make_availability64(), 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(product.compacted(2048));
  }
}
BENCHMARK(BM_CompactionTaProduct);

void BM_IndependentMax(benchmark::State& state) {
  const pmf::Pmf a = make_pmf(static_cast<std::size_t>(state.range(0)), 5);
  const pmf::Pmf b = make_pmf(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf::independent_max(a, b));
  }
}
BENCHMARK(BM_IndependentMax)->Arg(64)->Arg(512);

void BM_Compaction(benchmark::State& state) {
  const pmf::Pmf big = make_pmf(2048, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.compacted(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_Compaction)->Arg(512)->Arg(64);

void BM_DiscretizeQuantile(benchmark::State& state) {
  const stats::Normal dist(1800.0, 180.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pmf::discretize_quantile(dist, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_DiscretizeQuantile)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
