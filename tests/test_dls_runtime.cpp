// Tests for the real shared-memory DLS runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "dls/runtime.hpp"

namespace cdsf::dls {
namespace {

TEST(Runtime, EveryIndexExecutedExactlyOnce) {
  constexpr std::int64_t kN = 5000;
  for (TechniqueId id : {TechniqueId::kStatic, TechniqueId::kSS, TechniqueId::kGSS,
                         TechniqueId::kFAC, TechniqueId::kAF}) {
    std::vector<std::atomic<int>> visits(kN);
    const RuntimeResult result = run_parallel_loop(
        kN, id, [&](std::int64_t i) { ++visits[static_cast<std::size_t>(i)]; }, 4);
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << technique_name(id) << " i=" << i;
    }
    std::int64_t executed = 0;
    for (const RuntimeWorkerStats& w : result.workers) executed += w.iterations;
    EXPECT_EQ(executed, kN) << technique_name(id);
  }
}

TEST(Runtime, AllSixteenTechniquesCompleteAConcurrentSum) {
  constexpr std::int64_t kN = 2000;
  for (TechniqueId id : all_techniques()) {
    std::atomic<std::int64_t> sum{0};
    const RuntimeResult result =
        run_parallel_loop(kN, id, [&](std::int64_t i) { sum += i; }, 3);
    EXPECT_EQ(sum.load(), kN * (kN - 1) / 2) << technique_name(id);
    EXPECT_GT(result.total_chunks, 0u) << technique_name(id);
    EXPECT_GE(result.elapsed_seconds, 0.0);
  }
}

TEST(Runtime, SingleThreadIsSequential) {
  // With one worker, indices must arrive in strictly increasing order.
  std::int64_t last = -1;
  bool ordered = true;
  (void)run_parallel_loop(
      1000, TechniqueId::kFAC,
      [&](std::int64_t i) {
        if (i != last + 1) ordered = false;
        last = i;
      },
      1);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(last, 999);
}

TEST(Runtime, StaticSharesMatchTheoreticalSplit) {
  const RuntimeResult result =
      run_parallel_loop(1000, TechniqueId::kStatic, [](std::int64_t) {}, 4);
  ASSERT_EQ(result.workers.size(), 4u);
  for (const RuntimeWorkerStats& w : result.workers) {
    EXPECT_EQ(w.chunks, 1u);
    EXPECT_EQ(w.iterations, 250);
  }
}

TEST(Runtime, ChunkCountsMatchTechniqueCharacter) {
  constexpr std::int64_t kN = 4096;
  const RuntimeResult ss = run_parallel_loop(kN, TechniqueId::kSS, [](std::int64_t) {}, 4);
  const RuntimeResult fac = run_parallel_loop(kN, TechniqueId::kFAC, [](std::int64_t) {}, 4);
  EXPECT_EQ(ss.total_chunks, static_cast<std::uint64_t>(kN));
  EXPECT_LT(fac.total_chunks, 100u);
}

TEST(Runtime, AdaptiveBalancesASkewedRealLoop) {
  // Iteration cost grows with the index (real computation, real threads).
  // STATIC's contiguous shares leave the last worker with the expensive
  // tail; AF rebalances. Compare compute-time imbalance, which is a
  // machine-speed-independent signal (wall-clock comparisons would flake).
  // Timing-based balance is only meaningful with real parallel hardware:
  // on a single core, per-chunk wall time measures the OS scheduler's
  // interleaving, not the DLS policy.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads for meaningful chunk timings";
  }
  // The loop must outlast thread start-up by far: on a loaded or virtualized
  // host a woken thread can wait a millisecond or more for a CPU, and a loop
  // of ~2 ms (kN = 1200) let the calling thread run all of AF's work alone
  // (imbalance 4.0). At this size each run takes ~0.1-0.4 s.
  constexpr std::int64_t kN = 15000;
  auto busy_work = [](std::int64_t i) {
    volatile double x = 0.0;
    const std::int64_t rounds = 20 + i;  // linearly increasing cost
    for (std::int64_t r = 0; r < rounds; ++r) x = x + std::sqrt(static_cast<double>(r + 1));
  };
  const RuntimeResult stat = run_parallel_loop(kN, TechniqueId::kStatic, busy_work, 4);
  const RuntimeResult af = run_parallel_loop(kN, TechniqueId::kAF, busy_work, 4);
  EXPECT_GT(stat.imbalance(), 1.25);  // last share ~1.75x the mean
  EXPECT_LT(af.imbalance(), stat.imbalance());
}

TEST(Runtime, BodyExceptionsPropagateAndStopTheLoop) {
  std::atomic<std::int64_t> executed{0};
  EXPECT_THROW(
      (void)run_parallel_loop(
          100000, TechniqueId::kSS,
          [&](std::int64_t i) {
            if (i == 10) throw std::runtime_error("boom");
            ++executed;
          },
          4),
      std::runtime_error);
  // The pool is poisoned after the throw; far fewer than all iterations ran.
  EXPECT_LT(executed.load(), 100000);
}

TEST(Runtime, Validation) {
  EXPECT_THROW((void)run_parallel_loop(0, TechniqueId::kSS, [](std::int64_t) {}, 2),
               std::invalid_argument);
}

TEST(Runtime, CallerBuiltTechniqueVariant) {
  TechniqueParams params;
  params.workers = 3;
  params.total_iterations = 500;
  const auto technique = make_technique(TechniqueId::kTSS, params);
  std::atomic<std::int64_t> count{0};
  const RuntimeResult result =
      run_parallel_loop(500, *technique, [&](std::int64_t) { ++count; }, 3);
  EXPECT_EQ(count.load(), 500);
  EXPECT_EQ(result.workers.size(), 3u);
}

}  // namespace
}  // namespace cdsf::dls
