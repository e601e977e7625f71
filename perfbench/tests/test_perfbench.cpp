// The benchmark's own tests: span self-time arithmetic, the tail
// percentile rule, deterministic work counts, and the output oracle.
// Build and run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <filesystem>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Span make_span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

std::string scratch_dir() {
  const std::string dir = "perfbench-test-scratch";
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  // root [0,100] with children [10,40] and [30,60] (overlapping) and a
  // grandchild [15,20] inside the first child.
  const std::vector<Span> spans = {make_span("root", 0, 100, -1), make_span("a", 10, 40, 0),
                                   make_span("b", 30, 60, 0), make_span("a.x", 15, 20, 1)};
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 50e-9);  // 100 - |[10,60]|
  EXPECT_DOUBLE_EQ(self[1], 25e-9);  // 30 - 5
  EXPECT_DOUBLE_EQ(self[2], 30e-9);
  EXPECT_DOUBLE_EQ(self[3], 5e-9);
}

TEST(SelfTime, ClipsChildrenToTheParentInterval) {
  const std::vector<Span> spans = {make_span("root", 10, 20, -1), make_span("late", 15, 30, 0)};
  EXPECT_DOUBLE_EQ(self_seconds(spans)[0], 5e-9);
}

TEST(SelfTime, RecordedSelfTimesSumToTheRootDuration) {
  SpanRecorder recorder;
  recorder.set_op(7);
  {
    SpanScope root(&recorder, "root");
    { SpanScope child(&recorder, "child"); }
    {
      SpanScope child(&recorder, "child");
      SpanScope grandchild(&recorder, "grandchild");
    }
  }
  const std::vector<Span>& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[3].op, 7u);
  double sum = 0.0;
  for (const double self : self_seconds(spans)) sum += self;
  EXPECT_NEAR(sum, static_cast<double>(spans[0].end_ns - spans[0].start_ns) * 1e-9, 1e-12);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const std::optional<TailPick> pick = tail_percentile(samples, 10);
  ASSERT_TRUE(pick.has_value());
  EXPECT_DOUBLE_EQ(pick->value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(pick->percentile, 90.0);
  EXPECT_EQ(pick->samples, 100u);
  EXPECT_EQ(pick->beyond, 10u);
}

TEST(TailPercentile, NeedsBeyondPlusOneSamples) {
  std::vector<double> samples(10, 1.0);
  EXPECT_FALSE(tail_percentile(samples, 10).has_value());
  samples.push_back(0.5);
  const std::optional<TailPick> pick = tail_percentile(samples, 10);
  ASSERT_TRUE(pick.has_value());
  EXPECT_DOUBLE_EQ(pick->value, 0.5);  // the minimum of eleven samples
  EXPECT_DOUBLE_EQ(pick->percentile, 100.0 / 11.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

class TracedCounts : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(TracedCounts, RepeatAcrossRunsAndMatchTheUntracedBytes) {
  const WorkloadId id = GetParam();
  constexpr std::uint64_t kSeed = 3;
  Workload first(id, kSeed, scratch_dir());
  Workload second(id, kSeed, scratch_dir());
  SpanRecorder trace_a;
  SpanRecorder trace_b;
  const OpOutput a = first.run(0, &trace_a);
  const OpOutput b = second.run(0, &trace_b);
  ASSERT_EQ(a.error, "");
  EXPECT_TRUE(a.counts == b.counts);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(first.check(0, a), "");
  const OpOutput untraced = first.run(0, nullptr);
  EXPECT_EQ(untraced.bytes, a.bytes);
  EXPECT_EQ(first.check(0, untraced), "");

  EXPECT_GT(a.counts.completions, 0);
  EXPECT_GT(a.counts.sim_chunks, 0);
  EXPECT_GT(a.counts.replications, 0);
  if (id == WorkloadId::kLargeStage1) {
    EXPECT_EQ(a.counts.compacted, a.counts.completions);
    EXPECT_EQ(a.counts.feasible_space, 278236);
  } else {
    EXPECT_EQ(a.counts.compacted, 0);
  }
  if (id == WorkloadId::kServiceFaults) {
    EXPECT_EQ(a.counts.delivered, 16);
    EXPECT_GE(a.counts.attempts, 16);
    EXPECT_EQ(a.counts.journal_records, 32);  // accepted + completed per request
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedCounts,
                         ::testing::Values(WorkloadId::kPaper, WorkloadId::kLargeStage1,
                                           WorkloadId::kServiceFaults),
                         [](const auto& suite) {
                           return std::string(workload_name(suite.param));
                         });

TEST(Oracle, RejectsAPerturbedReportAtTheDefaultSeed) {
  Workload workload(WorkloadId::kPaper, kDefaultSeed, scratch_dir());
  OpOutput output = workload.run(0, nullptr);
  ASSERT_EQ(workload.check(0, output), "");
  output.bytes[output.bytes.size() / 2] ^= 1;
  EXPECT_NE(workload.check(0, output), "");
  // A fresh oracle has no earlier bytes to compare with; the recorded
  // digest alone must catch it.
  Workload fresh(WorkloadId::kPaper, kDefaultSeed, scratch_dir());
  EXPECT_NE(fresh.check(0, output), "");
}

TEST(Oracle, RejectsAPerturbedRepeatOnOtherSeeds) {
  Workload workload(WorkloadId::kPaper, 5, scratch_dir());
  OpOutput output = workload.run(2, nullptr);
  ASSERT_EQ(workload.check(2, output), "");
  output.bytes.back() = ' ';
  EXPECT_NE(workload.check(2 + kSolveSlots, output), "");
}

TEST(Oracle, RejectsAStreamThatDiffersFromTheSerialRun) {
  Workload workload(WorkloadId::kServiceFaults, 5, scratch_dir());
  OpOutput output = workload.run(0, nullptr);
  output.bytes += " ";
  // The first output of the slot is the perturbed one, so only the
  // solve_threads = 1 comparison can reject it.
  EXPECT_NE(workload.check(0, output), "");
}

TEST(Oracle, ChecksThePaperStageOneResult) {
  cdsf::core::StageOneResult stage_one;
  stage_one.allocation = cdsf::ra::Allocation({{0, 2}, {0, 2}, {1, 8}});
  stage_one.phi1 = 0.7460938;
  EXPECT_EQ(check_paper_stage_one(stage_one), "");
  stage_one.phi1 = 0.7461;
  EXPECT_NE(check_paper_stage_one(stage_one), "");
  stage_one.phi1 = 0.7460938;
  stage_one.allocation = cdsf::ra::Allocation({{0, 2}, {0, 2}, {1, 4}});
  EXPECT_NE(check_paper_stage_one(stage_one), "");
}

TEST(Oracle, CountsAnOperationErrorAsAFailure) {
  Workload workload(WorkloadId::kPaper, kDefaultSeed, scratch_dir());
  OpOutput output = workload.run(0, nullptr);
  output.error = "stage one mismatch";
  EXPECT_EQ(workload.check(0, output), "stage one mismatch");
}

}  // namespace
}  // namespace perfbench
