#include <gtest/gtest.h>

#include <cmath>

#include "sysmodel/availability.hpp"
#include "sysmodel/cases.hpp"
#include "sysmodel/platform.hpp"

namespace cdsf::sysmodel {
namespace {

// --------------------------------------------------------------- Platform --

TEST(Platform, CountsAndNames) {
  const Platform platform = paper_platform();
  EXPECT_EQ(platform.type_count(), 2u);
  EXPECT_EQ(platform.processors_of_type(0), 4u);
  EXPECT_EQ(platform.processors_of_type(1), 8u);
  EXPECT_EQ(platform.total_processors(), 12u);
  EXPECT_EQ(platform.type(0).name, "type1");
}

TEST(Platform, Validation) {
  EXPECT_THROW(Platform({}), std::invalid_argument);
  EXPECT_THROW(Platform({{"empty", 0}}), std::invalid_argument);
}

// ------------------------------------------------------- AvailabilitySpec --

TEST(AvailabilitySpec, PaperCase1Expectations) {
  const AvailabilitySpec spec = paper_case(1);
  EXPECT_NEAR(spec.expected(0), 0.875, 1e-12);   // Table I: 87.50
  EXPECT_NEAR(spec.expected(1), 0.6875, 1e-12);  // Table I: 68.75
  EXPECT_NEAR(spec.weighted_system_availability(paper_platform()), 0.75, 1e-12);
}

TEST(AvailabilitySpec, PaperCase2Expectations) {
  const AvailabilitySpec spec = paper_case(2);
  EXPECT_NEAR(spec.expected(0), 0.525, 1e-12);
  EXPECT_NEAR(spec.expected(1), 0.5455, 1e-10);
  EXPECT_NEAR(spec.weighted_system_availability(paper_platform()), 0.5387, 1e-4);
}

TEST(AvailabilitySpec, PaperCase4Expectations) {
  const AvailabilitySpec spec = paper_case(4);
  EXPECT_NEAR(spec.expected(0), 0.4125, 1e-12);
  EXPECT_NEAR(spec.expected(1), 0.55, 1e-12);
  EXPECT_NEAR(spec.weighted_system_availability(paper_platform()), 0.5042, 1e-4);
}

TEST(AvailabilitySpec, DecreasesMatchTableOneBrackets) {
  const Platform platform = paper_platform();
  const AvailabilitySpec reference = paper_case(1);
  // Bracketed values of Table I: 28.17%, ~30.8%, 32.77% (case 3 published
  // as 30.77% from unrounded inputs; rounded inputs give 30.89%).
  EXPECT_NEAR(availability_decrease(reference, paper_case(2), platform), 0.2817, 1e-3);
  EXPECT_NEAR(availability_decrease(reference, paper_case(3), platform), 0.308, 2e-3);
  EXPECT_NEAR(availability_decrease(reference, paper_case(4), platform), 0.3277, 1e-3);
}

TEST(AvailabilitySpec, CasesAreOrderedByWeightedAvailability) {
  const Platform platform = paper_platform();
  const auto cases = paper_cases();
  for (std::size_t k = 1; k < cases.size(); ++k) {
    EXPECT_LT(cases[k].weighted_system_availability(platform),
              cases[k - 1].weighted_system_availability(platform));
  }
}

TEST(AvailabilitySpec, Validation) {
  EXPECT_THROW(AvailabilitySpec("x", {}), std::invalid_argument);
  EXPECT_THROW(AvailabilitySpec("x", {pmf::Pmf::delta(0.0)}), std::invalid_argument);
  EXPECT_THROW(AvailabilitySpec("x", {pmf::Pmf::delta(1.5)}), std::invalid_argument);
  const AvailabilitySpec ok("ok", {pmf::Pmf::delta(1.0)});
  EXPECT_THROW(ok.weighted_system_availability(paper_platform()), std::invalid_argument);
  EXPECT_THROW(paper_case(0), std::invalid_argument);
  EXPECT_THROW(paper_case(5), std::invalid_argument);
}

// ---------------------------------------------------- ConstantAvailability --

TEST(ConstantAvailability, FinishTimeScalesWork) {
  ConstantAvailability half(0.5);
  EXPECT_DOUBLE_EQ(half.availability_at(123.0), 0.5);
  EXPECT_DOUBLE_EQ(half.finish_time(10.0, 5.0), 20.0);
  EXPECT_TRUE(std::isinf(half.next_change_after(0.0)));
}

TEST(ConstantAvailability, Validation) {
  EXPECT_THROW(ConstantAvailability(0.0), std::invalid_argument);
  EXPECT_THROW(ConstantAvailability(1.01), std::invalid_argument);
  EXPECT_NO_THROW(ConstantAvailability(1.0));
}

TEST(AvailabilityProcess, WorkDeliveredInvertsFinishTime) {
  ConstantAvailability a(0.75);
  const double end = a.finish_time(3.0, 6.0);
  EXPECT_NEAR(a.work_delivered(3.0, end), 6.0, 1e-12);
  EXPECT_THROW(a.work_delivered(5.0, 4.0), std::invalid_argument);
  EXPECT_THROW(a.finish_time(0.0, -1.0), std::invalid_argument);
}

// ---------------------------------------------------- IidEpochAvailability --

TEST(IidEpoch, PiecewiseConstantWithinEpoch) {
  IidEpochAvailability process(paper_case(1).of_type(1), 100.0, 42);
  const double a0 = process.availability_at(0.0);
  EXPECT_DOUBLE_EQ(process.availability_at(50.0), a0);
  EXPECT_DOUBLE_EQ(process.availability_at(99.999), a0);
  EXPECT_DOUBLE_EQ(process.next_change_after(50.0), 100.0);
}

TEST(IidEpoch, DeterministicAndSeedSensitive) {
  const pmf::Pmf law = paper_case(1).of_type(1);
  IidEpochAvailability a(law, 10.0, 7);
  IidEpochAvailability b(law, 10.0, 7);
  IidEpochAvailability c(law, 10.0, 8);
  bool differs = false;
  for (int e = 0; e < 50; ++e) {
    const double t = e * 10.0 + 1.0;
    EXPECT_DOUBLE_EQ(a.availability_at(t), b.availability_at(t));
    if (a.availability_at(t) != c.availability_at(t)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(IidEpoch, MarginalMatchesLawLongRun) {
  const pmf::Pmf law = paper_case(1).of_type(1);  // {0.75: .5, 1.0: .5}
  IidEpochAvailability process(law, 1.0, 11);
  double sum = 0.0;
  constexpr int kEpochs = 20000;
  for (int e = 0; e < kEpochs; ++e) sum += process.availability_at(e + 0.5);
  EXPECT_NEAR(sum / kEpochs, law.expectation(), 0.005);
}

TEST(IidEpoch, ValuesComeFromSupport) {
  const pmf::Pmf law = paper_case(4).of_type(0);  // {0.33, 0.66}
  IidEpochAvailability process(law, 5.0, 3);
  for (int e = 0; e < 100; ++e) {
    const double a = process.availability_at(e * 5.0 + 0.1);
    EXPECT_TRUE(std::fabs(a - 0.33) < 1e-12 || std::fabs(a - 0.66) < 1e-12);
  }
}

TEST(IidEpoch, FinishTimeIntegratesAcrossEpochs) {
  IidEpochAvailability process(paper_case(1).of_type(0), 10.0, 9);
  const double end = process.finish_time(0.0, 40.0);
  // Work delivered in [0, end] must equal the requested work.
  EXPECT_NEAR(process.work_delivered(0.0, end), 40.0, 1e-9);
  EXPECT_GE(end, 40.0);   // availability <= 1
  EXPECT_LE(end, 60.0);   // availability >= 0.75 in case 1 / type 1
}

TEST(IidEpoch, QueriesMayGoBackward) {
  IidEpochAvailability process(paper_case(1).of_type(1), 10.0, 13);
  const double late = process.availability_at(1000.0);
  const double early = process.availability_at(5.0);
  EXPECT_DOUBLE_EQ(process.availability_at(1000.0), late);  // cached, stable
  EXPECT_DOUBLE_EQ(process.availability_at(5.0), early);
}

TEST(IidEpoch, Validation) {
  const pmf::Pmf law = paper_case(1).of_type(0);
  EXPECT_THROW(IidEpochAvailability(law, 0.0, 1), std::invalid_argument);
  IidEpochAvailability process(law, 1.0, 1);
  EXPECT_THROW(process.availability_at(-1.0), std::invalid_argument);
}

// -------------------------------------------------- MarkovEpochAvailability --

TEST(MarkovEpoch, ZeroPersistenceBehavesLikeIid) {
  const pmf::Pmf law = paper_case(1).of_type(1);
  MarkovEpochAvailability process(law, 1.0, 0.0, 21);
  double sum = 0.0;
  constexpr int kEpochs = 20000;
  for (int e = 0; e < kEpochs; ++e) sum += process.availability_at(e + 0.5);
  EXPECT_NEAR(sum / kEpochs, law.expectation(), 0.005);
}

TEST(MarkovEpoch, HighPersistenceRepeatsValues) {
  const pmf::Pmf law = paper_case(1).of_type(1);
  MarkovEpochAvailability process(law, 1.0, 0.95, 22);
  int changes = 0;
  double prev = process.availability_at(0.5);
  for (int e = 1; e < 2000; ++e) {
    const double a = process.availability_at(e + 0.5);
    if (a != prev) ++changes;
    prev = a;
  }
  // With persistence 0.95 and a 2-point law, changes per epoch = 0.05 * 0.5.
  EXPECT_LT(changes, 150);
  EXPECT_GT(changes, 10);
}

TEST(MarkovEpoch, Validation) {
  const pmf::Pmf law = paper_case(1).of_type(0);
  EXPECT_THROW(MarkovEpochAvailability(law, 1.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(MarkovEpochAvailability(law, 1.0, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(MarkovEpochAvailability(law, 0.0, 0.5, 1), std::invalid_argument);
}

// -------------------------------------------------------- TraceAvailability --

TEST(Trace, StepsAtGivenTimes) {
  TraceAvailability trace({0.0, 10.0, 20.0}, {1.0, 0.5, 0.25});
  EXPECT_DOUBLE_EQ(trace.availability_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.availability_at(9.999), 1.0);
  EXPECT_DOUBLE_EQ(trace.availability_at(10.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.availability_at(1000.0), 0.25);
  EXPECT_DOUBLE_EQ(trace.next_change_after(0.0), 10.0);
  EXPECT_DOUBLE_EQ(trace.next_change_after(10.0), 20.0);
  EXPECT_TRUE(std::isinf(trace.next_change_after(20.0)));
}

TEST(Trace, NextChangeAfterBoundaries) {
  TraceAvailability trace({0.0, 10.0, 20.0}, {1.0, 0.5, 0.25});
  // Before the first point: the first point itself is the next change.
  EXPECT_EQ(trace.next_change_after(-1.0), 0.0);
  // Exactly on a point: the change strictly after it.
  EXPECT_EQ(trace.next_change_after(0.0), 10.0);
  EXPECT_EQ(trace.next_change_after(10.0), 20.0);
  EXPECT_EQ(trace.next_change_after(std::nextafter(10.0, 0.0)), 10.0);
  EXPECT_EQ(trace.next_change_after(15.0), 20.0);
  // On and after the last point: no further change.
  EXPECT_TRUE(std::isinf(trace.next_change_after(20.0)));
  EXPECT_TRUE(std::isinf(trace.next_change_after(1e12)));
}

TEST(Trace, NextChangeAfterMatchesLinearScan) {
  std::vector<double> times;
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    times.push_back(static_cast<double>(i) * 1.5 + (i % 3 == 0 ? 0.0 : 0.25));
    values.push_back(i % 2 == 0 ? 1.0 : 0.5);
  }
  times.front() = 0.0;
  TraceAvailability trace(times, values);
  for (double t = -1.0; t < 310.0; t += 0.125) {
    double expected = std::numeric_limits<double>::infinity();
    for (double tp : times) {
      if (tp > t) {
        expected = tp;
        break;
      }
    }
    EXPECT_EQ(trace.next_change_after(t), expected) << "t = " << t;
  }
}

TEST(Trace, FinishTimeCrossesSteps) {
  TraceAvailability trace({0.0, 10.0}, {1.0, 0.5});
  // 15 units of work: 10 delivered in [0, 10], remaining 5 at rate 0.5.
  EXPECT_DOUBLE_EQ(trace.finish_time(0.0, 15.0), 20.0);
}

TEST(Trace, Validation) {
  EXPECT_THROW(TraceAvailability({}, {}), std::invalid_argument);
  EXPECT_THROW(TraceAvailability({1.0}, {0.5}), std::invalid_argument);        // must start at 0
  EXPECT_THROW(TraceAvailability({0.0, 0.0}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(TraceAvailability({0.0}, {0.0}), std::invalid_argument);        // value > 0
  EXPECT_THROW(TraceAvailability({0.0}, {0.5, 0.6}), std::invalid_argument);   // size mismatch
}

// ----------------------------------------------------- FailingAvailability --

TEST(Failing, FailureAtTimeZeroIsResidualFromTheStart) {
  FailingAvailability process(std::make_unique<ConstantAvailability>(1.0), 0.0, 0.25);
  EXPECT_DOUBLE_EQ(process.availability_at(0.0), 0.25);
  EXPECT_DOUBLE_EQ(process.availability_at(100.0), 0.25);
  EXPECT_DOUBLE_EQ(process.finish_time(0.0, 1.0), 4.0);
}

TEST(Failing, ResidualExactlyOneIsAccepted) {
  // residual = 1.0 sits ON the boundary of (0, 1]: a "failure" to full
  // availability is legal (and a no-op once the inner process is constant).
  FailingAvailability process(std::make_unique<ConstantAvailability>(0.5), 10.0, 1.0);
  EXPECT_DOUBLE_EQ(process.availability_at(9.9), 0.5);
  EXPECT_DOUBLE_EQ(process.availability_at(10.0), 1.0);
}

TEST(Failing, TinyResidualStillDeliversWork) {
  // The lower boundary is open: any residual > 0 keeps the work integral
  // finite (this is what distinguishes degrade from crash).
  FailingAvailability process(std::make_unique<ConstantAvailability>(1.0), 1.0, 1e-9);
  const double finish = process.finish_time(0.0, 2.0);
  EXPECT_TRUE(std::isfinite(finish));
  EXPECT_NEAR(process.work_delivered(0.0, finish), 2.0, 1e-9);
}

TEST(Failing, RejectsResidualOutsideUnitInterval) {
  EXPECT_THROW(FailingAvailability(std::make_unique<ConstantAvailability>(1.0), 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(FailingAvailability(std::make_unique<ConstantAvailability>(1.0), 1.0, -0.1),
               std::invalid_argument);
  EXPECT_THROW(FailingAvailability(std::make_unique<ConstantAvailability>(1.0), 1.0, 1.1),
               std::invalid_argument);
}

// ---------------------------------------------------- CrashingAvailability --

TEST(Crashing, PermanentCrashDeliversNothingAfterCrashTime) {
  CrashingAvailability process(std::make_unique<ConstantAvailability>(1.0), 5.0);
  EXPECT_DOUBLE_EQ(process.availability_at(4.999), 1.0);
  EXPECT_DOUBLE_EQ(process.availability_at(5.0), 0.0);
  EXPECT_FALSE(process.is_down(4.999));
  EXPECT_TRUE(process.is_down(5.0));
  EXPECT_TRUE(std::isinf(process.recovery_time()));
  // Work that cannot complete before the crash never completes.
  EXPECT_DOUBLE_EQ(process.finish_time(0.0, 5.0), 5.0);
  EXPECT_TRUE(std::isinf(process.finish_time(0.0, 5.0 + 1e-9)));
  EXPECT_DOUBLE_EQ(process.work_delivered(0.0, 100.0), 5.0);
}

TEST(Crashing, RecoveryResumesTheInnerProcess) {
  CrashingAvailability process(std::make_unique<ConstantAvailability>(0.5), 10.0, 20.0);
  EXPECT_DOUBLE_EQ(process.availability_at(15.0), 0.0);
  EXPECT_DOUBLE_EQ(process.availability_at(20.0), 0.5);
  EXPECT_FALSE(process.is_down(20.0));
  // 6 work units from t = 0 at rate 0.5: 5 delivered by t = 10, the outage
  // [10, 20) delivers nothing, the last unit takes 2 more time units.
  EXPECT_DOUBLE_EQ(process.finish_time(0.0, 6.0), 22.0);
  EXPECT_DOUBLE_EQ(process.next_change_after(12.0), 20.0);
  EXPECT_DOUBLE_EQ(process.next_change_after(0.0), 10.0);
}

TEST(Crashing, Validation) {
  EXPECT_THROW(CrashingAvailability(nullptr, 1.0), std::invalid_argument);
  EXPECT_THROW(CrashingAvailability(std::make_unique<ConstantAvailability>(1.0), -1.0),
               std::invalid_argument);
  EXPECT_THROW(CrashingAvailability(std::make_unique<ConstantAvailability>(1.0), 5.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(CrashingAvailability(std::make_unique<ConstantAvailability>(1.0), 5.0, 4.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cdsf::sysmodel
