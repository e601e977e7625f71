// Tests for the message-passing master-worker model and failure injection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdsf/paper_example.hpp"
#include "obs/report.hpp"
#include "sim/master_worker.hpp"
#include "sysmodel/cases.hpp"
#include "test_support.hpp"

namespace cdsf::sim {
namespace {

using test::full_availability;
using test::simple_app;

SimConfig deterministic_config() {
  SimConfig config;
  config.scheduling_overhead = 0.0;
  config.iteration_cov = 0.0;
  config.availability_mode = AvailabilityMode::kConstantMean;
  return config;
}

// -------------------------------------------- reduction to the ideal model --

/// Everything a run reports, rendered for an exact cross-executor compare:
/// the JSON report, every chunk-trace entry, every lifecycle event, and
/// the flight recorder's per-worker summaries.
std::string observable(const RunResult& run) {
  std::string out = obs::to_json(run).dump();
  const auto add = [&out](auto value) { out += ' ' + std::to_string(value); };
  for (const ChunkTraceEntry& e : run.trace) {
    out += "\nchunk";
    add(e.worker);
    add(e.iterations);
    add(e.first);
    out += ' ' + obs::Json(e.dispatch_time).dump() + ' ' + obs::Json(e.start_time).dump() +
           ' ' + obs::Json(e.end_time).dump();
    add(static_cast<int>(e.lost) | static_cast<int>(e.speculative) << 1 |
        static_cast<int>(e.cancelled) << 2 | static_cast<int>(e.retransmitted) << 3 |
        static_cast<int>(e.audit) << 4 | static_cast<int>(e.probe) << 5);
  }
  for (const LifecycleEvent& e : run.events) {
    out += "\nevent";
    add(static_cast<int>(e.kind));
    out += ' ' + obs::Json(e.time).dump();
    add(e.worker);
    add(e.value);
  }
  for (const obs::FlightWorkerSummary& w : run.flight.workers) {
    out += "\nflight " + w.state + ' ' + w.last_event + ' ' + obs::Json(w.last_event_time).dump();
    add(w.recorded);
    add(w.dropped);
    add(w.accepted);
    add(w.lost);
  }
  return out;
}

TEST(MpiModel, ZeroCostsReduceToIdealExecutor) {
  const auto app = simple_app("a", 100, 900, {1000.0});
  const MessageModel free_messages{0.0, 0.0};
  for (dls::TechniqueId id :
       {dls::TechniqueId::kStatic, dls::TechniqueId::kFAC, dls::TechniqueId::kAF}) {
    const RunResult ideal = simulate_loop(app, 0, 4, full_availability(1), id,
                                          deterministic_config(), 3);
    const MpiRunResult mpi = simulate_loop_mpi(app, 0, 4, full_availability(1), id,
                                               deterministic_config(), free_messages, 3);
    EXPECT_NEAR(mpi.run.makespan, ideal.makespan, 1e-9) << dls::technique_name(id);
    EXPECT_EQ(mpi.run.total_chunks, ideal.total_chunks) << dls::technique_name(id);
  }

  // The differential oracle: with no message cost and no dispatch overhead
  // both executors run one chunk lifecycle, so every output matches
  // exactly, gray-failure machinery included. Speculation and crash kinds
  // are deliberately left out: straggler thresholds, crash detection (a
  // timeout in the MPI model, instantaneous in the idealized one), the
  // lost-chunk predicate and the flight crash events still differ by
  // design between the two transports.
  enum class Mode { kPlain, kAudits, kDegradeQuarantine, kSilentCorruptAudits };
  const core::PaperExample paper = core::make_paper_example();
  std::size_t compared = 0;
  std::uint64_t audits = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t fail_slow_trips = 0;
  std::uint64_t audit_trips = 0;
  for (dls::TechniqueId id : dls::all_techniques()) {
    for (int paper_case = 1; paper_case <= 4; ++paper_case) {
      const sysmodel::AvailabilitySpec spec = sysmodel::paper_case(paper_case);
      const workload::Application& application =
          paper.batch.at(static_cast<std::size_t>(paper_case - 1) % 3);
      const std::size_t type = static_cast<std::size_t>(paper_case - 1) % 2;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SimConfig base;
        base.scheduling_overhead = 0.0;
        base.collect_trace = true;
        base.availability_mode =
            seed % 2 == 0 ? AvailabilityMode::kIidEpoch : AvailabilityMode::kMarkovEpoch;
        const RunResult plain = simulate_loop(application, type, 8, spec, id, base, seed);
        // Failures strike inside the parallel phase.
        const double onset = plain.serial_end + 0.3 * (plain.makespan - plain.serial_end);
        for (Mode mode : {Mode::kPlain, Mode::kAudits, Mode::kDegradeQuarantine,
                          Mode::kSilentCorruptAudits}) {
          SimConfig config = base;
          SimConfig::Failure failure;
          failure.worker = 2;
          failure.time = onset;
          switch (mode) {
            case Mode::kPlain:
              break;
            case Mode::kAudits:
              config.quarantine.enabled = true;
              config.quarantine.audit_rate = 0.2;
              break;
            case Mode::kDegradeQuarantine:
              config.quarantine.enabled = true;
              failure.kind = SimConfig::FailureKind::kDegrade;
              failure.residual_availability = 0.1;
              config.failures.push_back(failure);
              break;
            case Mode::kSilentCorruptAudits:
              config.quarantine.enabled = true;
              config.quarantine.audit_rate = 0.2;
              failure.kind = SimConfig::FailureKind::kSilentCorrupt;
              failure.corrupt_probability = 0.5;
              config.failures.push_back(failure);
              break;
          }
          const RunResult ideal = simulate_loop(application, type, 8, spec, id, config, seed);
          const MpiRunResult mpi =
              simulate_loop_mpi(application, type, 8, spec, id, config, free_messages, seed);
          ASSERT_EQ(observable(mpi.run), observable(ideal))
              << dls::technique_name(id) << " case " << paper_case << " seed " << seed
              << " mode " << static_cast<int>(mode);
          ++compared;
          audits += ideal.quarantine.audits_launched;
          mismatches += ideal.quarantine.audit_mismatches;
          fail_slow_trips += ideal.quarantine.fail_slow_trips;
          audit_trips += ideal.quarantine.audit_trips;
        }
      }
    }
  }
  EXPECT_EQ(compared, dls::all_techniques().size() * 4 * 5 * 4);
  EXPECT_GT(audits, 0U);
  EXPECT_GT(mismatches, 0U);
  EXPECT_GT(fail_slow_trips, 0U);
  EXPECT_GT(audit_trips, 0U);
}

TEST(MpiModel, LatencyDelaysEveryChunk) {
  const auto app = simple_app("a", 0, 1000, {1000.0});
  const MessageModel slow{5.0, 0.0};
  const MpiRunResult with_latency = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                      dls::TechniqueId::kFAC,
                                                      deterministic_config(), slow, 3);
  const MpiRunResult without = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                 dls::TechniqueId::kFAC,
                                                 deterministic_config(), {0.0, 0.0}, 3);
  EXPECT_GT(with_latency.run.makespan, without.run.makespan);
  // Each chunk costs >= 2 latencies (request + assign) on its critical path.
  const double per_worker_chunks = 250.0 / 125.0;  // FAC: ~5-6 chunks per worker
  EXPECT_GT(with_latency.run.makespan - without.run.makespan, 2.0 * 5.0 * per_worker_chunks);
}

TEST(MpiModel, MasterAccountingIsConsistent) {
  const auto app = simple_app("a", 0, 500, {500.0});
  const MessageModel messages{0.5, 0.2};
  const MpiRunResult result = simulate_loop_mpi(app, 0, 4, full_availability(1),
                                                dls::TechniqueId::kGSS,
                                                deterministic_config(), messages, 7);
  // One request per chunk, plus one final "no work" request per worker.
  EXPECT_EQ(result.master.requests_handled, result.run.total_chunks + 4);
  EXPECT_NEAR(result.master.busy_time,
              0.2 * static_cast<double>(result.master.requests_handled), 1e-9);
  EXPECT_GE(result.master.queue_wait_time, 0.0);
  EXPECT_GE(result.master.max_queue_wait, 0.0);
}

TEST(MpiModel, AllIterationsExecutedExactlyOnce) {
  const auto app = simple_app("a", 10, 990, {1000.0});
  const MessageModel messages{0.3, 0.1};
  for (dls::TechniqueId id : dls::all_techniques()) {
    SimConfig config;
    config.iteration_cov = 0.2;
    const MpiRunResult result =
        simulate_loop_mpi(app, 0, 4, sysmodel::paper_case(1), id, config, messages, 11);
    std::int64_t total = 0;
    for (const WorkerStats& w : result.run.workers) total += w.iterations;
    EXPECT_EQ(total, 990) << dls::technique_name(id);
  }
}

TEST(MpiModel, SelfSchedulingSaturatesTheMaster) {
  // 16 workers, tiny iterations, nonzero service time: SS floods the master
  // (one request per iteration) while FAC's requests are sparse. The master
  // queue wait must dominate for SS and the makespan gap must be large.
  const auto app = simple_app("a", 0, 4000, {400.0});  // 0.1 per iteration
  const MessageModel messages{0.05, 0.05};
  const MpiRunResult ss = simulate_loop_mpi(app, 0, 16, full_availability(1),
                                            dls::TechniqueId::kSS, deterministic_config(),
                                            messages, 5);
  const MpiRunResult fac = simulate_loop_mpi(app, 0, 16, full_availability(1),
                                             dls::TechniqueId::kFAC, deterministic_config(),
                                             messages, 5);
  EXPECT_GT(ss.master.queue_wait_time, 50.0 * fac.master.queue_wait_time);
  EXPECT_GT(ss.run.makespan, 2.0 * fac.run.makespan);
  // SS's master is essentially saturated: busy nearly the whole run.
  EXPECT_GT(ss.master.busy_time / ss.run.makespan, 0.8);
}

TEST(MpiModel, FeedbackArrivesWithReportLatency) {
  // AWF-B adapts from completion reports; with enormous report latency the
  // technique keeps scheduling blind, so its behavior approaches FAC's.
  const auto app = simple_app("a", 0, 2000, {2000.0, 2000.0});
  SimConfig config;
  config.iteration_cov = 0.1;
  const MessageModel instant{0.0, 0.0};
  const MpiRunResult adaptive = simulate_loop_mpi(app, 1, 8, sysmodel::paper_case(4),
                                                  dls::TechniqueId::kAWF_B, config, instant, 21);
  EXPECT_GT(adaptive.run.total_chunks, 0u);  // smoke: runs to completion
}

TEST(MpiModel, Validation) {
  const auto app = simple_app("a", 0, 10, {10.0});
  EXPECT_THROW(simulate_loop_mpi(app, 0, 2, full_availability(1), dls::TechniqueId::kSS,
                                 deterministic_config(), {-1.0, 0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(simulate_loop_mpi(app, 0, 2, full_availability(1), dls::TechniqueId::kSS,
                                 deterministic_config(), {0.0, -1.0}, 1),
               std::invalid_argument);
}

// --------------------------------------------------------- failure injection --

TEST(FailureInjection, FailedWorkerStallsStatic) {
  // STATIC cannot reassign: a worker failing mid-run drags the makespan by
  // roughly share_remaining / residual.
  const auto app = simple_app("a", 0, 800, {800.0});
  SimConfig healthy = deterministic_config();
  SimConfig failing = deterministic_config();
  failing.failures.push_back({0, 100.0, 0.01});
  const double base = simulate_loop(app, 0, 4, full_availability(1),
                                    dls::TechniqueId::kStatic, healthy, 3)
                          .makespan;
  const double failed = simulate_loop(app, 0, 4, full_availability(1),
                                      dls::TechniqueId::kStatic, failing, 3)
                            .makespan;
  EXPECT_NEAR(base, 200.0, 1e-6);
  // Worker 0 had 100 iterations left at t = 100; at 1% availability they
  // take 10000 more time units.
  EXPECT_NEAR(failed, 100.0 + 100.0 / 0.01, 1.0);
}

TEST(FailureInjection, DynamicTechniquesRouteAroundTheFailure) {
  // Execution is non-preemptive: whatever chunk is IN FLIGHT on the dying
  // worker cannot be reassigned. Dynamic techniques therefore lose at most
  // that one chunk; STATIC additionally loses the dead worker's entire
  // remaining share. Fail worker 2 at t = 600, after the first (largest)
  // chunks have shrunk: 8000 iterations / 8 workers => STATIC has ~400
  // iterations stranded, the factoring family an in-flight chunk of ~150.
  const auto app = simple_app("a", 0, 8000, {8000.0});
  SimConfig failing = deterministic_config();
  failing.failures.push_back({2, 600.0, 0.02});
  const double static_time = simulate_loop(app, 0, 8, full_availability(1),
                                           dls::TechniqueId::kStatic, failing, 9)
                                 .makespan;
  EXPECT_NEAR(static_time, 600.0 + 400.0 / 0.02, 2.0);
  for (dls::TechniqueId id : {dls::TechniqueId::kSS, dls::TechniqueId::kTSS,
                              dls::TechniqueId::kFAC, dls::TechniqueId::kAF}) {
    const double dynamic_time =
        simulate_loop(app, 0, 8, full_availability(1), id, failing, 9).makespan;
    EXPECT_LT(dynamic_time, 0.6 * static_time) << dls::technique_name(id);
  }
  // SS (one-iteration chunks) is nearly unaffected.
  const double ss_time =
      simulate_loop(app, 0, 8, full_availability(1), dls::TechniqueId::kSS, failing, 9)
          .makespan;
  EXPECT_LT(ss_time, 0.1 * static_time);
}

TEST(FailureInjection, SmallerChunksLimitTheBlastRadius) {
  // The chunk in flight on the dying worker is lost at 0.1% speed; SS
  // (1-iteration chunks) loses almost nothing, FAC's big first chunk hurts.
  const auto app = simple_app("a", 0, 4000, {4000.0});
  SimConfig failing = deterministic_config();
  failing.failures.push_back({1, 50.0, 0.001});
  const double ss = simulate_loop(app, 0, 8, full_availability(1), dls::TechniqueId::kSS,
                                  failing, 13)
                        .makespan;
  const double fac = simulate_loop(app, 0, 8, full_availability(1), dls::TechniqueId::kFAC,
                                   failing, 13)
                         .makespan;
  EXPECT_LT(ss, fac);
}

TEST(FailureInjection, FailureAfterCompletionIsHarmless) {
  const auto app = simple_app("a", 0, 400, {400.0});
  SimConfig config = deterministic_config();
  config.failures.push_back({0, 1e9, 0.001});
  const double with_late_failure = simulate_loop(app, 0, 4, full_availability(1),
                                                 dls::TechniqueId::kFAC, config, 5)
                                       .makespan;
  const double without = simulate_loop(app, 0, 4, full_availability(1),
                                       dls::TechniqueId::kFAC, deterministic_config(), 5)
                             .makespan;
  EXPECT_NEAR(with_late_failure, without, 1e-9);
}

TEST(FailureInjection, Validation) {
  const auto app = simple_app("a", 0, 10, {10.0});
  SimConfig config = deterministic_config();
  config.failures.push_back({9, 1.0, 0.5});  // unknown worker
  EXPECT_THROW(simulate_loop(app, 0, 2, full_availability(1), dls::TechniqueId::kSS, config, 1),
               std::invalid_argument);
  EXPECT_THROW(sysmodel::FailingAvailability(nullptr, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(sysmodel::FailingAvailability(
                   std::make_unique<sysmodel::ConstantAvailability>(1.0), -1.0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(sysmodel::FailingAvailability(
                   std::make_unique<sysmodel::ConstantAvailability>(1.0), 1.0, 0.0),
               std::invalid_argument);
}

TEST(FailureInjection, DecoratorSemantics) {
  sysmodel::FailingAvailability process(
      std::make_unique<sysmodel::ConstantAvailability>(0.8), 10.0, 0.01);
  EXPECT_DOUBLE_EQ(process.availability_at(5.0), 0.8);
  EXPECT_DOUBLE_EQ(process.availability_at(10.0), 0.01);
  EXPECT_DOUBLE_EQ(process.availability_at(1000.0), 0.01);
  EXPECT_DOUBLE_EQ(process.next_change_after(5.0), 10.0);
  EXPECT_TRUE(std::isinf(process.next_change_after(10.0)));
  // Work integral across the failure boundary: 8 units before the failure
  // (10 time units at 0.8), remainder at 0.01.
  EXPECT_NEAR(process.finish_time(0.0, 9.0), 10.0 + 1.0 / 0.01, 1e-9);
}

}  // namespace
}  // namespace cdsf::sim
