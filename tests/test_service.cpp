// The crash-safe scheduling service: request lifecycle, exactly-once
// crash/restart replay, hedged solves, watchdog quarantine, graceful
// drain, byte-identity across Phase B thread counts, admission reuse,
// and the cooperative-cancellation hooks the watchdog is built on.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "cdsf/admission.hpp"
#include "ra/robustness.hpp"
#include "sim/loop_executor.hpp"
#include "svc/journal.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"
#include "test_support.hpp"
#include "util/cancel.hpp"

namespace cdsf::svc {
namespace {

/// A small healthy stream (no poison) with fast arrivals.
std::vector<ScenarioRequest> healthy_stream(std::size_t requests, std::uint64_t seed,
                                            double poison_fraction = 0.0) {
  StreamConfig config;
  config.requests = requests;
  config.mean_interarrival = 3.0;
  config.seed = seed;
  config.poison_fraction = poison_fraction;
  return make_scripted_stream(config);
}

/// Fast service config for tests: few replications, modest virtual times.
ServiceConfig fast_config(std::uint64_t seed) {
  ServiceConfig config;
  config.replications = 3;
  config.seed = seed;
  config.mean_solve_time = 10.0;
  config.solve_time_cov = 0.5;
  return config;
}

const RequestRecord& record_for(const ServiceRunResult& result, std::uint64_t id) {
  for (const RequestRecord& record : result.requests) {
    if (record.id == id) return record;
  }
  throw std::out_of_range("no record for id " + std::to_string(id));
}

TEST(ScriptedStream, IsDeterministicAndOrdered) {
  const auto a = healthy_stream(6, 11);
  const auto b = healthy_stream(6, 11);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i + 1);
    EXPECT_EQ(a[i].scenario_text, b[i].scenario_text);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    if (i > 0) {
      EXPECT_GT(a[i].arrival, a[i - 1].arrival);
    }
  }
  EXPECT_THROW((void)make_scripted_stream(StreamConfig{0, 3.0, 1, 0.0, 0.2}),
               std::invalid_argument);
}

TEST(ServiceConfigValidation, RejectsContradictoryKnobs) {
  ServiceConfig config = fast_config(1);
  config.shards = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = fast_config(1);
  config.poison_strikes = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = fast_config(1);
  config.watchdog_timeout = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = fast_config(1);
  config.admission.policy = core::AdmissionPolicy::kRho2Aware;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = fast_config(1);
  config.admission.policy = core::AdmissionPolicy::kBoundedQueue;
  config.admission.queue_capacity = 2;
  config.admission.shed_floor = 0.5;  // shedding needs deadline pricing
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Service, HealthyStreamDrainsWithEveryRequestCompleted) {
  const auto stream = healthy_stream(5, 21);
  const ServiceRunResult result = SchedulingService(fast_config(21)).run(stream);

  EXPECT_TRUE(result.drained);
  EXPECT_FALSE(result.crashed);
  EXPECT_GT(result.drain_time, stream.back().arrival);
  EXPECT_TRUE(result.admission.identity_holds());
  EXPECT_EQ(result.admission.arrivals, 5u);
  EXPECT_EQ(result.delivered, 5u);
  ASSERT_EQ(result.requests.size(), 5u);
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted) << "request " << record.id;
    EXPECT_GE(record.delivered_at, record.arrival);
    EXPECT_GE(record.attempts, 1u);
    EXPECT_GT(record.rho1, 0.0);
    EXPECT_GE(record.rho2, 0.0);  // 0 when the jittered deadline tolerates no slack
    EXPECT_NE(record.digest, 0u);
  }
  // Delivered reports come out in delivery order and parse as documents.
  EXPECT_EQ(result.delivered_reports.size(), 5u);
  const obs::Json& report = result.report;
  EXPECT_EQ(report.at("schema").as_string(), "cdsf.service_report/1");
}

TEST(Service, ReportBytesAreIdenticalAcrossSolveThreads) {
  const auto stream = healthy_stream(6, 33, 0.2);
  ServiceConfig config_one = fast_config(33);
  config_one.solve_threads = 1;
  ServiceConfig config_four = fast_config(33);
  config_four.solve_threads = 4;

  const ServiceRunResult one = SchedulingService(config_one).run(stream);
  const ServiceRunResult four = SchedulingService(config_four).run(stream);
  EXPECT_EQ(one.report.dump(2), four.report.dump(2));
  ASSERT_EQ(one.delivered_reports.size(), four.delivered_reports.size());
  for (std::size_t i = 0; i < one.delivered_reports.size(); ++i) {
    EXPECT_EQ(one.delivered_reports[i].first, four.delivered_reports[i].first);
    EXPECT_EQ(one.delivered_reports[i].second.dump(2),
              four.delivered_reports[i].second.dump(2));
  }
}

TEST(Service, PoisonRequestIsQuarantinedAfterStrikes) {
  StreamConfig stream_config;
  stream_config.requests = 3;
  stream_config.mean_interarrival = 3.0;
  stream_config.seed = 5;
  stream_config.poison_fraction = 1.0;  // every request malformed
  const auto stream = make_scripted_stream(stream_config);

  ServiceConfig config = fast_config(5);
  config.poison_strikes = 2;
  const ServiceRunResult result = SchedulingService(config).run(stream);
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.poisoned, 3u);
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.outcome, RequestOutcome::kPoisoned);
    EXPECT_EQ(record.attempts, 2u);  // poison_strikes attempts, then quarantine
    EXPECT_NE(record.error.find("quarantined after 2 strikes"), std::string::npos)
        << record.error;
  }
}

TEST(Service, HangingAttemptsTimeOutAndStrikeOut) {
  ServiceConfig config = fast_config(7);
  config.hang_fraction = 1.0;  // every attempt hangs; only the watchdog ends it
  config.watchdog_timeout = 20.0;
  config.poison_strikes = 2;
  const auto stream = healthy_stream(2, 7);
  const ServiceRunResult result = SchedulingService(config).run(stream);

  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.poisoned, 2u);
  EXPECT_GE(result.timeouts, 4u);  // two strikes per request, plus hedges
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.outcome, RequestOutcome::kPoisoned);
    EXPECT_NE(record.error.find("watchdog timeout"), std::string::npos);
    // Each strike costs exactly the watchdog budget of virtual time.
    EXPECT_GE(record.delivered_at - record.arrival, 2 * config.watchdog_timeout);
  }
}

TEST(Service, HedgesLaunchAndFirstFinisherWins) {
  ServiceConfig config = fast_config(13);
  config.shards = 2;
  config.solve_time_cov = 1.2;      // heavy-tailed: hedges pay off
  config.hedge_min_delay = 1.0;     // hedge aggressively
  config.hedge_multiplier = 0.5;
  config.hedge_warmup = 2;
  const auto stream = healthy_stream(10, 13);
  const ServiceRunResult result = SchedulingService(config).run(stream);

  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.hedges, 0u);
  EXPECT_LE(result.hedge_wins, result.hedges);
  bool any_hedged = false;
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
    if (record.hedged) any_hedged = true;
    if (record.hedge_won) {
      EXPECT_TRUE(record.hedged);
    }
  }
  EXPECT_TRUE(any_hedged);
}

TEST(Service, SingleShardNeverHedges) {
  ServiceConfig config = fast_config(17);
  config.shards = 1;
  config.hedge_min_delay = 0.5;
  config.hedge_multiplier = 0.1;
  const ServiceRunResult result = SchedulingService(config).run(healthy_stream(4, 17));
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.hedges, 0u);
}

TEST(Service, BoundedAdmissionRejectsAtCapacityAndIdentityHolds) {
  ServiceConfig config = fast_config(19);
  config.shards = 1;
  config.mean_solve_time = 40.0;  // slow solves back the queue up
  config.solve_time_cov = 0.1;
  config.admission.policy = core::AdmissionPolicy::kBoundedQueue;
  config.admission.queue_capacity = 1;

  StreamConfig stream_config;
  stream_config.requests = 8;
  stream_config.mean_interarrival = 1.0;  // storm
  stream_config.seed = 19;
  const ServiceRunResult result =
      SchedulingService(config).run(make_scripted_stream(stream_config));

  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.admission.identity_holds());
  EXPECT_GT(result.admission.rejected, 0u);
  EXPECT_GT(result.delivered, 0u);
  for (const RequestRecord& record : result.requests) {
    if (record.outcome == RequestOutcome::kRejected) {
      EXPECT_EQ(record.delivered_at, record.arrival);  // refused at arrival
      EXPECT_EQ(record.attempts, 0u);
    }
  }
  // Rejected requests are not journaled/acked.
  EXPECT_EQ(result.acked.size(), static_cast<std::size_t>(result.admission.admitted));
}

TEST(Service, DrainUnderStormIsByteIdenticalAcrossThreadCounts) {
  // A storm (fast arrivals, slow solves, bounded queue, hedging armed)
  // must still drain to byte-identical reports for any Phase B fan-out.
  ServiceConfig base = fast_config(23);
  base.shards = 3;
  base.mean_solve_time = 25.0;
  base.solve_time_cov = 0.8;
  base.hedge_min_delay = 2.0;
  base.hedge_warmup = 3;
  base.admission.policy = core::AdmissionPolicy::kBoundedQueue;
  base.admission.queue_capacity = 2;

  StreamConfig stream_config;
  stream_config.requests = 10;
  stream_config.mean_interarrival = 1.5;
  stream_config.seed = 23;
  stream_config.poison_fraction = 0.1;
  const auto stream = make_scripted_stream(stream_config);

  ServiceConfig config_one = base;
  config_one.solve_threads = 1;
  ServiceConfig config_four = base;
  config_four.solve_threads = 4;
  const ServiceRunResult one = SchedulingService(config_one).run(stream);
  const ServiceRunResult four = SchedulingService(config_four).run(stream);
  EXPECT_TRUE(one.drained);
  EXPECT_TRUE(one.admission.identity_holds());
  EXPECT_EQ(one.report.dump(2), four.report.dump(2));
}

TEST(Service, CrashJournalRestartReplaysExactlyOnce) {
  const std::string path = "test_service_crash.jsonl";
  const auto stream = healthy_stream(6, 29);

  ServiceConfig config = fast_config(29);
  config.journal_path = path;
  config.crash_at = stream[2].arrival;  // die as request 3 arrives
  const ServiceRunResult crashed = SchedulingService(config).run(stream);
  EXPECT_TRUE(crashed.crashed);
  EXPECT_FALSE(crashed.drained);
  EXPECT_DOUBLE_EQ(crashed.crash_time, config.crash_at);

  const RecoveredJournal recovered = load_journal(path);
  EXPECT_TRUE(recovered.header_ok);
  EXPECT_FALSE(recovered.torn);
  const std::vector<ScenarioRequest> replay = recovered.unfinished();
  EXPECT_FALSE(replay.empty());
  for (const ScenarioRequest& request : replay) {
    EXPECT_TRUE(request.replayed);
    EXPECT_TRUE(outcome_delivered(record_for(crashed, request.id).outcome) == false);
  }

  // Restart over the same journal: replay set + the unseen tail.
  std::vector<ScenarioRequest> restart_stream = replay;
  for (const ScenarioRequest& request : stream) {
    if (record_for(crashed, request.id).outcome == RequestOutcome::kNotArrived) {
      restart_stream.push_back(request);
    }
  }
  ServiceConfig restart_config = fast_config(29);
  restart_config.journal_path = path;
  restart_config.journal_truncate = false;
  const ServiceRunResult restarted = SchedulingService(restart_config).run(restart_stream);
  EXPECT_TRUE(restarted.drained);
  EXPECT_EQ(restarted.replayed, replay.size());

  // Exactly once: each id is delivered in exactly one of the two runs.
  std::unordered_set<std::uint64_t> first, second;
  for (const RequestRecord& record : crashed.requests) {
    if (outcome_delivered(record.outcome)) first.insert(record.id);
  }
  for (const RequestRecord& record : restarted.requests) {
    if (outcome_delivered(record.outcome)) second.insert(record.id);
  }
  for (const ScenarioRequest& request : stream) {
    EXPECT_EQ(first.count(request.id) + second.count(request.id), 1u)
        << "request " << request.id;
  }
  // The journal is fully settled: nothing left to replay.
  EXPECT_TRUE(load_journal(path).unfinished().empty());
  std::remove(path.c_str());
}

TEST(Service, DuplicateRequestIdsAreRejectedLoudly) {
  auto stream = healthy_stream(2, 31);
  stream[1].id = stream[0].id;
  EXPECT_THROW((void)SchedulingService(fast_config(31)).run(stream),
               std::invalid_argument);
}

TEST(Service, PreCancelledTokenFailsEverySolveGracefully) {
  SchedulingService service(fast_config(37));
  service.cancel_token().cancel();
  const ServiceRunResult result = service.run(healthy_stream(3, 37));
  EXPECT_TRUE(result.drained);  // the virtual loop still drains
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.outcome, RequestOutcome::kFailed) << "request " << record.id;
    EXPECT_NE(record.error.find("cancelled"), std::string::npos) << record.error;
  }
}

TEST(CancelHooks, RaEnumerationBoundaryThrowsCancelled) {
  util::CancelToken token;
  token.cancel();
  ra::RobustnessConfig config;
  config.cancel = token.flag();
  const workload::Batch batch({test::simple_app("a", 10, 100, {50.0, 80.0})});
  const sysmodel::AvailabilitySpec availability = test::full_availability(2);
  const ra::RobustnessEvaluator evaluator(batch, availability, 5000.0, config);
  const ra::GroupAssignment group{0, 2};
  EXPECT_THROW((void)evaluator.completion_pmf(0, group), util::Cancelled);

  // A memoized group still polls the token: warm the cache, then cancel.
  token.reset();
  (void)evaluator.completion_pmf(0, group);
  (void)evaluator.application_probability(0, group);
  token.cancel();
  EXPECT_THROW((void)evaluator.completion_pmf(0, group), util::Cancelled);
  EXPECT_THROW((void)evaluator.application_probability(0, group), util::Cancelled);
  EXPECT_THROW((void)evaluator.expected_completion(0, group), util::Cancelled);
  EXPECT_THROW((void)evaluator.joint_probability(ra::Allocation({group})), util::Cancelled);
}

TEST(CancelHooks, MonteCarloReplicationBoundaryThrowsCancelled) {
  util::CancelToken token;
  token.cancel();
  sim::SimConfig config;
  config.cancel = token.flag();
  const auto app = test::simple_app("a", 0, 200, {500.0});
  EXPECT_THROW((void)sim::simulate_replicated(app, 0, 4, test::full_availability(1),
                                              dls::TechniqueId::kFAC, config, 3, 9,
                                              10000.0),
               util::Cancelled);
  token.reset();
  EXPECT_NO_THROW((void)sim::simulate_replicated(app, 0, 4, test::full_availability(1),
                                                 dls::TechniqueId::kFAC, config, 3, 3,
                                                 10000.0));
}

TEST(ServiceReport, ExcludesThreadAndJournalKnobsFromConfigEcho) {
  ServiceConfig config = fast_config(41);
  config.solve_threads = 8;
  config.journal_path = "test_service_echo.jsonl";
  const ServiceRunResult result = SchedulingService(config).run(healthy_stream(2, 41));
  const obs::Json& echo = result.report.at("config");
  EXPECT_EQ(echo.find("solve_threads"), nullptr);
  EXPECT_EQ(echo.find("journal_path"), nullptr);
  EXPECT_EQ(echo.at("shards").as_int(), static_cast<std::int64_t>(config.shards));
  std::remove(config.journal_path.c_str());
}

}  // namespace
}  // namespace cdsf::svc
