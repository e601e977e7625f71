#include "svc/chaos.hpp"

#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace cdsf::svc {

namespace {

/// Phase B thread counts compared for byte-identity.
constexpr std::size_t kThreadsA = 1;
constexpr std::size_t kThreadsB = 4;

/// id -> terminal record for one run.
std::unordered_map<std::uint64_t, const RequestRecord*> by_id(const ServiceRunResult& result) {
  std::unordered_map<std::uint64_t, const RequestRecord*> map;
  map.reserve(result.requests.size());
  for (const RequestRecord& record : result.requests) map.emplace(record.id, &record);
  return map;
}

/// Ordered so violation messages come out in id order across platforms.
std::set<std::uint64_t> delivered_ids(const ServiceRunResult& result) {
  std::set<std::uint64_t> ids;
  for (const RequestRecord& record : result.requests) {
    if (outcome_delivered(record.outcome)) ids.insert(record.id);
  }
  return ids;
}

}  // namespace

ServiceChaosReport run_service_chaos_campaign(const ServiceChaosConfig& config) {
  if (config.schedules == 0) {
    throw std::invalid_argument("run_service_chaos_campaign: schedules must be >= 1");
  }
  if (config.requests < 2) {
    throw std::invalid_argument("run_service_chaos_campaign: requests must be >= 2");
  }
  ServiceChaosReport report;
  const util::SeedSequence seeds(config.seed);

  for (std::size_t schedule = 0; schedule < config.schedules; ++schedule) {
    const std::uint64_t seed = seeds.child(schedule);
    const auto violate = [&](const char* invariant, std::string detail) {
      report.violations.push_back(
          ServiceChaosViolation{schedule, seed, invariant, std::move(detail)});
    };

    StreamConfig stream_config;
    stream_config.requests = config.requests;
    stream_config.mean_interarrival = 3.0;
    stream_config.seed = seed;
    stream_config.poison_fraction = config.poison_fraction;
    const std::vector<ScenarioRequest> stream = make_scripted_stream(stream_config);

    ServiceConfig base;
    base.shards = config.shards;
    base.replications = config.replications;
    base.watchdog_timeout = 25.0;
    base.mean_solve_time = 10.0;
    base.solve_time_cov = 0.6;
    base.hang_fraction = config.hang_fraction;
    base.seed = seed;

    // --- Determinism axis: same stream, two Phase B thread counts. ---
    ServiceConfig config_a = base;
    config_a.solve_threads = kThreadsA;
    config_a.journal_path = "./svc_chaos_det_" + std::to_string(schedule) + ".jsonl";
    const ServiceRunResult run_a = SchedulingService(config_a).run(stream);

    ServiceConfig config_b = base;
    config_b.solve_threads = kThreadsB;  // no journal: bytes must not care
    const ServiceRunResult run_b = SchedulingService(config_b).run(stream);

    if (run_a.report.dump(2) != run_b.report.dump(2)) {
      violate("determinism", "service report differs between solve_threads " +
                                 std::to_string(kThreadsA) + " and " +
                                 std::to_string(kThreadsB));
    }
    if (!run_a.drained) violate("drain", "no-crash run did not drain");
    if (!run_a.admission.identity_holds()) {
      violate("admission_identity", "arrivals != admitted + rejected + shed");
    }
    for (const RequestRecord& record : run_a.requests) {
      if (record.outcome == RequestOutcome::kUnfinished ||
          record.outcome == RequestOutcome::kNotArrived) {
        violate("drain", "request " + std::to_string(record.id) +
                             " stranded as " + request_outcome_name(record.outcome) +
                             " after drain");
      }
    }

    // --- Crash/restart axis: daemon dies mid-stream, replays exactly once. ---
    const std::string crash_path = "./svc_chaos_crash_" + std::to_string(schedule) + ".jsonl";
    ServiceConfig config_crash = base;
    config_crash.solve_threads = kThreadsA;
    config_crash.journal_path = crash_path;
    // Crash at a mid-stream arrival: later arrivals are strictly after it
    // (arrival times strictly increase), so the cutoff always fires.
    config_crash.crash_at = stream[(stream.size() - 1) / 2].arrival;
    const ServiceRunResult run_crash = SchedulingService(config_crash).run(stream);
    if (!run_crash.crashed) {
      violate("crash_injection", "crash_at did not interrupt the run");
    }

    const RecoveredJournal recovered = load_journal(crash_path);
    if (!recovered.header_ok) violate("journal", "journal header did not survive");
    const std::set<std::uint64_t> delivered_first = delivered_ids(run_crash);
    std::unordered_set<std::uint64_t> completed_in_journal;
    for (const JournalCompletion& completion : recovered.completed) {
      completed_in_journal.insert(completion.id);
    }
    const auto crash_records = by_id(run_crash);
    for (const std::uint64_t id : delivered_first) {
      if (completed_in_journal.count(id) == 0) {
        violate("journal", "delivered request " + std::to_string(id) +
                               " has no completed record");
      }
    }
    for (const JournalCompletion& completion : recovered.completed) {
      const auto it = crash_records.find(completion.id);
      if (it != crash_records.end() && it->second->digest != completion.digest) {
        violate("journal", "digest mismatch for request " + std::to_string(completion.id));
      }
    }

    // Restart: replay the journal's unfinished set plus the tail the dead
    // daemon never saw.
    std::vector<ScenarioRequest> restart_stream = recovered.unfinished();
    for (const ScenarioRequest& request : stream) {
      const auto it = crash_records.find(request.id);
      if (it != crash_records.end() && it->second->outcome == RequestOutcome::kNotArrived) {
        restart_stream.push_back(request);
      }
    }
    for (const ScenarioRequest& request : restart_stream) {
      if (delivered_first.count(request.id) != 0) {
        violate("exactly_once", "request " + std::to_string(request.id) +
                                    " would be re-delivered after restart");
      }
    }
    ServiceConfig config_restart = base;
    config_restart.solve_threads = kThreadsB;
    config_restart.journal_path = crash_path;
    config_restart.journal_truncate = false;
    const ServiceRunResult run_restart = SchedulingService(config_restart).run(restart_stream);
    if (!run_restart.drained) violate("drain", "restarted run did not drain");

    const std::set<std::uint64_t> delivered_second = delivered_ids(run_restart);
    for (const std::uint64_t id : delivered_second) {
      if (delivered_first.count(id) != 0) {
        violate("exactly_once",
                "request " + std::to_string(id) + " delivered in both runs");
      }
    }
    // Zero lost requests: every acked id reaches a delivered outcome.
    for (const std::vector<std::uint64_t>* acked :
         {&run_crash.acked, &run_restart.acked}) {
      for (const std::uint64_t id : *acked) {
        if (delivered_first.count(id) == 0 && delivered_second.count(id) == 0) {
          violate("lost_request",
                  "acked request " + std::to_string(id) + " never delivered");
        }
      }
    }
    // Every stream id is terminal somewhere (delivered, or rejected by
    // admission in exactly one of the runs).
    const auto restart_records = by_id(run_restart);
    for (const ScenarioRequest& request : stream) {
      std::size_t terminals = 0;
      for (const auto* records : {&crash_records, &restart_records}) {
        const auto it = records->find(request.id);
        if (it != records->end() && it->second->outcome != RequestOutcome::kNotArrived &&
            it->second->outcome != RequestOutcome::kUnfinished) {
          ++terminals;
        }
      }
      if (terminals != 1) {
        violate("exactly_once", "request " + std::to_string(request.id) + " has " +
                                    std::to_string(terminals) + " terminal outcomes");
      }
    }
    // After the drained restart, the journal replays nothing.
    const RecoveredJournal final_state = load_journal(crash_path);
    if (!final_state.unfinished().empty()) {
      violate("journal", std::to_string(final_state.unfinished().size()) +
                             " request(s) still unfinished after drained restart");
    }

    ++report.schedules_run;
    report.delivered += run_a.delivered;
    report.hedges += run_a.hedges;
    report.timeouts += run_a.timeouts;
    report.poisoned += run_a.poisoned;
    report.crashes += run_crash.crashed ? 1 : 0;
    report.replayed += run_restart.replayed;
  }
  return report;
}

obs::Json service_chaos_json(const ServiceChaosReport& report) {
  obs::Json doc = obs::Json::object();
  doc.set("schedules_run", report.schedules_run);
  doc.set("delivered", report.delivered);
  doc.set("hedges", report.hedges);
  doc.set("timeouts", report.timeouts);
  doc.set("poisoned", report.poisoned);
  doc.set("crashes", report.crashes);
  doc.set("replayed", report.replayed);
  doc.set("passed", report.passed());
  obs::Json violations = obs::Json::array();
  for (const ServiceChaosViolation& violation : report.violations) {
    obs::Json entry = obs::Json::object();
    entry.set("schedule", violation.schedule);
    entry.set("seed", violation.seed);
    entry.set("invariant", violation.invariant);
    entry.set("detail", violation.detail);
    violations.push_back(std::move(entry));
  }
  doc.set("violations", std::move(violations));
  return doc;
}

}  // namespace cdsf::svc
