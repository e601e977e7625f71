#include "svc/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "cdsf/scenario_io.hpp"
#include "cdsf/solve.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "svc/virtual_time.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cdsf::svc {

namespace {

std::string digest_hex(std::uint64_t digest) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

enum class EventKind : std::uint8_t { kArrival, kAttemptEnd, kHedgeTimer };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // push order: the deterministic tiebreak
  EventKind kind = EventKind::kArrival;
  std::uint64_t payload = 0;  // request index (arrival/hedge) or token (end)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct QueuedAttempt {
  std::size_t request = 0;
  std::size_t attempt = 0;
};

struct Shard {
  bool busy = false;
  std::deque<QueuedAttempt> queue;
};

struct RunningAttempt {
  std::size_t request = 0;
  std::size_t attempt = 0;
  std::size_t shard = 0;
  double started = 0.0;
  bool will_timeout = false;
  bool cancelled = false;
  bool finished = false;
};

/// Per-request Phase A state (index-aligned with the input stream).
struct Live {
  bool poison_parse = false;
  std::string parse_error;
  std::size_t strikes = 0;
  std::size_t attempts_enqueued = 0;
  std::size_t hedge_attempt = 0;  // attempt index of the hedge, 0 = none
  bool hedge_launched = false;
  bool done = false;
  std::vector<std::uint64_t> active_tokens;  // running attempts
};

/// Phase A: the serial virtual-time event loop (see service.hpp).
class EventLoop {
 public:
  EventLoop(const ServiceConfig& config, std::vector<ScenarioRequest>& inputs,
            ServiceRunResult& result, RequestJournal& journal, obs::FlightRecorder& flight)
      : config_(config),
        inputs_(inputs),
        result_(result),
        journal_(journal),
        flight_(flight),
        seeds_(config.seed),
        lives_(inputs.size()),
        shards_(config.shards) {}

  /// Runs to drain or crash; returns the delivery order (request indices).
  std::vector<std::size_t> run() {
    std::vector<std::size_t> order(inputs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (inputs_[a].arrival != inputs_[b].arrival) {
        return inputs_[a].arrival < inputs_[b].arrival;
      }
      return inputs_[a].id < inputs_[b].id;
    });
    for (const std::size_t index : order) {
      push_event(inputs_[index].arrival, EventKind::kArrival, index);
    }
    while (!events_.empty()) {
      const Event event = events_.top();
      events_.pop();
      if (config_.crash_at >= 0.0 && event.time > config_.crash_at) {
        result_.crashed = true;
        result_.crash_time = config_.crash_at;
        break;
      }
      clock_.advance_to(event.time);
      switch (event.kind) {
        case EventKind::kArrival:
          on_arrival(static_cast<std::size_t>(event.payload), event.time);
          break;
        case EventKind::kAttemptEnd:
          on_attempt_end(event.payload, event.time);
          break;
        case EventKind::kHedgeTimer:
          on_hedge_timer(static_cast<std::size_t>(event.payload), event.time);
          break;
      }
    }
    if (!result_.crashed) {
      result_.drained = true;
      result_.drain_time = clock_.now();
      flight_.record(obs::FlightEventKind::kDrainComplete, clock_.now(),
                     obs::kFlightMasterTrack, static_cast<std::int64_t>(delivery_.size()), 0);
    }
    return delivery_;
  }

 private:
  void push_event(double time, EventKind kind, std::uint64_t payload) {
    events_.push(Event{time, next_seq_++, kind, payload});
  }

  void on_arrival(std::size_t index, double t) {
    const ScenarioRequest& request = inputs_[index];
    RequestRecord& record = result_.requests[index];
    ++result_.admission.arrivals;
    if (config_.admission.policy == core::AdmissionPolicy::kBoundedQueue &&
        total_queued_ >= config_.admission.queue_capacity) {
      ++result_.admission.rejected;
      record.outcome = RequestOutcome::kRejected;
      record.delivered_at = t;
      flight_.record(obs::FlightEventKind::kAdmissionRejected, t, obs::kFlightMasterTrack,
                     static_cast<std::int64_t>(request.id), 0);
      return;
    }
    ++result_.admission.admitted;
    record.outcome = RequestOutcome::kUnfinished;
    Live& live = lives_[index];
    try {
      (void)core::parse_scenario_text(request.scenario_text);
    } catch (const std::exception& error) {
      // Poison screening: classify serially here so the strike/quarantine
      // dynamics stay inside the deterministic loop.
      live.poison_parse = true;
      live.parse_error = error.what();
    }
    if (request.replayed) {
      ++result_.replayed;
      record.replayed = true;
    } else {
      // Ack-after-append: the accepted record is flushed before the id
      // enters the acked list — a crash between the two re-runs the
      // request (exactly once), never loses it.
      journal_.append_accepted(request);
      result_.acked.push_back(request.id);
    }
    flight_.record(obs::FlightEventKind::kRequestAdmitted, t, obs::kFlightMasterTrack,
                   static_cast<std::int64_t>(request.id), 0);
    const std::size_t target = pick_shard(shards_.size());  // no exclusion
    if (shards_[target].busy || !shards_[target].queue.empty()) ++result_.admission.queued;
    enqueue_attempt(index, target, t);
  }

  /// Least-loaded shard (queue + running), excluding `exclude` when it is
  /// a valid index; ties resolve to the lowest index.
  std::size_t pick_shard(std::size_t exclude) const {
    std::size_t best = shards_.size();
    std::size_t best_load = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (s == exclude) continue;
      const std::size_t load = shards_[s].queue.size() + (shards_[s].busy ? 1 : 0);
      if (best == shards_.size() || load < best_load) {
        best = s;
        best_load = load;
      }
    }
    return best;
  }

  void enqueue_attempt(std::size_t index, std::size_t shard, double t) {
    Live& live = lives_[index];
    shards_[shard].queue.push_back(QueuedAttempt{index, live.attempts_enqueued++});
    ++total_queued_;
    result_.admission.peak_queue_depth =
        std::max<std::uint64_t>(result_.admission.peak_queue_depth, total_queued_);
    dispatch(shard, t);
  }

  void dispatch(std::size_t s, double t) {
    Shard& shard = shards_[s];
    while (!shard.busy && !shard.queue.empty()) {
      const QueuedAttempt next = shard.queue.front();
      shard.queue.pop_front();
      --total_queued_;
      Live& live = lives_[next.request];
      if (live.done) continue;  // hedge loser or quarantined while queued
      RequestRecord& record = result_.requests[next.request];
      ++record.attempts;
      if (live.poison_parse) {
        // The "solve" throws at the first boundary: a zero-duration
        // strike; the shard stays free for the next queued attempt.
        strike(next.request, t, s, "scenario parse error: " + live.parse_error);
        continue;
      }
      const double duration = draw_duration(inputs_[next.request], next.attempt);
      const bool will_timeout = !(duration <= config_.watchdog_timeout);
      const double end = t + (will_timeout ? config_.watchdog_timeout : duration);
      const std::uint64_t token = static_cast<std::uint64_t>(running_.size()) + 1;
      running_.push_back(RunningAttempt{next.request, next.attempt, s, t, will_timeout});
      live.active_tokens.push_back(token);
      shard.busy = true;
      push_event(end, EventKind::kAttemptEnd, token);
      if (next.attempt == 0 && shards_.size() > 1) {
        push_event(t + hedge_delay(), EventKind::kHedgeTimer, next.request);
      }
    }
  }

  /// Virtual solve duration for (service seed, request id, attempt):
  /// lognormal around mean_solve_time, or +inf when the hang fault fires.
  double draw_duration(const ScenarioRequest& request, std::size_t attempt) {
    const util::SeedSequence per_request(seeds_.child(request.id));
    util::RngStream rng(per_request.child(attempt));
    const bool hang = rng.uniform01() < config_.hang_fraction;
    const double duration =
        config_.mean_solve_time * std::exp(config_.solve_time_cov * rng.normal());
    if (hang) return std::numeric_limits<double>::infinity();
    return duration;
  }

  /// p99-derived hedge delay (see ServiceConfig).
  double hedge_delay() const {
    double p99 = config_.mean_solve_time;
    if (durations_.size() >= config_.hedge_warmup) {
      std::vector<double> sorted = durations_;
      std::sort(sorted.begin(), sorted.end());
      p99 = sorted[static_cast<std::size_t>(
          static_cast<double>(sorted.size() - 1) * 0.99)];
    }
    return std::max(config_.hedge_min_delay, config_.hedge_multiplier * p99);
  }

  void on_attempt_end(std::uint64_t token, double t) {
    RunningAttempt& attempt = running_[token - 1];
    if (attempt.cancelled) return;  // its shard was freed at cancel time
    attempt.finished = true;
    // strike() and deliver_success() can dispatch new attempts, which grows
    // running_ and invalidates `attempt`; keep the shard by value.
    const std::size_t shard = attempt.shard;
    shards_[shard].busy = false;
    Live& live = lives_[attempt.request];
    live.active_tokens.erase(
        std::remove(live.active_tokens.begin(), live.active_tokens.end(), token),
        live.active_tokens.end());
    if (!live.done) {
      if (attempt.will_timeout) {
        ++result_.timeouts;
        flight_.record(obs::FlightEventKind::kSolveTimeout, t, static_cast<std::uint32_t>(shard),
                       static_cast<std::int64_t>(inputs_[attempt.request].id),
                       static_cast<std::int64_t>(attempt.attempt));
        strike(attempt.request, t, shard, "watchdog timeout");
      } else {
        deliver_success(attempt, t);
      }
    }
    dispatch(shard, t);
  }

  void strike(std::size_t index, double t, std::size_t shard, const std::string& reason) {
    Live& live = lives_[index];
    ++live.strikes;
    if (live.strikes >= config_.poison_strikes) {
      ++result_.poisoned;
      finish_request(index, t, shard, RequestOutcome::kPoisoned,
                     "quarantined after " + std::to_string(live.strikes) +
                         " strikes (last: " + reason + ")");
    } else {
      // Second chance on a DIFFERENT shard: a fail-slow or wedged shard
      // must not get to strike the same request out by itself.
      const std::size_t retry =
          shards_.size() > 1 ? pick_shard(shard) : shard;
      enqueue_attempt(index, retry, t);
    }
  }

  void deliver_success(const RunningAttempt& attempt, double t) {
    Live& live = lives_[attempt.request];
    RequestRecord& record = result_.requests[attempt.request];
    durations_.push_back(t - attempt.started);
    if (record.hedged && attempt.attempt == live.hedge_attempt) {
      record.hedge_won = true;
      ++result_.hedge_wins;
    }
    finish_request(attempt.request, t, attempt.shard, RequestOutcome::kCompleted, "");
  }

  void finish_request(std::size_t index, double t, std::size_t shard, RequestOutcome outcome,
                      std::string error) {
    Live& live = lives_[index];
    RequestRecord& record = result_.requests[index];
    live.done = true;
    record.outcome = outcome;
    record.delivered_at = t;
    record.shard = shard;
    record.error = std::move(error);
    delivery_.push_back(index);
    // First-finisher-wins: cancel every other in-flight attempt of this
    // request; cooperative cancellation frees the loser's shard at this
    // boundary (the token poll in the real solve).
    for (const std::uint64_t token : live.active_tokens) {
      RunningAttempt& other = running_[token - 1];
      if (other.finished || other.cancelled) continue;
      other.cancelled = true;
      shards_[other.shard].busy = false;
      dispatch(other.shard, t);
    }
    live.active_tokens.clear();
  }

  void on_hedge_timer(std::size_t index, double t) {
    Live& live = lives_[index];
    // Hedge only the clean path: the primary attempt still running, no
    // strikes (the retry path owns struck requests), not already hedged.
    if (live.done || live.hedge_launched || live.strikes > 0 ||
        live.active_tokens.size() != 1) {
      return;
    }
    const RunningAttempt& primary = running_[live.active_tokens.front() - 1];
    const std::size_t target = pick_shard(primary.shard);
    if (target >= shards_.size()) return;
    live.hedge_launched = true;
    live.hedge_attempt = live.attempts_enqueued;  // the index enqueue assigns
    result_.requests[index].hedged = true;
    ++result_.hedges;
    flight_.record(obs::FlightEventKind::kSolveHedged, t, static_cast<std::uint32_t>(target),
                   static_cast<std::int64_t>(inputs_[index].id),
                   static_cast<std::int64_t>(live.hedge_attempt));
    enqueue_attempt(index, target, t);
  }

  const ServiceConfig& config_;
  std::vector<ScenarioRequest>& inputs_;
  ServiceRunResult& result_;
  RequestJournal& journal_;
  obs::FlightRecorder& flight_;
  util::SeedSequence seeds_;
  VirtualClock clock_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t next_seq_ = 0;
  std::vector<Live> lives_;
  std::vector<Shard> shards_;
  std::vector<RunningAttempt> running_;
  std::size_t total_queued_ = 0;
  std::vector<double> durations_;        // completed solve durations (p99 input)
  std::vector<std::size_t> delivery_;    // request indices in delivery order
};

/// The per-request report document delivered to the client (its bytes are
/// what the journal digest covers).
obs::Json request_report_json(const RequestRecord& record) {
  obs::Json doc = obs::Json::object();
  doc.set("id", record.id);
  doc.set("outcome", request_outcome_name(record.outcome));
  doc.set("attempts", record.attempts);
  doc.set("hedged", record.hedged);
  doc.set("delivered_at", record.delivered_at);
  if (record.outcome == RequestOutcome::kCompleted) {
    doc.set("rho1", record.rho1);
    doc.set("rho2", record.rho2);
    doc.set("feasible_space", record.feasible_space);
    doc.set("all_meet_deadline", record.all_meet_deadline);
  } else {
    doc.set("error", record.error);
  }
  return doc;
}

}  // namespace

void ServiceConfig::validate() const {
  if (shards == 0) throw std::invalid_argument("ServiceConfig: shards must be >= 1");
  if (solve_threads == 0) {
    throw std::invalid_argument("ServiceConfig: solve_threads must be >= 1");
  }
  if (replications == 0) {
    throw std::invalid_argument("ServiceConfig: replications must be >= 1");
  }
  if (!(watchdog_timeout > 0.0)) {
    throw std::invalid_argument("ServiceConfig: watchdog_timeout must be > 0");
  }
  if (!(hedge_multiplier > 0.0) || hedge_min_delay < 0.0) {
    throw std::invalid_argument("ServiceConfig: hedge knobs must be positive");
  }
  if (poison_strikes == 0) {
    throw std::invalid_argument("ServiceConfig: poison_strikes must be >= 1");
  }
  if (!(mean_solve_time > 0.0) || solve_time_cov < 0.0) {
    throw std::invalid_argument("ServiceConfig: solve-time model must be positive");
  }
  if (hang_fraction < 0.0 || hang_fraction > 1.0) {
    throw std::invalid_argument("ServiceConfig: hang_fraction must be in [0, 1]");
  }
  core::validate_admission(admission);
  if (admission.policy == core::AdmissionPolicy::kRho2Aware) {
    throw std::invalid_argument(
        "ServiceConfig: the service supports accept-all and bounded admission; "
        "rho2-aware admission needs the dynamic manager's probability machinery");
  }
  if (admission.shed_floor != 0.0 || admission.ladder) {
    throw std::invalid_argument(
        "ServiceConfig: queue shedding and the degradation ladder are dynamic-manager "
        "features; the service's bounded queue rejects at arrival only");
  }
}

SchedulingService::SchedulingService(ServiceConfig config) : config_(std::move(config)) {
  config_.validate();
}

ServiceRunResult SchedulingService::run(std::vector<ScenarioRequest> requests) {
  ServiceRunResult result;
  result.requests.resize(requests.size());
  {
    std::unordered_set<std::uint64_t> ids;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!ids.insert(requests[i].id).second) {
        throw std::invalid_argument("SchedulingService: duplicate request id " +
                                    std::to_string(requests[i].id));
      }
      result.requests[i].id = requests[i].id;
      result.requests[i].arrival = requests[i].arrival;
    }
  }
  RequestJournal journal;
  if (!config_.journal_path.empty()) {
    journal.open(config_.journal_path, config_.journal_truncate);
  }
  obs::FlightRecorder flight(config_.shards, 64, obs::flight_recording_enabled());

  // Phase A: the serial deterministic event loop.
  EventLoop loop(config_, requests, result, journal, flight);
  const std::vector<std::size_t> delivery = loop.run();

  // Phase B: real solves, delivered requests only, keyed by delivery
  // index — byte-identical across solve_threads (each index independent,
  // own Framework, fixed seed).
  std::vector<obs::Json> documents(delivery.size());
  // Phase B's fan-out and each solve's threads (Stage I's completion table,
  // then the Stage II grid) share the CPUs; the fan-out is at most the
  // delivered count.
  const std::size_t fanout = std::max<std::size_t>(
      1, std::min(config_.solve_threads, delivery.size()));
  const std::size_t grid_threads =
      std::max<std::size_t>(1, util::default_thread_count() / fanout);
  util::parallel_for_index(delivery.size(), config_.solve_threads, [&](std::size_t i) {
    const std::size_t index = delivery[i];
    RequestRecord& record = result.requests[index];
    if (record.outcome == RequestOutcome::kCompleted) {
      try {
        const core::Scenario scenario = core::parse_scenario_text(requests[index].scenario_text);
        core::SolveOptions options;
        options.replications = config_.replications;
        options.seed = requests[index].seed;
        options.threads = grid_threads;
        options.cancel = cancel_.flag();
        const core::SolveOutcome solved = core::solve_scenario(scenario, options);
        record.rho1 = solved.report.rho1;
        record.rho2 = solved.report.rho2;
        record.feasible_space = solved.feasible_space;
        record.all_meet_deadline =
            std::all_of(solved.scenario.per_case.begin(), solved.scenario.per_case.end(),
                        [](const core::StageTwoResult& c) { return c.all_meet_deadline; });
      } catch (const std::exception& error) {
        record.outcome = RequestOutcome::kFailed;
        record.error = error.what();
      }
    }
    obs::Json doc = request_report_json(record);
    record.digest = fnv1a64(doc.dump());
    documents[i] = std::move(doc);
  });

  // Deliver + journal the completions (ack order = delivery order).
  result.delivered_reports.reserve(delivery.size());
  for (std::size_t i = 0; i < delivery.size(); ++i) {
    const RequestRecord& record = result.requests[delivery[i]];
    journal.append_completed(record.id, record.outcome, record.digest);
    result.delivered_reports.emplace_back(record.id, std::move(documents[i]));
  }
  result.delivered = delivery.size();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.add("cdsf.service.arrivals", static_cast<std::int64_t>(result.admission.arrivals));
  metrics.add("cdsf.service.admitted", static_cast<std::int64_t>(result.admission.admitted));
  metrics.add("cdsf.service.rejected", static_cast<std::int64_t>(result.admission.rejected));
  metrics.add("cdsf.service.delivered", static_cast<std::int64_t>(result.delivered));
  metrics.add("cdsf.service.hedges", static_cast<std::int64_t>(result.hedges));
  metrics.add("cdsf.service.timeouts", static_cast<std::int64_t>(result.timeouts));
  metrics.add("cdsf.service.poisoned", static_cast<std::int64_t>(result.poisoned));
  metrics.add("cdsf.service.replayed", static_cast<std::int64_t>(result.replayed));
  metrics.set_gauge("cdsf.service.peak_queue_depth",
                    static_cast<double>(result.admission.peak_queue_depth));

  result.report = service_report_json(result, config_);

  if (result.poisoned > 0 || result.crashed) {
    obs::FlightAnomaly anomaly;
    anomaly.kind = result.crashed ? "service_crash" : "quarantine_trip";
    anomaly.detail = result.crashed
                         ? "service crashed at t=" + std::to_string(result.crash_time)
                         : std::to_string(result.poisoned) + " request(s) quarantined";
    anomaly.time = result.crashed ? result.crash_time : result.drain_time;
    result.flight = obs::FlightSink::global().armed() ? flight.finish() : flight.finish_summary();
    (void)obs::FlightSink::global().maybe_dump(result.flight, anomaly);
  } else {
    result.flight = flight.finish_summary();
  }
  return result;
}

obs::Json service_report_json(const ServiceRunResult& result, const ServiceConfig& config) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", obs::kServiceReportSchema);
  obs::Json conf = obs::Json::object();
  conf.set("shards", config.shards);
  conf.set("replications", config.replications);
  conf.set("watchdog_timeout", config.watchdog_timeout);
  conf.set("hedge_multiplier", config.hedge_multiplier);
  conf.set("hedge_min_delay", config.hedge_min_delay);
  conf.set("hedge_warmup", config.hedge_warmup);
  conf.set("poison_strikes", config.poison_strikes);
  conf.set("seed", config.seed);
  conf.set("mean_solve_time", config.mean_solve_time);
  conf.set("solve_time_cov", config.solve_time_cov);
  conf.set("hang_fraction", config.hang_fraction);
  conf.set("crash_at", config.crash_at);
  conf.set("admission", core::admission_policy_name(config.admission.policy));
  conf.set("queue_capacity", config.admission.queue_capacity);
  doc.set("config", std::move(conf));

  obs::Json totals = obs::Json::object();
  totals.set("arrivals", result.admission.arrivals);
  totals.set("admitted", result.admission.admitted);
  totals.set("queued", result.admission.queued);
  totals.set("rejected", result.admission.rejected);
  totals.set("peak_queue_depth", result.admission.peak_queue_depth);
  totals.set("identity_holds", result.admission.identity_holds());
  totals.set("delivered", result.delivered);
  totals.set("acked", result.acked.size());
  totals.set("hedges", result.hedges);
  totals.set("hedge_wins", result.hedge_wins);
  totals.set("timeouts", result.timeouts);
  totals.set("poisoned", result.poisoned);
  totals.set("replayed", result.replayed);
  doc.set("totals", std::move(totals));

  obs::Json lifecycle = obs::Json::object();
  lifecycle.set("crashed", result.crashed);
  lifecycle.set("crash_time", result.crash_time);
  lifecycle.set("drained", result.drained);
  lifecycle.set("drain_time", result.drain_time);
  doc.set("lifecycle", std::move(lifecycle));

  obs::Json requests = obs::Json::array();
  for (const RequestRecord& record : result.requests) {
    obs::Json entry = obs::Json::object();
    entry.set("id", record.id);
    entry.set("arrival", record.arrival);
    entry.set("outcome", request_outcome_name(record.outcome));
    entry.set("attempts", record.attempts);
    entry.set("hedged", record.hedged);
    entry.set("hedge_won", record.hedge_won);
    entry.set("replayed", record.replayed);
    if (outcome_delivered(record.outcome)) {
      entry.set("shard", record.shard);
      entry.set("delivered_at", record.delivered_at);
      entry.set("digest", digest_hex(record.digest));
    }
    if (record.outcome == RequestOutcome::kCompleted) {
      entry.set("rho1", record.rho1);
      entry.set("rho2", record.rho2);
      entry.set("feasible_space", record.feasible_space);
      entry.set("all_meet_deadline", record.all_meet_deadline);
    } else if (!record.error.empty()) {
      entry.set("error", record.error);
    }
    requests.push_back(std::move(entry));
  }
  doc.set("requests", std::move(requests));
  return doc;
}

}  // namespace cdsf::svc
