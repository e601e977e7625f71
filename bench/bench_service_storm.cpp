// Service storm bench: the two MAGPIE parallelism modes of the
// scheduling service under a request storm —
//
//   parallel-requests   many solves at once (Phase B fan-out:
//                       ServiceConfig::solve_threads = N, each solve's
//                       Stage II on max(1, CPUs / N) threads once N
//                       requests are delivered, so 1 thread once N
//                       reaches the CPU count),
//   parallel-solver     one N-thread solve at a time (serial request
//                       loop, core::SolveOptions::threads = N inside
//                       each Stage II Monte-Carlo).
//
// Both modes execute the SAME delivered-request set (the service event
// loop is virtual-time deterministic), so the wall-clock comparison is
// apples-to-apples: request-level parallelism amortizes the serial
// Stage I enumeration per request, solver-level parallelism only speeds
// the Monte-Carlo and leaves Stage I on the critical path. Service-level
// statistics (hit rate, attempts, delivery latency, rho medians) come
// from virtual time + fixed seeds and are DETERMINISTIC — recorded as
// BENCH_service.json and gated in CI by tools/check_bench_regression.py;
// wall times are informational only (no gated key tokens).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cdsf/scenario_io.hpp"
#include "cdsf/solve.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kSchema = "cdsf.service_storm/1";

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdsf;
  util::Cli cli(
      "Service storm: many solves at once (solve_threads=N) vs one "
      "N-thread solve at a time (StageTwoConfig threads=N) over the same "
      "deterministic delivered-request set.");
  cli.add_int("requests", 16, "requests in the storm");
  cli.add_int("shards", 4, "solver-pool shards");
  cli.add_int("threads", 4, "parallelism N for both modes");
  cli.add_int("replications", 5, "Stage II replications per solve");
  cli.add_int("seed", 7, "stream + service seed");
  cli.add_double("mean-interarrival", 2.0, "mean virtual interarrival");
  cli.add_string("json", "", "write the cdsf.service_storm/1 document here");
  if (!cli.parse(argc, argv)) return 0;

  const auto requests = static_cast<std::size_t>(cli.get_int("requests"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const auto replications = static_cast<std::size_t>(cli.get_int("replications"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  svc::StreamConfig stream_config;
  stream_config.requests = requests;
  stream_config.mean_interarrival = cli.get_double("mean-interarrival");
  stream_config.seed = seed;
  const std::vector<svc::ScenarioRequest> stream =
      svc::make_scripted_stream(stream_config);

  svc::ServiceConfig base;
  base.shards = static_cast<std::size_t>(cli.get_int("shards"));
  base.replications = replications;
  base.seed = seed;
  base.mean_solve_time = 8.0;
  base.solve_time_cov = 0.6;
  base.watchdog_timeout = 240.0;  // storm measures throughput, not faults

  // Mode 1: many solves at once — the service's Phase B fan-out.
  svc::ServiceConfig config_par = base;
  config_par.solve_threads = threads;
  const auto start_par = std::chrono::steady_clock::now();
  const svc::ServiceRunResult run_par = svc::SchedulingService(config_par).run(stream);
  const double wall_parallel_requests = wall_seconds_since(start_par);

  // Reference: the same service without the fan-out (solve_threads = 1;
  // each solve's Stage II then gets every CPU). Bytes must match mode 1 —
  // the determinism contract the chaos axis gates.
  svc::ServiceConfig config_serial = base;
  config_serial.solve_threads = 1;
  const auto start_serial = std::chrono::steady_clock::now();
  const svc::ServiceRunResult run_serial =
      svc::SchedulingService(config_serial).run(stream);
  const double wall_serial = wall_seconds_since(start_serial);
  const bool byte_identical = run_par.report.dump(2) == run_serial.report.dump(2);

  // Mode 2: one N-thread solve at a time over the SAME delivered set.
  std::size_t solver_mode_solves = 0;
  const auto start_solver = std::chrono::steady_clock::now();
  for (const svc::RequestRecord& record : run_par.requests) {
    if (record.outcome != svc::RequestOutcome::kCompleted) continue;
    const svc::ScenarioRequest& request = stream.at(record.id - 1);
    const core::Scenario scenario = core::parse_scenario_text(request.scenario_text);
    core::SolveOptions options;
    options.replications = replications;
    options.seed = request.seed;
    options.threads = threads;
    (void)core::solve_scenario(scenario, options);
    ++solver_mode_solves;
  }
  const double wall_parallel_solver = wall_seconds_since(start_solver);

  // Deterministic service-level statistics (virtual time + fixed seeds).
  std::vector<double> latencies, attempts, rho1s, rho2s;
  std::size_t completed = 0, deadline_hits = 0;
  for (const svc::RequestRecord& record : run_par.requests) {
    if (!svc::outcome_delivered(record.outcome)) continue;
    latencies.push_back(record.delivered_at - record.arrival);
    attempts.push_back(static_cast<double>(record.attempts));
    if (record.outcome == svc::RequestOutcome::kCompleted) {
      ++completed;
      if (record.all_meet_deadline) ++deadline_hits;
      rho1s.push_back(record.rho1);
      rho2s.push_back(record.rho2);
    }
  }
  const double hit_rate =
      completed == 0 ? 0.0
                     : static_cast<double>(deadline_hits) / static_cast<double>(completed);
  double latency_sum = 0.0, attempts_sum = 0.0;
  for (const double value : latencies) latency_sum += value;
  for (const double value : attempts) attempts_sum += value;
  const double n_delivered = latencies.empty() ? 1.0 : static_cast<double>(latencies.size());

  // The Stage II threads of one solve: the service divides the CPUs by its
  // fan-out (at most the delivered count); without the fan-out a solve gets
  // every CPU.
  const std::size_t cpus = util::default_thread_count();
  const std::size_t fanout =
      std::max<std::size_t>(1, std::min<std::size_t>(threads, run_par.delivered));
  const std::size_t grid_threads = std::max<std::size_t>(1, cpus / fanout);

  util::Table table({"mode", "parallelism", "solves", "wall (s)"});
  table.set_alignment({util::Align::kLeft, util::Align::kRight});
  table.set_title("Service storm (" + std::to_string(requests) + " requests, N=" +
                  std::to_string(threads) + ", " + std::to_string(replications) +
                  " replications)");
  table.add_row({"parallel-requests",
                 std::to_string(threads) + "x" + std::to_string(grid_threads) + "-thread",
                 std::to_string(run_par.delivered), util::format_fixed(wall_parallel_requests, 2)});
  table.add_row({"parallel-solver", "1x" + std::to_string(threads) + "-thread",
                 std::to_string(solver_mode_solves), util::format_fixed(wall_parallel_solver, 2)});
  table.add_row({"serial", "1x" + std::to_string(cpus) + "-thread",
                 std::to_string(run_serial.delivered),
                 util::format_fixed(wall_serial, 2)});
  std::puts(table.render().c_str());
  std::printf("deterministic report bytes across solve_threads: %s\n",
              byte_identical ? "identical" : "DIVERGED");
  std::printf("service level: hit rate %s, %llu hedges, %llu timeouts\n",
              util::format_percent(hit_rate, 0).c_str(),
              static_cast<unsigned long long>(run_par.hedges),
              static_cast<unsigned long long>(run_par.timeouts));

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    obs::Json doc = obs::Json::object();
    doc.set("schema", kSchema);
    doc.set("_command",
            "build/bench/bench_service_storm --json " + json_path);
    obs::Json config_doc = obs::Json::object();
    config_doc.set("requests", requests);
    config_doc.set("shards", base.shards);
    config_doc.set("threads", threads);
    config_doc.set("replications", replications);
    config_doc.set("seed", seed);
    config_doc.set("mean_interarrival", stream_config.mean_interarrival);
    config_doc.set("mean_solve_time", base.mean_solve_time);
    config_doc.set("solve_time_cov", base.solve_time_cov);
    doc.set("config", std::move(config_doc));

    // Gated leaves (deterministic): *_rate / *_median / mean_* keys.
    obs::Json service_doc = obs::Json::object();
    service_doc.set("delivered", run_par.delivered);
    service_doc.set("hedges", run_par.hedges);
    service_doc.set("hedge_wins", run_par.hedge_wins);
    service_doc.set("timeouts", run_par.timeouts);
    service_doc.set("poisoned", run_par.poisoned);
    service_doc.set("deadline_hit_rate", hit_rate);
    service_doc.set("mean_delivery_latency", latency_sum / n_delivered);
    service_doc.set("mean_attempts", attempts_sum / n_delivered);
    service_doc.set("rho1_median", median(rho1s));
    service_doc.set("rho2_median", median(rho2s));
    service_doc.set("byte_identical_across_threads", byte_identical);
    doc.set("service", std::move(service_doc));

    // Ungated wall times (vary run to run; key names avoid gate tokens).
    obs::Json modes_doc = obs::Json::object();
    obs::Json mode_par = obs::Json::object();
    mode_par.set("solves", run_par.delivered);
    mode_par.set("wall_seconds", wall_parallel_requests);
    modes_doc.set("parallel_requests", std::move(mode_par));
    obs::Json mode_solver = obs::Json::object();
    mode_solver.set("solves", solver_mode_solves);
    mode_solver.set("wall_seconds", wall_parallel_solver);
    modes_doc.set("parallel_solver", std::move(mode_solver));
    obs::Json mode_serial = obs::Json::object();
    mode_serial.set("solves", run_serial.delivered);
    mode_serial.set("wall_seconds", wall_serial);
    modes_doc.set("serial", std::move(mode_serial));
    doc.set("modes", std::move(modes_doc));

    obs::write_json(doc, json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return byte_identical ? 0 : 1;
}
