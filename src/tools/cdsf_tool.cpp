// The `cdsf` command-line tool: one binary exposing the library's main
// entry points without writing any C++.
//
//   cdsf tables                          # reproduce the paper's tables
//   cdsf scenario --file sys.ini         # run the CDSF on a scenario file
//   cdsf template --out sys.ini          # emit the paper example as a file
//   cdsf preview --technique AF --iterations 1000 --workers 4
//                                        # chunk schedule of a technique
//   cdsf gantt --technique FAC --case 3  # chunk Gantt on the paper example
//   cdsf phi1 --deadline 3250            # phi_1 for both Table IV mappings
//   cdsf dynamic --remap --case 3        # arrival-driven allocation stream
//   cdsf chaos --schedules 100           # randomized fault-schedule campaign
//   cdsf serve --requests 8              # crash-safe scheduling service
//   cdsf metrics                         # OpenMetrics text exposition
//
// Observability: every subcommand takes --log-level (the CDSF_LOG
// environment variable sets the initial threshold), --metrics-out (an
// OpenMetrics snapshot written after the command body), and --postmortem
// (flight-recorder dump prefix; anomalous runs leave cdsf.flight_record/1
// files behind). scenario/gantt/dynamic take --report-json (structured
// run report) and scenario/gantt take --trace-json (Chrome/Perfetto
// trace, open in https://ui.perfetto.dev). Requesting any of these
// switches the global metrics registry on, so reports embed a metrics
// snapshot. See docs/observability.md.
//
// Every subcommand supports --help.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cdsf/dynamic_manager.hpp"
#include "cdsf/framework.hpp"
#include "cdsf/paper_example.hpp"
#include "cdsf/scenario_io.hpp"
#include "cdsf/solve.hpp"
#include "dls/analysis.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"
#include "sim/gantt.hpp"
#include "svc/chaos.hpp"
#include "svc/service.hpp"
#include "sysmodel/cases.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/names.hpp"
#include "util/table.hpp"

namespace {

using namespace cdsf;

/// --log-level on every subcommand; applied before the command body runs.
void add_log_flag(util::Cli& cli) {
  cli.add_string("log-level", "",
                 "log threshold: trace|debug|info|warn|error|off (default: CDSF_LOG or info)");
}

void apply_log_flag(const util::Cli& cli) {
  const std::string level = cli.get_string("log-level");
  if (!level.empty()) util::set_log_level(util::parse_log_level(level));
}

/// Turns the global metrics registry on when any observability output was
/// requested, so the emitted report embeds a metrics snapshot.
void enable_metrics_if(bool wanted) {
  if (wanted) obs::MetricsRegistry::global().set_enabled(true);
}

/// --metrics-out / --postmortem ride on every subcommand next to
/// --log-level (see add_log_flag).
void add_common_flags(util::Cli& cli) {
  cli.add_string("metrics-out", "",
                 "write an OpenMetrics text snapshot of the metrics registry here");
  cli.add_string("postmortem", "flight_postmortem",
                 "flight-recorder postmortem file prefix ('off' = never dump)");
  add_log_flag(cli);
}

void apply_common_flags(const util::Cli& cli) {
  apply_log_flag(cli);
  enable_metrics_if(!cli.get_string("metrics-out").empty());
  // The library ships with the postmortem sink unarmed; the CLI arms it so
  // anomalous runs (deadline miss, strand, master restart, quarantine
  // trip) leave a cdsf.flight_record/1 dump behind. Budget of 4 files per
  // invocation keeps a chaos campaign from papering the directory.
  const std::string prefix = cli.get_string("postmortem");
  if (prefix.empty() || prefix == "off") {
    obs::FlightSink::global().disarm();
  } else {
    obs::FlightSink::global().arm(prefix, 4);
  }
}

/// Writes `text` to `path` and prints "wrote <what><path>". The stream
/// is flushed before it is checked, so a full disk is an error here too.
/// Returns 0, or 1 after printing "cannot write".
int write_text_file(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path);
  if (out) {
    out << text;
    out.flush();
  }
  if (!out) {
    std::fprintf(stderr, "cdsf: cannot write '%s'\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s%s\n", what, path.c_str());
  return 0;
}

/// Reads a size-valued flag. A negative value throws "--<name> must be
/// >= 0" instead of wrapping to a count near 2^64.
std::size_t get_count(const util::Cli& cli, const std::string& name) {
  const std::int64_t value = cli.get_int(name);
  if (value < 0) throw std::invalid_argument("--" + name + " must be >= 0");
  return static_cast<std::size_t>(value);
}

/// Writes the --metrics-out exposition (if requested) after the command
/// body ran, so the snapshot covers everything the command did.
int write_metrics_out(const util::Cli& cli) {
  const std::string path = cli.get_string("metrics-out");
  if (path.empty()) return 0;
  return write_text_file(path, obs::to_openmetrics(obs::MetricsRegistry::global().snapshot()),
                         "metrics ");
}

int cmd_tables(int argc, char** argv) {
  util::Cli cli("Reproduce the paper's Table IV/V summary.");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);
  const core::PaperExample example = core::make_paper_example();
  const core::Framework framework(example.batch, example.platform, example.cases.front(),
                                  example.deadline);
  const core::StageOneResult naive = framework.run_stage_one(ra::NaiveLoadBalance());
  const core::StageOneResult robust = framework.run_stage_one(ra::ExhaustiveOptimal());

  util::Table table({"quantity", "naive IM", "robust IM", "paper"});
  table.set_alignment({util::Align::kLeft});
  table.set_title("Paper reproduction summary (Tables IV & V; run build/bench/* for all)");
  table.add_row({"allocation", naive.allocation.to_string(example.platform),
                 robust.allocation.to_string(example.platform), "Table IV"});
  table.add_row({"phi_1", util::format_percent(naive.phi1, 1),
                 util::format_percent(robust.phi1, 1), "26% / 74.5%"});
  for (std::size_t app = 0; app < 3; ++app) {
    table.add_row({"E[T] app" + std::to_string(app + 1),
                   util::format_fixed(naive.expected_times[app], 1),
                   util::format_fixed(robust.expected_times[app], 1), "Table V"});
  }
  std::puts(table.render().c_str());
  return write_metrics_out(cli);
}

int cmd_template(int argc, char** argv) {
  util::Cli cli("Write the paper example as a scenario-file template.");
  cli.add_string("out", "paper_scenario.ini", "output path");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);
  if (write_text_file(cli.get_string("out"), core::paper_scenario_text(), "") != 0) return 1;
  return write_metrics_out(cli);
}

int cmd_scenario(int argc, char** argv) {
  util::Cli cli("Run the CDSF on a scenario file (Stage I + Stage II).");
  cli.add_string("file", "", "scenario file (empty = built-in paper example)");
  cli.add_int("replications", 51, "stage II replications");
  cli.add_int("seed", 1, "seed");
  cli.add_int("threads", 0,
              "threads for Stage I's completion table and Stage II (0 = every CPU this "
              "process may run on; reports are byte-identical across values)");
  cli.add_string("report-json", "", "write a structured JSON scenario report here");
  cli.add_string("trace-json", "", "write a Perfetto trace of one locked-plan execution here");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);
  const std::size_t threads = get_count(cli, "threads");
  const std::string report_path = cli.get_string("report-json");
  const std::string trace_path = cli.get_string("trace-json");
  enable_metrics_if(!report_path.empty() || !trace_path.empty());

  const std::string file = cli.get_string("file");
  const core::Scenario scenario = file.empty()
                                      ? core::parse_scenario_text(core::paper_scenario_text())
                                      : core::load_scenario(file);
  const core::Framework framework = core::make_framework(scenario);
  core::SolveOptions options;
  options.replications = get_count(cli, "replications");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (threads > 0) options.threads = threads;
  // The scenario pipeline runs on the idealized executors, which have no
  // message channel / master process; say so instead of silently ignoring
  // the sections (the MPI executor — cdsf gantt --mpi, bench_failure_ablation
  // --channel — is where they take effect).
  if (scenario.channel.faulty() || scenario.checkpoint.enabled) {
    std::puts(scenario.channel.corrupting()
                  ? "note: [channel]/[integrity]/[checkpoint] apply to the MPI executor "
                    "only; ignored by the scenario pipeline"
                  : "note: [channel]/[checkpoint] apply to the MPI executor only; "
                    "ignored by the scenario pipeline");
  }
  const core::SolveOutcome outcome = core::solve_on(framework, scenario, options);
  const core::ScenarioResult& result = outcome.scenario;

  std::printf("Stage I (%s): %s\nphi_1 = %s\n\n", result.stage_one.heuristic_name.c_str(),
              result.stage_one.allocation.to_string(scenario.platform).c_str(),
              util::format_percent(result.stage_one.phi1, 1).c_str());
  for (std::size_t k = 0; k < result.per_case.size(); ++k) {
    const core::StageTwoResult& per_case = result.per_case[k];
    std::printf("%-12s : %s\n", per_case.case_name.c_str(),
                per_case.all_meet_deadline ? "all applications meet the deadline"
                                           : "deadline VIOLATED");
  }
  const core::RobustnessReport& report = outcome.report;
  std::printf("\n(rho_1, rho_2) = (%s, %s)\n", util::format_percent(report.rho1, 1).c_str(),
              report.rho2 >= 0.0 ? util::format_percent(report.rho2, 2).c_str() : "n/a");
  const core::Framework::ExecutionPlan plan = framework.make_plan(result, 0);
  std::printf("\nExecution plan (reference case):\n%s\n",
              framework.describe_plan(plan).c_str());

  if (!trace_path.empty()) {
    // One locked-plan execution under the reference case, traced: every
    // application becomes a trace process, every worker a track.
    obs::TraceSink sink;
    obs::Json stage1_args = obs::Json::object();
    stage1_args.set("heuristic", result.stage_one.heuristic_name);
    stage1_args.set("phi1", result.stage_one.phi1);
    sink.add_framework_event(0.0, "stage1_allocation", std::move(stage1_args));
    obs::Json rho_args = obs::Json::object();
    rho_args.set("rho1", report.rho1);
    rho_args.set("rho2", report.rho2);
    sink.add_framework_event(0.0, "robustness_certificate", std::move(rho_args));
    sim::SimConfig trace_config;
    trace_config.failures = scenario.failures;
    trace_config.quarantine = scenario.quarantine;
    trace_config.collect_trace = true;
    for (std::size_t app = 0; app < scenario.batch.size(); ++app) {
      const ra::GroupAssignment group = plan.allocation.at(app);
      const sim::RunResult run = sim::simulate_loop(
          scenario.batch.at(app), group.processor_type, group.processors,
          scenario.cases.front(), plan.techniques[app], trace_config,
          options.seed + app);
      obs::TraceSink::RunOptions run_options;
      run_options.pid = static_cast<int>(app);
      run_options.process_name = scenario.batch.at(app).name() + " [" +
                                 dls::technique_name(plan.techniques[app]) + "]";
      run_options.epoch_length = trace_config.epoch_length;
      sink.append_run(run, run_options);
    }
    sink.write(trace_path);
    std::printf("wrote trace %s (%zu events)\n", trace_path.c_str(), sink.event_count());
  }
  if (!report_path.empty()) {
    obs::write_json(obs::make_scenario_report(framework, result, scenario.cases), report_path);
    std::printf("wrote report %s\n", report_path.c_str());
  }
  return write_metrics_out(cli);
}

int cmd_preview(int argc, char** argv) {
  util::Cli cli("Preview a technique's chunk schedule (no simulation).");
  cli.add_string("technique", "FAC", "technique name (see docs/dls_techniques.md)");
  cli.add_int("iterations", 1000, "loop iterations");
  cli.add_int("workers", 4, "workers");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);

  const dls::TechniqueId id = dls::technique_from_name(cli.get_string("technique"));
  const dls::ScheduleAnalysis analysis =
      dls::analyze_schedule(id, cli.get_int("iterations"), get_count(cli, "workers"));
  std::printf("%s on %lld iterations / %lld workers: %zu chunks, sizes %lld..%lld "
              "(mean %.1f, %zu distinct)\n",
              dls::technique_name(id).c_str(), static_cast<long long>(cli.get_int("iterations")),
              static_cast<long long>(cli.get_int("workers")), analysis.chunk_count,
              static_cast<long long>(analysis.largest_chunk),
              static_cast<long long>(analysis.smallest_chunk), analysis.mean_chunk,
              analysis.distinct_sizes);
  std::printf("sequence:");
  for (const dls::ScheduledChunk& chunk : analysis.chunks) {
    std::printf(" %lld", static_cast<long long>(chunk.size));
  }
  std::printf("\n");
  return write_metrics_out(cli);
}

int cmd_gantt(int argc, char** argv) {
  util::Cli cli("Chunk Gantt chart on the paper's app3 group.");
  cli.add_string("technique", "AF", "technique name");
  cli.add_int("case", 1, "availability case (1-4)");
  cli.add_int("seed", 12, "seed");
  cli.add_int("crash-worker", -1, "inject a permanent crash on this worker (-1 = none)");
  cli.add_double("crash-time", 500.0, "crash instant for --crash-worker");
  cli.add_int("degrade-worker", -1, "degrade this worker's availability (-1 = none)");
  cli.add_double("degrade-time", 500.0, "degradation instant for --degrade-worker");
  cli.add_double("degrade-residual", 0.2, "residual availability for --degrade-worker");
  cli.add_flag("speculate", "enable speculative re-execution of straggler chunks");
  cli.add_double("quantile", 2.0, "straggler threshold in sigmas (with --speculate)");
  cli.add_flag("mpi", "use the message-passing executor");
  cli.add_double("drop", 0.0, "per-message drop probability, both directions (implies --mpi)");
  cli.add_double("dup", 0.0, "per-message duplication probability (implies --mpi)");
  cli.add_double("reorder", 0.0, "per-message reorder probability (implies --mpi)");
  cli.add_flag("checkpoint", "enable master checkpointing (implies --mpi)");
  cli.add_double("checkpoint-interval", 250.0, "snapshot period for --checkpoint");
  cli.add_flag("quarantine",
               "arm the fail-slow quarantine tracker (pairs with --degrade-worker)");
  cli.add_double("audit-rate", 0.0,
                 "fraction of accepted chunks re-executed on an independent worker");
  cli.add_double("corrupt", 0.0,
                 "per-message payload-corruption probability, both directions (implies --mpi)");
  cli.add_int("silent-corrupt-worker", -1,
              "worker whose results go silently wrong (-1 = none; pairs with --audit-rate)");
  cli.add_double("silent-corrupt-time", 0.0, "onset instant for --silent-corrupt-worker");
  cli.add_double("master-crash", -1.0,
                 "crash the master at this instant (implies --mpi + checkpointing; -1 = none)");
  cli.add_double("master-recover", -1.0,
                 "master restart instant for --master-crash (-1 = crash + 60)");
  cli.add_string("report-json", "", "write a structured JSON run report here");
  cli.add_string("trace-json", "", "write a Perfetto trace of the run here");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);
  const std::string report_path = cli.get_string("report-json");
  const std::string trace_path = cli.get_string("trace-json");
  enable_metrics_if(!report_path.empty() || !trace_path.empty());

  const core::PaperExample example = core::make_paper_example();
  const std::string technique = cli.get_string("technique");
  sim::SimConfig config;
  config.collect_trace = true;
  // A run past the paper deadline is the flight recorder's deadline-miss
  // anomaly; armed via apply_common_flags, it dumps a postmortem.
  config.flight.deadline = example.deadline;
  if (cli.get_int("crash-worker") >= 0) {
    sim::SimConfig::Failure failure;
    failure.worker = static_cast<std::size_t>(cli.get_int("crash-worker"));
    failure.time = cli.get_double("crash-time");
    failure.kind = sim::SimConfig::FailureKind::kCrash;
    config.failures.push_back(failure);
  }
  if (cli.get_int("degrade-worker") >= 0) {
    sim::SimConfig::Failure failure;
    failure.worker = static_cast<std::size_t>(cli.get_int("degrade-worker"));
    failure.time = cli.get_double("degrade-time");
    failure.residual_availability = cli.get_double("degrade-residual");
    failure.kind = sim::SimConfig::FailureKind::kDegrade;
    config.failures.push_back(failure);
  }
  if (cli.get_flag("speculate")) {
    config.speculation.enabled = true;
    config.speculation.quantile = cli.get_double("quantile");
  }
  config.channel.drop_to_worker = config.channel.drop_to_master = cli.get_double("drop");
  config.channel.duplicate_to_worker = config.channel.duplicate_to_master =
      cli.get_double("dup");
  config.channel.reorder_to_worker = config.channel.reorder_to_master =
      cli.get_double("reorder");
  if (cli.get_flag("checkpoint")) {
    config.checkpoint.enabled = true;
    config.checkpoint.interval = cli.get_double("checkpoint-interval");
  }
  config.quarantine.enabled = cli.get_flag("quarantine");
  config.quarantine.audit_rate = cli.get_double("audit-rate");
  config.channel.corrupt_to_worker = config.channel.corrupt_to_master =
      cli.get_double("corrupt");
  if (cli.get_int("silent-corrupt-worker") >= 0) {
    sim::SimConfig::Failure failure;
    failure.worker = static_cast<std::size_t>(cli.get_int("silent-corrupt-worker"));
    failure.time = cli.get_double("silent-corrupt-time");
    failure.kind = sim::SimConfig::FailureKind::kSilentCorrupt;
    config.failures.push_back(failure);
  }
  if (cli.get_double("master-crash") >= 0.0) {
    sim::SimConfig::Failure failure;
    failure.kind = sim::SimConfig::FailureKind::kMasterCrashRestart;
    failure.time = cli.get_double("master-crash");
    failure.recovery_time = cli.get_double("master-recover") >= 0.0
                                ? cli.get_double("master-recover")
                                : failure.time + 60.0;
    config.failures.push_back(failure);
  }
  // Channel faults (including --corrupt: corrupting() implies faulty()),
  // checkpointing, and master crashes only exist in the message-passing
  // model, so any of those knobs forces the MPI executor.
  const bool mpi = cli.get_flag("mpi") || config.channel.faulty() ||
                   config.checkpoint.enabled ||
                   cli.get_double("master-crash") >= 0.0;
  const workload::Application& app = example.batch.at(2);
  const sysmodel::AvailabilitySpec avail =
      sysmodel::paper_case(static_cast<int>(cli.get_int("case")));
  const dls::TechniqueId technique_id = dls::technique_from_name(technique);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const sim::RunResult run =
      mpi ? sim::simulate_loop_mpi(app, 1, 8, avail, technique_id, config,
                                   sim::MessageModel{}, seed)
                .run
          : sim::simulate_loop(app, 1, 8, avail, technique_id, config, seed);
  if (run.channel.active()) {
    std::printf("channel: %llu msgs, %llu dropped (%llu burst), %llu duplicated, "
                "%llu retransmits, %llu dedup hits\n",
                static_cast<unsigned long long>(run.channel.messages_sent),
                static_cast<unsigned long long>(run.channel.drops),
                static_cast<unsigned long long>(run.channel.burst_drops),
                static_cast<unsigned long long>(run.channel.duplicates),
                static_cast<unsigned long long>(run.channel.retransmits),
                static_cast<unsigned long long>(run.channel.dedup_hits));
  }
  if (run.checkpoint.active()) {
    std::printf("checkpoint: %llu WAL records, %llu snapshots, %llu master restarts\n",
                static_cast<unsigned long long>(run.checkpoint.wal_records),
                static_cast<unsigned long long>(run.checkpoint.snapshots),
                static_cast<unsigned long long>(run.checkpoint.master_restarts));
  }
  if (run.channel.corrupted > 0) {
    std::printf("integrity: %llu corrupted copies discarded by checksum\n",
                static_cast<unsigned long long>(run.channel.corrupted));
  }
  if (run.quarantine.active()) {
    std::printf("quarantine: %llu trips (%llu fail-slow, %llu audit), %llu reinstated, "
                "%llu probes, %llu audits (%llu mismatches)\n",
                static_cast<unsigned long long>(run.quarantine.quarantines),
                static_cast<unsigned long long>(run.quarantine.fail_slow_trips),
                static_cast<unsigned long long>(run.quarantine.audit_trips),
                static_cast<unsigned long long>(run.quarantine.reinstatements),
                static_cast<unsigned long long>(run.quarantine.probes_launched),
                static_cast<unsigned long long>(run.quarantine.audits_launched),
                static_cast<unsigned long long>(run.quarantine.audit_mismatches));
  }
  sim::GanttOptions options;
  options.deadline = example.deadline;
  std::printf("makespan %.0f (deadline %.0f)\n", run.makespan, example.deadline);
  std::fputs(sim::render_gantt(run, options).c_str(), stdout);

  if (!trace_path.empty()) {
    obs::TraceSink sink;
    obs::TraceSink::RunOptions run_options;
    run_options.process_name = "app3 [" + technique + "]";
    run_options.epoch_length = config.epoch_length;
    sink.append_run(run, run_options);
    sink.write(trace_path);
    std::printf("wrote trace %s (%zu events)\n", trace_path.c_str(), sink.event_count());
  }
  if (!report_path.empty()) {
    obs::write_json(obs::make_run_report("gantt app3 " + technique, run, example.deadline),
                    report_path);
    std::printf("wrote report %s\n", report_path.c_str());
  }
  return write_metrics_out(cli);
}

int cmd_dynamic(int argc, char** argv) {
  util::Cli cli("Dynamic per-application allocation stream (rho_2-aware re-mapping).");
  cli.add_int("applications", 16, "applications in the arrival stream");
  cli.add_double("interarrival", 800.0, "mean interarrival time");
  cli.add_double("slack", 7000.0, "per-application deadline slack");
  cli.add_string("technique", "AF", "Stage II technique");
  cli.add_int("case", 3,
              "runtime availability case (1-4, or with --file the scenario's own, clamped); "
              "reference is case 1");
  cli.add_flag("remap", "plan against the realized availability when it degrades past rho2");
  cli.add_double("rho2", 0.1, "certified availability-decrease radius for --remap");
  cli.add_int("seed", 8, "master seed");
  cli.add_string("file", "",
                 "scenario file providing platform/availability (and an optional "
                 "[admission] section) instead of the paper example");
  cli.add_string("admission", "",
                 "admission policy: accept-all | bounded | rho2 (overrides [admission])");
  cli.add_int("queue-capacity", 0, "bounded waiting-queue capacity");
  cli.add_string("queue-order", "fifo", "bounded queue order: fifo | edf");
  cli.add_double("admit-floor", 0.0, "rho2 policy: reject arrivals below this probability");
  cli.add_double("shed-floor", 0.0, "evict queued jobs below this success probability");
  cli.add_flag("ladder", "arm the graceful-degradation ladder");
  cli.add_double("ladder-alpha", 0.3, "overload EWMA smoothing factor");
  cli.add_double("overload-threshold", 0.75, "EWMA level that steps the ladder up a tier");
  cli.add_double("recover-threshold", 0.25, "EWMA level that steps the ladder back down");
  cli.add_double("slack-spread", 0.0,
                 "per-application deadline-slack spread in [0, 1) (makes EDF meaningful)");
  cli.add_string("report-json", "", "write a structured JSON dynamic-run report here");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);
  const std::string report_path = cli.get_string("report-json");
  enable_metrics_if(!report_path.empty());

  core::DynamicConfig config;
  const std::string file = cli.get_string("file");
  sysmodel::Platform platform = sysmodel::paper_platform();
  sysmodel::AvailabilitySpec reference = sysmodel::paper_case(1);
  sysmodel::AvailabilitySpec runtime = reference;
  if (!file.empty()) {
    const core::Scenario scenario = core::load_scenario(file);
    platform = scenario.platform;
    reference = scenario.cases.front();
    // --case indexes the scenario's own availability cases (1-based,
    // clamped), mirroring the paper-case numbering.
    const std::size_t index = std::min<std::size_t>(
        scenario.cases.size(),
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("case"))));
    runtime = scenario.cases[index - 1];
    config.admission = scenario.admission;
  } else {
    runtime = sysmodel::paper_case(static_cast<int>(cli.get_int("case")));
  }
  config.applications = get_count(cli, "applications");
  config.mean_interarrival = cli.get_double("interarrival");
  config.deadline_slack = cli.get_double("slack");
  config.deadline_slack_spread = cli.get_double("slack-spread");
  config.technique = dls::technique_from_name(cli.get_string("technique"));
  config.remap_on_rho2 = cli.get_flag("remap");
  config.rho2 = cli.get_double("rho2");
  config.application_spec.processor_types = platform.type_count();
  config.application_spec.min_total_iterations = 800;
  config.application_spec.max_total_iterations = 3000;
  config.application_spec.min_mean_time = 2000.0;
  config.application_spec.max_mean_time = 8000.0;
  // CLI admission knobs override any [admission] section from --file; an
  // explicit --admission rebuilds the whole block from the flags.
  if (!cli.get_string("admission").empty() || file.empty()) {
    core::AdmissionConfig admission;
    if (!cli.get_string("admission").empty()) {
      admission.policy = core::admission_policy_from_name(cli.get_string("admission"));
    }
    admission.queue_capacity = get_count(cli, "queue-capacity");
    const auto order = util::value_named(core::kQueueOrderNames, cli.get_string("queue-order"));
    if (!order) throw std::invalid_argument("--queue-order must be fifo or edf");
    admission.queue_order = *order;
    admission.admit_floor = cli.get_double("admit-floor");
    admission.shed_floor = cli.get_double("shed-floor");
    admission.ladder = cli.get_flag("ladder");
    admission.ladder_alpha = cli.get_double("ladder-alpha");
    admission.overload_threshold = cli.get_double("overload-threshold");
    admission.recover_threshold = cli.get_double("recover-threshold");
    config.admission = admission;
  }

  const core::DynamicRunResult result = core::run_dynamic_manager(
      platform, reference, runtime, config, static_cast<std::uint64_t>(cli.get_int("seed")));
  std::printf("%zu applications, technique %s, runtime case %lld\n", config.applications,
              dls::technique_name(config.technique).c_str(),
              static_cast<long long>(cli.get_int("case")));
  std::printf("realized availability decrease %s; re-map %s\n",
              util::format_percent(result.realized_decrease, 1).c_str(),
              result.remap_triggered ? "TRIGGERED" : "not triggered");
  std::printf("hit rate %s, mean queueing delay %.0f, utilization %s, horizon %.0f\n",
              util::format_percent(result.deadline_hit_rate, 0).c_str(),
              result.mean_queueing_delay,
              util::format_percent(result.utilization, 0).c_str(), result.horizon);
  if (config.admission.active()) {
    const core::AdmissionStats& stats = result.admission;
    std::printf("admission [%s]: %llu arrivals = %llu admitted + %llu rejected + %llu "
                "shed (%llu queued, peak depth %llu)\n",
                core::admission_policy_name(config.admission.policy),
                static_cast<unsigned long long>(stats.arrivals),
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.queued),
                static_cast<unsigned long long>(stats.peak_queue_depth));
    std::printf("admitted hit rate %s; ladder: %llu steps, max tier %s\n",
                util::format_percent(result.admitted_hit_rate, 0).c_str(),
                static_cast<unsigned long long>(stats.ladder_steps),
                core::degradation_tier_name(static_cast<core::DegradationTier>(
                    std::min<std::uint64_t>(stats.max_tier, 4))));
  }

  if (!report_path.empty()) {
    obs::write_json(obs::make_dynamic_report(result, config, platform), report_path);
    std::printf("wrote report %s\n", report_path.c_str());
  }
  return write_metrics_out(cli);
}

int cmd_chaos(int argc, char** argv) {
  util::Cli cli(
      "Chaos campaign: randomized fault schedules against both Stage II "
      "executors, hard invariants checked on every run.");
  cli.add_int("schedules", 100, "randomized fault schedules to draw");
  cli.add_int("seed", 2026, "campaign master seed");
  cli.add_int("workers", 6, "workers per run");
  cli.add_int("iterations", 600, "parallel iterations per run");
  cli.add_int("max-failures", 3, "failures injected per schedule (upper bound)");
  cli.add_int("replications", 3, "replications per thread-determinism comparison");
  cli.add_string("threads", "1,8", "comma-separated thread counts the determinism check compares");
  cli.add_int("campaign-threads", 0, "campaign parallelism over schedules (0 = hardware)");
  cli.add_flag("no-mpi", "skip the message-passing executor");
  cli.add_flag("no-speculation", "never enable speculative re-execution");
  cli.add_flag("no-channel", "never draw unreliable-channel faults");
  cli.add_flag("no-master-restart", "never inject master crash-restart / checkpointing");
  cli.add_flag("no-fail-slow", "never arm the fail-slow quarantine axis");
  cli.add_flag("no-corruption", "never draw payload-corruption faults");
  cli.add_flag("no-arrival-storm", "skip the dynamic-manager arrival-storm axis");
  cli.add_int("storm-schedules", 12, "arrival-storm schedules to draw");
  cli.add_flag("no-service", "skip the scheduling-service crash/replay axis");
  cli.add_int("service-schedules", 2, "service chaos schedules to draw");
  cli.add_string("report-json", "", "write a structured JSON campaign report here");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);
  const std::string report_path = cli.get_string("report-json");
  enable_metrics_if(!report_path.empty());

  sim::ChaosConfig config;
  config.schedules = get_count(cli, "schedules");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.processors = get_count(cli, "workers");
  config.parallel_iterations = cli.get_int("iterations");
  config.max_failures = get_count(cli, "max-failures");
  config.replications = get_count(cli, "replications");
  config.threads = get_count(cli, "campaign-threads");
  // The storm and service axes run after the executor campaign; their
  // counts are checked before it starts.
  const std::size_t storm_schedules = get_count(cli, "storm-schedules");
  const std::size_t service_schedules = get_count(cli, "service-schedules");
  config.include_mpi = !cli.get_flag("no-mpi");
  config.speculation = !cli.get_flag("no-speculation");
  config.channel_faults = !cli.get_flag("no-channel");
  config.master_restart = !cli.get_flag("no-master-restart");
  config.fail_slow = !cli.get_flag("no-fail-slow");
  config.corruption = !cli.get_flag("no-corruption");
  config.thread_counts.clear();
  std::string spec = cli.get_string("threads");
  for (std::size_t pos = 0; pos < spec.size();) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string token = spec.substr(pos, comma - pos);
    if (!token.empty()) config.thread_counts.push_back(std::stoul(token));
    pos = comma + 1;
  }

  const sim::ChaosReport report = sim::run_chaos_campaign(config);
  std::printf("%zu schedules (%zu failures injected, %zu with speculation, %zu with "
              "channel faults, %zu with master restart, %zu with quarantine, %zu with "
              "corruption), %zu runs\n",
              report.schedules_run, report.failures_injected,
              report.schedules_with_speculation, report.schedules_with_channel_faults,
              report.schedules_with_master_restart, report.schedules_with_quarantine,
              report.schedules_with_corruption, report.runs_executed);
  std::printf("faults: %zu crashes, %llu chunks lost, %lld iterations re-executed, "
              "%zu false suspicions\n",
              report.faults_total.workers_crashed,
              static_cast<unsigned long long>(report.faults_total.chunks_lost),
              static_cast<long long>(report.faults_total.iterations_reexecuted),
              report.faults_total.false_suspicions);
  std::printf("speculation: %llu stragglers flagged, %llu backups (%llu won, %llu "
              "cancelled, %llu lost)\n",
              static_cast<unsigned long long>(report.speculation_total.stragglers_flagged),
              static_cast<unsigned long long>(report.speculation_total.backups_launched),
              static_cast<unsigned long long>(report.speculation_total.backups_won),
              static_cast<unsigned long long>(report.speculation_total.backups_cancelled),
              static_cast<unsigned long long>(report.speculation_total.backups_lost));
  std::printf("channel: %llu msgs, %llu dropped (%llu burst), %llu duplicated, %llu "
              "retransmits, %llu dedup hits, %llu abandoned\n",
              static_cast<unsigned long long>(report.channel_total.messages_sent),
              static_cast<unsigned long long>(report.channel_total.drops),
              static_cast<unsigned long long>(report.channel_total.burst_drops),
              static_cast<unsigned long long>(report.channel_total.duplicates),
              static_cast<unsigned long long>(report.channel_total.retransmits),
              static_cast<unsigned long long>(report.channel_total.dedup_hits),
              static_cast<unsigned long long>(report.channel_total.retransmits_abandoned));
  std::printf("checkpoint: %llu WAL records, %llu snapshots, %llu master restarts, "
              "%llu ranges re-dispatched, %llu completions replayed\n",
              static_cast<unsigned long long>(report.checkpoint_total.wal_records),
              static_cast<unsigned long long>(report.checkpoint_total.snapshots),
              static_cast<unsigned long long>(report.checkpoint_total.master_restarts),
              static_cast<unsigned long long>(
                  report.checkpoint_total.restart_ranges_redispatched),
              static_cast<unsigned long long>(
                  report.checkpoint_total.restart_completions_replayed));
  std::printf("gray: %llu quarantines (%llu fail-slow, %llu audit trips, %llu "
              "reinstated), %llu probes, %llu audits (%llu mismatches, %llu abandoned), "
              "%llu corrupted msgs discarded\n",
              static_cast<unsigned long long>(report.quarantine_total.quarantines),
              static_cast<unsigned long long>(report.quarantine_total.fail_slow_trips),
              static_cast<unsigned long long>(report.quarantine_total.audit_trips),
              static_cast<unsigned long long>(report.quarantine_total.reinstatements),
              static_cast<unsigned long long>(report.quarantine_total.probes_launched),
              static_cast<unsigned long long>(report.quarantine_total.audits_launched),
              static_cast<unsigned long long>(report.quarantine_total.audit_mismatches),
              static_cast<unsigned long long>(report.quarantine_total.audits_abandoned),
              static_cast<unsigned long long>(report.channel_total.corrupted));
  for (const sim::ChaosViolation& violation : report.violations) {
    std::printf("VIOLATION schedule %zu (seed %llu, %s): %s — %s\n", violation.schedule,
                static_cast<unsigned long long>(violation.seed), violation.executor.c_str(),
                violation.invariant.c_str(), violation.detail.c_str());
  }

  // Arrival-storm axis: overload campaigns against the dynamic manager,
  // checking the admission identity (admitted + rejected + shed ==
  // arrivals), no stranded admissions, the queue bound, and repeat-run
  // determinism. Runs above the sim layer, so it lives here, not in
  // sim::run_chaos_campaign.
  bool storm_passed = true;
  core::ArrivalStormReport storm;
  const bool run_storm = !cli.get_flag("no-arrival-storm");
  if (run_storm) {
    core::ArrivalStormConfig storm_config;
    storm_config.schedules = storm_schedules;
    storm_config.seed = config.seed;
    storm = core::run_arrival_storm_campaign(storm_config);
    storm_passed = storm.passed();
    std::printf("arrival storm: %zu schedules (%zu accept-all, %zu bounded, %zu rho2), "
                "%llu arrivals = %llu admitted + %llu rejected + %llu shed\n",
                storm.schedules_run, storm.schedules_accept_all, storm.schedules_bounded,
                storm.schedules_rho2,
                static_cast<unsigned long long>(storm.totals.arrivals),
                static_cast<unsigned long long>(storm.totals.admitted),
                static_cast<unsigned long long>(storm.totals.rejected),
                static_cast<unsigned long long>(storm.totals.shed));
    for (const core::ArrivalStormViolation& violation : storm.violations) {
      std::printf("VIOLATION storm schedule %zu (seed %llu, %s): %s — %s\n",
                  violation.schedule, static_cast<unsigned long long>(violation.seed),
                  violation.policy.c_str(), violation.invariant.c_str(),
                  violation.detail.c_str());
    }
  }

  // Service axis: crash/replay campaigns against the scheduling service
  // (exactly-once reports, zero lost requests, byte-identical repeats).
  // Sits above cdsf/ and sim/, so it lives in svc/chaos.*.
  bool service_passed = true;
  svc::ServiceChaosReport service;
  const bool run_service = !cli.get_flag("no-service");
  if (run_service) {
    svc::ServiceChaosConfig service_config;
    service_config.schedules = service_schedules;
    service_config.seed = config.seed;
    service = svc::run_service_chaos_campaign(service_config);
    service_passed = service.passed();
    std::printf("service: %zu schedules, %llu delivered, %llu hedges, %llu timeouts, "
                "%llu poisoned, %llu crashes, %llu replayed after restart\n",
                service.schedules_run,
                static_cast<unsigned long long>(service.delivered),
                static_cast<unsigned long long>(service.hedges),
                static_cast<unsigned long long>(service.timeouts),
                static_cast<unsigned long long>(service.poisoned),
                static_cast<unsigned long long>(service.crashes),
                static_cast<unsigned long long>(service.replayed));
    for (const svc::ServiceChaosViolation& violation : service.violations) {
      std::printf("VIOLATION service schedule %zu (seed %llu): %s — %s\n",
                  violation.schedule, static_cast<unsigned long long>(violation.seed),
                  violation.invariant.c_str(), violation.detail.c_str());
    }
  }

  const bool passed = report.passed() && storm_passed && service_passed;
  std::printf("campaign %s\n", passed ? "PASSED" : "FAILED");
  if (!report_path.empty()) {
    obs::Json doc = obs::make_chaos_report(report, config);
    if (run_storm) {
      obs::Json storm_doc = obs::Json::object();
      storm_doc.set("schedules_run", storm.schedules_run);
      storm_doc.set("schedules_accept_all", storm.schedules_accept_all);
      storm_doc.set("schedules_bounded", storm.schedules_bounded);
      storm_doc.set("schedules_rho2", storm.schedules_rho2);
      storm_doc.set("arrivals", storm.totals.arrivals);
      storm_doc.set("admitted", storm.totals.admitted);
      storm_doc.set("queued", storm.totals.queued);
      storm_doc.set("rejected", storm.totals.rejected);
      storm_doc.set("shed", storm.totals.shed);
      storm_doc.set("identity_holds", storm.totals.identity_holds());
      storm_doc.set("passed", storm.passed());
      obs::Json storm_violations = obs::Json::array();
      for (const core::ArrivalStormViolation& violation : storm.violations) {
        obs::Json entry = obs::Json::object();
        entry.set("schedule", violation.schedule);
        entry.set("seed", violation.seed);
        entry.set("policy", violation.policy);
        entry.set("invariant", violation.invariant);
        entry.set("detail", violation.detail);
        storm_violations.push_back(std::move(entry));
      }
      storm_doc.set("violations", std::move(storm_violations));
      doc.set("arrival_storm", std::move(storm_doc));
    }
    if (run_service) doc.set("service", svc::service_chaos_json(service));
    obs::write_json(doc, report_path);
    std::printf("wrote report %s\n", report_path.c_str());
  }
  const int metrics_status = write_metrics_out(cli);
  return passed ? metrics_status : 1;
}

int cmd_metrics(int argc, char** argv) {
  util::Cli cli(
      "OpenMetrics text exposition of a metrics snapshot: either a live "
      "Stage I solve of the paper example, or the snapshot embedded in an "
      "existing report (--from-report).");
  cli.add_string("from-report", "",
                 "re-export the 'metrics' block of this JSON report instead of running");
  cli.add_string("out", "", "output path (empty = stdout)");
  // The shared observability trio rides here too (it used to carry only
  // --log-level and drift from the other subcommands).
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);

  std::string text;
  const std::string from = cli.get_string("from-report");
  if (!from.empty()) {
    std::ifstream in(from);
    if (!in) {
      std::fprintf(stderr, "cdsf: cannot read '%s'\n", from.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const obs::Json doc = obs::Json::parse(buffer.str());
    const obs::Json* metrics = doc.find("metrics");
    if (metrics == nullptr) {
      std::fprintf(stderr,
                   "cdsf: '%s' has no 'metrics' block (produce the report with "
                   "--report-json so metrics collection is on)\n",
                   from.c_str());
      return 1;
    }
    text = obs::to_openmetrics(obs::snapshot_from_json(*metrics));
  } else {
    // Live exposition: solve the paper example's Stage I under an enabled
    // registry so the output carries real series.
    enable_metrics_if(true);
    const core::PaperExample example = core::make_paper_example();
    const core::Framework framework(example.batch, example.platform, example.cases.front(),
                                    example.deadline);
    (void)framework.run_stage_one(ra::ExhaustiveOptimal());
    text = obs::to_openmetrics(obs::MetricsRegistry::global().snapshot());
  }

  const std::string out_path = cli.get_string("out");
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return write_metrics_out(cli);
  }
  if (write_text_file(out_path, text, "metrics ") != 0) return 1;
  return write_metrics_out(cli);
}

int cmd_serve(int argc, char** argv) {
  util::Cli cli(
      "Crash-safe scheduling service: a scripted deterministic request "
      "stream solved on a sharded pool with a request journal, watchdog "
      "cancellation, hedged solves, and graceful drain. Virtual time "
      "throughout — runs are byte-identical for a given seed.");
  cli.add_int("requests", 8, "scripted requests to generate");
  cli.add_int("seed", 1, "stream + service seed");
  cli.add_int("shards", 2, "solver-pool shards");
  cli.add_int("threads", 1, "solve threads (reports are byte-identical across values)");
  cli.add_int("replications", 11, "stage II replications per solve");
  cli.add_double("mean-interarrival", 4.0, "mean virtual seconds between arrivals");
  cli.add_double("poison", 0.0, "poison-request fraction of the stream");
  cli.add_double("hang", 0.0, "injected solver-hang probability per attempt");
  cli.add_double("watchdog", 60.0, "watchdog timeout (virtual seconds per attempt)");
  cli.add_double("crash-at", -1.0, "kill the daemon at this virtual time (< 0 = never)");
  cli.add_string("journal", "service_journal.jsonl",
                 "request journal path ('off' = no crash safety)");
  cli.add_flag("resume",
               "recover the journal and replay its unfinished requests instead of "
               "generating a stream (restart after --crash-at)");
  cli.add_string("admission", "accept-all", "admission policy: accept-all|bounded");
  cli.add_int("queue-capacity", 0, "bounded-admission queue capacity");
  cli.add_string("report-json", "", "write the cdsf.service_report/1 document here");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);
  const std::int64_t threads = cli.get_int("threads");
  if (threads < 1) throw std::invalid_argument("--threads must be >= 1");
  const std::string report_path = cli.get_string("report-json");
  enable_metrics_if(!report_path.empty());

  svc::ServiceConfig config;
  config.shards = get_count(cli, "shards");
  config.solve_threads = static_cast<std::size_t>(threads);
  config.replications = get_count(cli, "replications");
  config.watchdog_timeout = cli.get_double("watchdog");
  config.hang_fraction = cli.get_double("hang");
  config.crash_at = cli.get_double("crash-at");
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.admission.policy = core::admission_policy_from_name(cli.get_string("admission"));
  config.admission.queue_capacity = get_count(cli, "queue-capacity");
  const std::string journal = cli.get_string("journal");
  if (journal != "off") config.journal_path = journal;
  const bool resume = cli.get_flag("resume");
  config.journal_truncate = !resume;

  std::vector<svc::ScenarioRequest> stream;
  if (resume) {
    if (journal == "off") {
      std::fprintf(stderr, "cdsf serve: --resume needs a journal\n");
      return 1;
    }
    const svc::RecoveredJournal recovered = svc::load_journal(journal);
    stream = recovered.unfinished();
    std::printf("recovered journal: %zu accepted, %zu completed%s, %zu to replay\n",
                recovered.accepted.size(), recovered.completed.size(),
                recovered.torn ? " (torn tail discarded)" : "", stream.size());
  } else {
    svc::StreamConfig stream_config;
    stream_config.requests = get_count(cli, "requests");
    stream_config.mean_interarrival = cli.get_double("mean-interarrival");
    stream_config.seed = config.seed;
    stream_config.poison_fraction = cli.get_double("poison");
    stream = svc::make_scripted_stream(stream_config);
  }

  svc::SchedulingService service(config);
  const svc::ServiceRunResult result = service.run(std::move(stream));
  for (const svc::RequestRecord& record : result.requests) {
    if (svc::outcome_delivered(record.outcome)) {
      std::printf("request %llu @%.2f -> %s at %.2f (shard %zu, %zu attempt%s%s)\n",
                  static_cast<unsigned long long>(record.id), record.arrival,
                  svc::request_outcome_name(record.outcome), record.delivered_at,
                  record.shard, record.attempts, record.attempts == 1 ? "" : "s",
                  record.hedged ? (record.hedge_won ? ", hedge won" : ", hedged") : "");
    } else {
      std::printf("request %llu @%.2f -> %s\n",
                  static_cast<unsigned long long>(record.id), record.arrival,
                  svc::request_outcome_name(record.outcome));
    }
  }
  std::printf("%llu arrivals = %llu admitted + %llu rejected; %llu delivered "
              "(%llu hedges, %llu timeouts, %llu poisoned, %llu replayed)\n",
              static_cast<unsigned long long>(result.admission.arrivals),
              static_cast<unsigned long long>(result.admission.admitted),
              static_cast<unsigned long long>(result.admission.rejected),
              static_cast<unsigned long long>(result.delivered),
              static_cast<unsigned long long>(result.hedges),
              static_cast<unsigned long long>(result.timeouts),
              static_cast<unsigned long long>(result.poisoned),
              static_cast<unsigned long long>(result.replayed));
  if (result.crashed) {
    std::printf("CRASHED at t=%.2f — restart with --resume to replay\n", result.crash_time);
  } else {
    std::printf("drained at t=%.2f\n", result.drain_time);
  }
  if (!report_path.empty()) {
    obs::write_json(result.report, report_path);
    std::printf("wrote report %s\n", report_path.c_str());
  }
  return write_metrics_out(cli);
}

int cmd_phi1(int argc, char** argv) {
  util::Cli cli("phi_1 and makespan statistics for both Table IV mappings.");
  cli.add_double("deadline", 3250.0, "deadline Delta");
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_common_flags(cli);

  const core::PaperExample example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          cli.get_double("deadline"));
  util::Table table({"mapping", "phi_1", "E[Psi]", "90% quantile", "CVaR(0.9)",
                     "E[tardiness]", "FePIA radius"});
  table.set_alignment({util::Align::kLeft});
  for (auto [name, allocation] : {std::pair{"naive IM", core::paper_naive_allocation()},
                                  std::pair{"robust IM", core::paper_robust_allocation()}}) {
    const pmf::Pmf psi = evaluator.system_makespan_pmf(allocation);
    table.add_row({name, util::format_percent(psi.cdf(cli.get_double("deadline")), 1),
                   util::format_fixed(psi.expectation(), 0),
                   util::format_fixed(psi.quantile(0.9), 0),
                   util::format_fixed(psi.conditional_value_at_risk(0.9), 0),
                   util::format_fixed(psi.expected_tardiness(cli.get_double("deadline")), 0),
                   util::format_fixed(evaluator.fepia_robustness_radius(allocation), 3)});
  }
  std::puts(table.render().c_str());
  std::puts("FePIA radius (reference [3]): the availability drop each mapping tolerates");
  std::puts("before its weakest application's MEAN time violates the deadline.");
  return write_metrics_out(cli);
}

void usage() {
  std::puts("cdsf <command> [flags]   (each command supports --help)");
  std::puts("  tables    reproduce the paper's Table IV/V summary");
  std::puts("  scenario  run the CDSF on a scenario file");
  std::puts("  template  write the paper example as a scenario file");
  std::puts("  preview   print a technique's chunk schedule");
  std::puts("  gantt     ASCII chunk Gantt chart");
  std::puts("  phi1      makespan-distribution statistics per mapping");
  std::puts("  dynamic   arrival-driven allocation stream (rho_2-aware re-mapping)");
  std::puts("  chaos     randomized fault-schedule campaign with invariant checks");
  std::puts("  serve     crash-safe scheduling service on a scripted request stream");
  std::puts("  metrics   OpenMetrics text exposition (live or --from-report)");
  std::puts("observability: --log-level / --metrics-out / --postmortem everywhere");
  std::puts("  (CDSF_LOG sets the initial log threshold);");
  std::puts("  --report-json / --trace-json on scenario, gantt, dynamic, chaos");
}

}  // namespace

int main(int argc, char** argv) {
  cdsf::util::init_log_level_from_env();
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand's Cli sees its own flags.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  try {
    if (command == "tables") return cmd_tables(sub_argc, sub_argv);
    if (command == "scenario") return cmd_scenario(sub_argc, sub_argv);
    if (command == "template") return cmd_template(sub_argc, sub_argv);
    if (command == "preview") return cmd_preview(sub_argc, sub_argv);
    if (command == "gantt") return cmd_gantt(sub_argc, sub_argv);
    if (command == "phi1") return cmd_phi1(sub_argc, sub_argv);
    if (command == "dynamic") return cmd_dynamic(sub_argc, sub_argv);
    if (command == "chaos") return cmd_chaos(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    if (command == "metrics") return cmd_metrics(sub_argc, sub_argv);
    if (command == "--help" || command == "-h" || command == "help") {
      usage();
      return 0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cdsf %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "cdsf: unknown command '%s'\n", command.c_str());
  usage();
  return 1;
}
