#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cdsf/scenario_io.hpp"
#include "cdsf/solve.hpp"
#include "dls/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "ra/allocation.hpp"
#include "ra/heuristics.hpp"
#include "svc/journal.hpp"
#include "sysmodel/trace_io.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using namespace cdsf;

// FNV-1a digests of each slot's output at kDefaultSeed. A change that
// alters a report on purpose re-records these from the benchmark's
// "want/got" message; any other mismatch is a behaviour change.
constexpr std::uint64_t kGoldenPaper[kSolveSlots] = {
    0x0231f7e63b528268, 0x6e0192f1e6811287, 0x1e57a16d5db12e1d, 0x59c741b4ea23df40,
    0xb7a170c3b8667d72, 0xd852478707ab19fa, 0xaf8116c186316887, 0xb57554f8cc0bc287};
constexpr std::uint64_t kGoldenLargeStage1[kSolveSlots] = {
    0x92285e922123b246, 0x638bf0cd99ee72f5, 0x0f55f086947c4e92, 0x03878a76e735371e,
    0x5ac7bdb542dc7183, 0x1ae5d2e0e5e0e437, 0x52fd2f4585e1a4a2, 0xa9c7b58e61a5bc82};
constexpr std::uint64_t kGoldenServiceFaults = 0xd89c092d1c97cc65;

std::uint64_t golden_digest(WorkloadId id, std::size_t slot) {
  switch (id) {
    case WorkloadId::kPaper:
      return kGoldenPaper[slot];
    case WorkloadId::kLargeStage1:
      return kGoldenLargeStage1[slot];
    case WorkloadId::kServiceFaults:
      return kGoldenServiceFaults;
  }
  return 0;
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

// An availability PMF fitted the way the paper obtains Â: a synthetic
// usage trace with 64 distinct availability levels in [low, high], each
// held for a random span, reduced to its time-weighted PMF.
pmf::Pmf fitted_availability(util::RngStream rng, double low, double high) {
  constexpr std::size_t kLevels = 64;
  std::vector<double> levels(kLevels);
  for (std::size_t k = 0; k < kLevels; ++k) {
    levels[k] = low + (high - low) * (static_cast<double>(k) + rng.uniform(0.2, 0.8)) /
                          static_cast<double>(kLevels);
  }
  for (std::size_t k = kLevels - 1; k > 0; --k) {
    std::swap(levels[k], levels[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<std::int64_t>(k)))]);
  }
  std::string csv = "time,availability\n";
  double time = 0.0;
  char line[64];
  for (const double level : levels) {
    std::snprintf(line, sizeof line, "%.3f,%.6f\n", time, level);
    csv += line;
    time += std::round(rng.uniform(5.0, 50.0) * 1000.0) / 1000.0;
  }
  return sysmodel::parse_trace_text(csv).to_pmf(time);
}

// The large_stage1 scenario: a 5-application, 3-type random batch on the
// bench_large_scale platform, with three availability cases whose per-type
// PMFs are fitted from 64-level traces. 64 discretization pulses x 64
// availability pulses = 4096-pulse completion PMFs, compacted to 2048, and
// 278,236 feasible allocations, which sends Stage I to BestOfPortfolio.
std::string large_stage1_text(std::uint64_t seed) {
  const util::SeedSequence seeds(seed);
  workload::BatchSpec spec;
  spec.applications = 5;
  spec.processor_types = 3;
  spec.min_total_iterations = 1000;
  spec.max_total_iterations = 6000;
  spec.min_mean_time = 4000.0;
  spec.max_mean_time = 40000.0;

  core::Scenario scenario;
  scenario.platform = sysmodel::Platform({{"fast", 8}, {"mid", 16}, {"slow", 32}});
  scenario.batch = workload::generate_batch(spec, seeds.child(1));
  scenario.deadline = 14000.0;

  constexpr double kLow[3] = {0.55, 0.35, 0.20};
  constexpr double kHigh[3] = {1.00, 0.95, 0.85};
  constexpr double kCaseScale[3] = {1.00, 0.90, 0.80};
  const char* const kCaseNames[3] = {"reference", "degraded", "severe"};
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<pmf::Pmf> per_type;
    for (std::size_t j = 0; j < 3; ++j) {
      per_type.push_back(fitted_availability(seeds.stream(100 + 3 * c + j),
                                             kLow[j] * kCaseScale[c], kHigh[j] * kCaseScale[c]));
    }
    scenario.cases.emplace_back(kCaseNames[c], std::move(per_type));
  }
  return core::scenario_to_text(scenario);
}

// Appended to every service request: a worker crash with recovery and
// audit-based validation, so Stage II runs its crash-reclaim, audit and
// quarantine timers.
constexpr const char* kFaultSections =
    "\n[failure]\nworker = 1\ntime = 600\nkind = crash-recover\nrecovery = 1400\n"
    "\n[quarantine]\naudit-rate = 0.1\n";

// Turns the global metrics registry on, counters zeroed, for one traced
// operation, and off again when it ends (by an exception too). Untraced
// operations leave it off, as `cdsf scenario` without --report-json does.
class MetricsWindow {
 public:
  explicit MetricsWindow(bool on) : on_(on) {
    if (!on_) return;
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::global().set_enabled(true);
  }
  MetricsWindow(const MetricsWindow&) = delete;
  MetricsWindow& operator=(const MetricsWindow&) = delete;
  ~MetricsWindow() { close(); }

  /// Turns the registry off and copies the sim.* work counters.
  void close(WorkCounts* counts = nullptr) {
    if (!on_) return;
    obs::MetricsRegistry::global().set_enabled(false);
    on_ = false;
    if (!counts) return;
    const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();
    const auto counter = [&](const char* name) -> std::int64_t {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    counts->sim_runs = counter("sim.runs");
    counts->sim_chunks = counter("sim.chunks");
    counts->sim_iterations = counter("sim.iterations");
  }

 private:
  bool on_;
};

struct Solved {
  core::ScenarioResult scenario;
  core::RobustnessReport report;
  /// The encoded scenario report (empty when not encoded).
  std::string bytes;
};

// The `cdsf scenario` path: parse, make_framework, solve_on, report.
Solved solve_untraced(const std::string& text, const core::SolveOptions& options) {
  const core::Scenario scenario = core::parse_scenario_text(text);
  const core::Framework framework = core::make_framework(scenario);
  core::SolveOutcome outcome = core::solve_on(framework, scenario, options);
  Solved solved;
  solved.bytes = obs::make_scenario_report(framework, outcome.scenario, scenario.cases).dump();
  solved.scenario = std::move(outcome.scenario);
  solved.report = outcome.report;
  return solved;
}

// The same solve, one layer call at a time under a span: the calls
// core::solve_on makes, with the Stage I evaluator warmed first so PMF
// construction and the allocation search are timed apart.
Solved solve_traced(const std::string& text, const core::SolveOptions& options, bool encode,
                    SpanRecorder& trace, WorkCounts& counts) {
  const core::Scenario scenario = [&] {
    SpanScope span(&trace, "cdsf.parse");
    return core::parse_scenario_text(text);
  }();
  counts.parse_bytes += static_cast<std::int64_t>(text.size());
  // Framework holds pointers into itself, so it is built in place (the
  // lambda's prvalue is never moved).
  const core::Framework framework = [&] {
    SpanScope span(&trace, "cdsf.make_framework");
    return core::make_framework(scenario);
  }();

  const ra::RobustnessConfig budgets;
  {
    SpanScope span(&trace, "pmf.completion");
    for (std::size_t app = 0; app < scenario.batch.size(); ++app) {
      for (std::size_t type = 0; type < scenario.platform.type_count(); ++type) {
        const auto in_per_count =
            static_cast<std::int64_t>(budgets.discretization_pulses *
                                      framework.reference_availability().of_type(type).size());
        for (const std::size_t n : ra::candidate_counts(scenario.platform.processors_of_type(type),
                                                        ra::CountRule::kPowerOfTwo)) {
          const pmf::Pmf& completion = framework.evaluator().completion_pmf(app, {type, n});
          counts.completions += 1;
          counts.pulses_in += in_per_count;
          counts.pulses_out += static_cast<std::int64_t>(completion.size());
          if (in_per_count > static_cast<std::int64_t>(budgets.max_pulses)) counts.compacted += 1;
        }
      }
    }
  }

  Solved solved;
  solved.scenario.name = "cdsf";
  {
    SpanScope span(&trace, "ra.search");
    const std::size_t space = ra::count_feasible(scenario.batch.size(), scenario.platform,
                                                 ra::CountRule::kPowerOfTwo);
    counts.feasible_space = std::max(counts.feasible_space, static_cast<std::int64_t>(space));
    const ra::ExhaustiveOptimal exhaustive;
    const ra::BestOfPortfolio portfolio;
    const ra::Heuristic& heuristic = space <= options.exhaustive_space_limit
                                         ? static_cast<const ra::Heuristic&>(exhaustive)
                                         : static_cast<const ra::Heuristic&>(portfolio);
    solved.scenario.stage_one = framework.run_stage_one(heuristic);
  }

  core::StageTwoConfig config;
  config.replications = options.replications;
  config.seed = options.seed;
  config.threads = options.threads;
  config.sim.failures = scenario.failures;
  config.sim.quarantine = scenario.quarantine;
  const std::vector<dls::TechniqueId>& techniques = dls::paper_robust_set();
  for (const sysmodel::AvailabilitySpec& runtime : scenario.cases) {
    SpanScope span(&trace, "sim.stage2");
    solved.scenario.per_case.push_back(
        framework.run_stage_two(solved.scenario.stage_one.allocation, runtime, techniques, config));
  }
  counts.replications += static_cast<std::int64_t>(scenario.cases.size() * scenario.batch.size() *
                                                   techniques.size() * options.replications);
  {
    SpanScope span(&trace, "cdsf.robustness");
    solved.report = framework.robustness_report(solved.scenario, scenario.cases);
  }
  if (encode) {
    // The report carries a metrics block whenever the registry is on; the
    // traced run's report must match the untraced bytes, so encode with it
    // off.
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    const bool was_enabled = metrics.enabled();
    metrics.set_enabled(false);
    {
      SpanScope span(&trace, "obs.encode");
      solved.bytes = obs::make_scenario_report(framework, solved.scenario, scenario.cases).dump();
    }
    metrics.set_enabled(was_enabled);
    counts.report_bytes += static_cast<std::int64_t>(solved.bytes.size());
  }
  return solved;
}

}  // namespace

std::optional<WorkloadId> workload_from_name(std::string_view name) {
  if (name == "paper") return WorkloadId::kPaper;
  if (name == "large_stage1") return WorkloadId::kLargeStage1;
  if (name == "service_faults") return WorkloadId::kServiceFaults;
  return std::nullopt;
}

const char* workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kPaper:
      return "paper";
    case WorkloadId::kLargeStage1:
      return "large_stage1";
    case WorkloadId::kServiceFaults:
      return "service_faults";
  }
  return "unknown";
}

std::string check_paper_stage_one(const core::StageOneResult& stage_one) {
  const ra::Allocation expected({{0, 2}, {0, 2}, {1, 8}});
  if (!(stage_one.allocation == expected)) {
    return "paper Stage I allocation differs from app1 -> 2 x type1, app2 -> 2 x type1, "
           "app3 -> 8 x type2";
  }
  if (std::fabs(stage_one.phi1 - 0.746094) > 5e-7) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "paper phi_1 = %.7f, want 0.746094", stage_one.phi1);
    return buffer;
  }
  return {};
}

Workload::Workload(WorkloadId id, std::uint64_t seed, const std::string& scratch_dir)
    : id_(id), seed_(seed) {
  const util::SeedSequence seeds(seed);
  switch (id) {
    case WorkloadId::kPaper:
      scenario_text_ = core::paper_scenario_text();
      replications_ = 51;
      break;
    case WorkloadId::kLargeStage1:
      scenario_text_ = large_stage1_text(seed);
      replications_ = 5;
      break;
    case WorkloadId::kServiceFaults: {
      svc::StreamConfig stream;
      stream.requests = 16;
      stream.seed = seeds.child(2);
      stream.deadline_jitter = 0.2;
      stream_ = svc::make_scripted_stream(stream);
      for (svc::ScenarioRequest& request : stream_) request.scenario_text += kFaultSections;
      replications_ = 11;
      service_.shards = 2;
      service_.solve_threads = kServiceSolveThreads;
      service_.replications = replications_;
      service_.watchdog_timeout = 1e9;
      service_.seed = seeds.child(3);
      service_.journal_path = scratch_dir + "/journal-" + workload_name(id) + "-" +
                              std::to_string(seed) + ".jsonl";
      break;
    }
  }
}

const char* Workload::op_name() const noexcept {
  return id_ == WorkloadId::kServiceFaults ? "stream" : "solve";
}

OpOutput Workload::run(std::size_t index, SpanRecorder* trace) {
  if (trace) trace->set_op(index);
  SpanScope span(trace, "op");
  return id_ == WorkloadId::kServiceFaults ? run_stream(service_.solve_threads, trace)
                                           : run_solve(index, trace);
}

OpOutput Workload::run_solve(std::size_t index, SpanRecorder* trace) {
  core::SolveOptions options;
  options.replications = replications_;
  options.seed = util::SeedSequence(seed_).child(index % kSolveSlots);
  OpOutput output;
  Solved solved;
  if (trace) {
    MetricsWindow metrics(true);
    solved = solve_traced(scenario_text_, options, true, *trace, output.counts);
    metrics.close(&output.counts);
  } else {
    solved = solve_untraced(scenario_text_, options);
  }
  output.bytes = std::move(solved.bytes);
  output.solves = 1;
  if (id_ == WorkloadId::kPaper) output.error = check_paper_stage_one(solved.scenario.stage_one);
  return output;
}

OpOutput Workload::run_stream(std::size_t solve_threads, SpanRecorder* trace) {
  svc::ServiceConfig config = service_;
  config.solve_threads = solve_threads;
  MetricsWindow metrics(trace != nullptr);
  svc::ServiceRunResult result;
  {
    SpanScope span(trace, "svc.stream");
    svc::SchedulingService service(config);
    result = service.run(stream_);
  }
  OpOutput output;
  output.bytes = result.report.dump();
  for (const auto& [id, document] : result.delivered_reports) {
    output.bytes += "\n" + document.dump();
  }
  for (const svc::RequestRecord& record : result.requests) {
    if (record.outcome == svc::RequestOutcome::kCompleted) {
      ++output.solves;
    } else if (output.error.empty()) {
      output.error = "request " + std::to_string(record.id) + " ended " +
                     svc::request_outcome_name(record.outcome) +
                     (record.error.empty() ? "" : ": " + record.error);
    }
  }
  if (output.error.empty() && !svc::load_journal(config.journal_path).unfinished().empty()) {
    output.error = "the journal has unfinished requests after a drained run";
  }
  if (!trace) return output;

  WorkCounts& counts = output.counts;
  counts.delivered = static_cast<std::int64_t>(result.delivered);
  counts.hedges = static_cast<std::int64_t>(result.hedges);
  counts.timeouts = static_cast<std::int64_t>(result.timeouts);
  for (const svc::RequestRecord& record : result.requests) {
    counts.attempts += static_cast<std::int64_t>(record.attempts);
  }
  {
    std::ifstream journal(config.journal_path, std::ios::binary);
    std::string line;
    while (std::getline(journal, line)) counts.journal_records += line.empty() ? 0 : 1;
    counts.journal_records -= 1;  // the schema header
  }
  counts.journal_bytes = static_cast<std::int64_t>(std::filesystem::file_size(config.journal_path));
  {
    SpanScope span(trace, "obs.encode");
    counts.report_bytes =
        static_cast<std::int64_t>(svc::service_report_json(result, config).dump().size());
  }
  // The sim.* counters cover the stream's own solves; the re-solves below
  // repeat the same work serially.
  metrics.close(&counts);

  // Re-solve every delivered request serially, layer by layer: the Phase B
  // work without the fan-out, so fan-out efficiency can be derived.
  SpanScope resolve(trace, "svc.resolve");
  for (std::size_t i = 0; i < result.requests.size(); ++i) {
    const svc::RequestRecord& record = result.requests[i];
    if (record.outcome != svc::RequestOutcome::kCompleted) continue;
    core::SolveOptions options;
    options.replications = config.replications;
    options.seed = stream_[i].seed;
    const Solved solved = solve_traced(stream_[i].scenario_text, options, false, *trace, counts);
    if (output.error.empty() &&
        (solved.report.rho1 != record.rho1 || solved.report.rho2 != record.rho2)) {
      output.error = "re-solving request " + std::to_string(record.id) +
                     " gave a different (rho_1, rho_2) than the service delivered";
    }
  }
  return output;
}

std::string Workload::check(std::size_t index, const OpOutput& output) {
  if (!output.error.empty()) return output.error;
  const std::size_t slot = id_ == WorkloadId::kServiceFaults ? 0 : index % kSolveSlots;
  const std::uint64_t digest = svc::fnv1a64(output.bytes);
  if (seed_ == kDefaultSeed && digest != golden_digest(id_, slot)) {
    return std::string(workload_name(id_)) + " slot " + std::to_string(slot) +
           ": output digest " + hex(digest) + ", want " + hex(golden_digest(id_, slot));
  }
  const auto [first, inserted] = first_bytes_.emplace(slot, output.bytes);
  if (!inserted && first->second != output.bytes) {
    return std::string(workload_name(id_)) + " slot " + std::to_string(slot) +
           ": output differs from the first run of the same slot";
  }
  if (id_ == WorkloadId::kServiceFaults) {
    if (!serial_stream_bytes_) {
      const OpOutput serial = run_stream(1, nullptr);
      if (!serial.error.empty()) return "solve_threads = 1 run: " + serial.error;
      serial_stream_bytes_ = serial.bytes;
    }
    if (*serial_stream_bytes_ != output.bytes) {
      return "service report bytes differ from a solve_threads = 1 run of the same stream";
    }
  }
  return {};
}

}  // namespace perfbench
