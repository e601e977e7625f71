// The CDSF benchmark program.
//
//   perfbench --workload paper|large_stage1|service_faults --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Untraced (--trace 0): sets the workload up five times (input generation,
// parse, one warm-up operation) and reports the median as setup_s, then
// runs operations closed loop, one at a time, for S seconds and at least
// kMinSamples operations, checking every output. Prints the end-to-end
// metrics.
//
// Traced (--trace 1): sets up once, then alternates a traced and an
// untraced operation for S seconds. Spans around every layer call give the
// per-layer metrics and a self-time table; the traced/untraced ratio gives
// trace_overhead. The spans and the per-layer metrics, with the first
// traced operation's work counts, are written to
// DIR/spans-<workload>-seed<N>.json.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every output passed the oracle.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::OpOutput;
using perfbench::WorkCounts;
using perfbench::Workload;
using perfbench::WorkloadId;

/// The tail percentile needs ten samples beyond it.
constexpr std::size_t kTailBeyond = 10;
constexpr std::size_t kMinSamples = kTailBeyond + 1;
constexpr std::size_t kUntracedSetups = 5;
constexpr std::size_t kMinTracedOps = 3;

struct Args {
  WorkloadId workload = WorkloadId::kPaper;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto id = perfbench::workload_from_name(value);
      if (!id) return false;
      args.workload = *id;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args.seconds > 0.0 && !args.out_dir.empty();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Runs operation `index`, turning an exception into a failed output.
OpOutput attempt(Workload& workload, std::size_t index, perfbench::SpanRecorder* trace) {
  try {
    return workload.run(index, trace);
  } catch (const std::exception& error) {
    OpOutput output;
    output.error = std::string("threw: ") + error.what();
    return output;
  }
}

/// Checks outputs against the oracle, counting attempts and failures.
class Checked {
 public:
  explicit Checked(Workload& oracle) : oracle_(oracle) {}

  void check(std::size_t index, OpOutput& output) {
    ++attempted_;
    if (output.error.empty()) output.error = oracle_.check(index, output);
    if (!output.error.empty()) {
      ++failed_;
      std::printf("FAILED %s %zu: %s\n", oracle_.op_name(), index, output.error.c_str());
    }
  }

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  Workload& oracle_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Checked& checked, const std::vector<Metric>& metrics) {
  cdsf::obs::Json values = cdsf::obs::Json::object();
  for (const Metric& metric : metrics) {
    cdsf::obs::Json entry = cdsf::obs::Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    values.set(metric.name, std::move(entry));
  }
  cdsf::obs::Json result = cdsf::obs::Json::object();
  result.set("correct", checked.failed() == 0);
  result.set("attempted", checked.attempted());
  result.set("failed", checked.failed());
  result.set("metrics", std::move(values));
  std::printf("%s\n", result.dump().c_str());
}

/// Set-up: generate the inputs and run one warm-up operation, `count`
/// times; returns the kept workload and the median set-up seconds.
std::unique_ptr<Workload> set_up(const Args& args, std::size_t count, double& setup_s,
                                 std::unique_ptr<Checked>& checked) {
  std::unique_ptr<Workload> kept;
  std::vector<double> samples;
  for (std::size_t k = 0; k < count; ++k) {
    const Clock::time_point start = Clock::now();
    auto workload = std::make_unique<Workload>(args.workload, args.seed, args.out_dir);
    OpOutput warm_up = attempt(*workload, 0, nullptr);
    samples.push_back(seconds_since(start));
    if (!kept) {
      kept = std::move(workload);
      checked = std::make_unique<Checked>(*kept);
    }
    checked->check(0, warm_up);
  }
  setup_s = perfbench::median(samples);
  return kept;
}

int run_untraced(const Args& args) {
  double setup_s = 0.0;
  std::unique_ptr<Checked> checked;
  const std::unique_ptr<Workload> workload = set_up(args, kUntracedSetups, setup_s, checked);
  const char* op = workload->op_name();

  std::vector<double> op_s;
  std::size_t solves = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t index = 0; seconds_since(start) < args.seconds || op_s.size() < kMinSamples;
       ++index) {
    const Clock::time_point op_start = Clock::now();
    OpOutput output = attempt(*workload, index, nullptr);
    op_s.push_back(seconds_since(op_start));
    checked->check(index, output);
    if (output.error.empty()) solves += output.solves;
  }
  const double wall = seconds_since(start);

  const double p50 = perfbench::median(op_s);
  const perfbench::TailPick tail = *perfbench::tail_percentile(op_s, kTailBeyond);
  const double solves_per_s = static_cast<double>(solves) / wall;
  const double rss = peak_rss_mb();
  const double failed_ratio =
      static_cast<double>(checked->failed()) / static_cast<double>(checked->attempted());
  const bool stream = args.workload == WorkloadId::kServiceFaults;

  std::printf("perfbench %s seed %llu: %zu %ss closed loop in %.3f s (one at a time)\n",
              perfbench::workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), op_s.size(), op, wall);
  std::printf("  %-14s %10.6f s     median %s time (%s)\n", "op_s_p50", p50, op,
              stream ? "stream_s_p50" : "solve_s_p50");
  std::printf("  %-14s %10.6f s     p%.1f of %zu samples, %zu beyond (%s)\n", "op_s_tail",
              tail.value, tail.percentile, tail.samples, tail.beyond,
              stream ? "stream_s_tail" : "solve_s_tail");
  std::printf("  %-14s %10.4f 1/s   %zu verified solves / %.3f s\n", "solves_per_s",
              solves_per_s, solves, wall);
  std::printf("  %-14s %10.6f s     median of %zu set-ups\n", "setup_s", setup_s,
              kUntracedSetups);
  std::printf("  %-14s %10.2f MB\n", "peak_rss_mb", rss);
  std::printf("  %-14s %10.4f       %zu failed / %zu attempted\n", "failed_ratio",
              failed_ratio, checked->failed(), checked->attempted());

  print_result(*checked, {{"op_s_p50", p50, "s"},
                          {"op_s_tail", tail.value, "s"},
                          {"solves_per_s", solves_per_s, "1/s"},
                          {"setup_s", setup_s, "s"},
                          {"peak_rss_mb", rss, "MB"}});
  return checked->failed() == 0 ? 0 : 1;
}

int run_traced(const Args& args) {
  double setup_s = 0.0;
  std::unique_ptr<Checked> checked;
  const std::unique_ptr<Workload> workload = set_up(args, 1, setup_s, checked);
  const char* op = workload->op_name();

  perfbench::SpanRecorder recorder;
  std::vector<WorkCounts> counts;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  const Clock::time_point start = Clock::now();
  for (std::size_t index = 0; seconds_since(start) < args.seconds || counts.size() < kMinTracedOps;
       ++index) {
    Clock::time_point op_start = Clock::now();
    OpOutput traced = attempt(*workload, index, &recorder);
    traced_s.push_back(seconds_since(op_start));
    checked->check(index, traced);
    counts.push_back(traced.counts);
    op_start = Clock::now();
    OpOutput untraced = attempt(*workload, index, nullptr);
    untraced_s.push_back(seconds_since(op_start));
    checked->check(index, untraced);
  }

  // Per-operation inclusive seconds of every span name.
  const std::vector<perfbench::Span>& spans = recorder.spans();
  std::vector<std::map<std::string, double>> per_op(counts.size());
  for (const perfbench::Span& span : spans) {
    per_op[span.op][span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  const auto layer_s = [&](const char* name) {
    std::vector<double> values;
    for (auto& op_spans : per_op) values.push_back(op_spans[name]);
    return perfbench::median(values);
  };
  const auto per_op_ratio = [&](auto&& ratio) {
    std::vector<double> values;
    for (std::size_t i = 0; i < per_op.size(); ++i) values.push_back(ratio(per_op[i], counts[i]));
    return perfbench::median(values);
  };
  const auto share = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };
  const WorkCounts& first = counts.front();
  // A traced stream also re-solves its requests serially; that part has no
  // untraced counterpart, so it is left out of the comparison.
  for (std::size_t i = 0; i < traced_s.size(); ++i) traced_s[i] -= per_op[i]["svc.resolve"];
  const double trace_overhead =
      perfbench::median(traced_s) / perfbench::median(untraced_s) - 1.0;

  const auto count = [](std::int64_t value) { return static_cast<double>(value); };
  const std::vector<Metric> metrics = {
      {"cdsf.parse_s", layer_s("cdsf.parse"), "s"},
      {"cdsf.parse_bytes", count(first.parse_bytes), "bytes"},
      {"pmf.completion_s", layer_s("pmf.completion"), "s"},
      {"pmf.completions", count(first.completions), "count"},
      {"pmf.pulses_in", count(first.pulses_in), "count"},
      {"pmf.pulses_out", count(first.pulses_out), "count"},
      {"pmf.compacted_share", share(count(first.compacted), count(first.completions)),
       "fraction"},
      {"ra.search_s", layer_s("ra.search"), "s"},
      {"ra.feasible_space", count(first.feasible_space), "count"},
      {"sim.stage2_s", layer_s("sim.stage2"), "s"},
      {"sim.replications", count(first.replications), "count"},
      {"sim.replication_us",
       per_op_ratio([&](auto& s, const WorkCounts& c) {
         return 1e6 * share(s["sim.stage2"], count(c.replications));
       }),
       "us"},
      {"sim.runs", count(first.sim_runs), "count"},
      {"sim.chunks", count(first.sim_chunks), "count"},
      {"sim.iterations", count(first.sim_iterations), "count"},
      {"sim.chunks_per_s",
       per_op_ratio([&](auto& s, const WorkCounts& c) {
         return share(count(c.sim_chunks), s["sim.stage2"]);
       }),
       "1/s"},
      {"obs.encode_s", layer_s("obs.encode"), "s"},
      {"obs.report_bytes", count(first.report_bytes), "bytes"},
      {"svc.stream_s", layer_s("svc.stream"), "s"},
      {"svc.delivered", count(first.delivered), "count"},
      {"svc.attempts", count(first.attempts), "count"},
      {"svc.hedges", count(first.hedges), "count"},
      {"svc.timeouts", count(first.timeouts), "count"},
      {"svc.journal_bytes", count(first.journal_bytes), "bytes"},
      {"svc.journal_records", count(first.journal_records), "count"},
      {"svc.resolve_s_sum", layer_s("svc.resolve"), "s"},
      {"svc.fanout_efficiency",
       per_op_ratio([&](auto& s, const WorkCounts&) {
         const auto threads = static_cast<double>(perfbench::kServiceSolveThreads);
         return share(s["svc.resolve"], s["svc.stream"] * threads);
       }),
       "ratio"},
      {"trace_overhead", trace_overhead, "ratio"},
  };

  std::printf("perfbench %s seed %llu traced: %zu traced + %zu untraced %ss in %.3f s\n",
              perfbench::workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), traced_s.size(), untraced_s.size(), op,
              seconds_since(start));
  std::printf("  untraced %s p50 %.6f s, traced %.6f s, trace_overhead %+.2f%%\n", op,
              perfbench::median(untraced_s), perfbench::median(traced_s), 100.0 * trace_overhead);

  // Self-time table: per traced operation, averaged over operations.
  const std::vector<double> self = perfbench::self_seconds(spans);
  std::map<std::string, double> self_by_name;
  std::map<std::string, double> total_by_name;
  std::map<std::string, std::size_t> calls_by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_by_name[spans[i].name] += self[i];
    total_by_name[spans[i].name] += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    calls_by_name[spans[i].name] += 1;
  }
  const double ops = static_cast<double>(counts.size());
  const double op_total = total_by_name["op"] / ops;
  std::printf("  %-20s %9s %12s %12s %8s\n", "span", "calls/op", "total s/op", "self s/op",
              "self %");
  for (const auto& [name, self_s] : self_by_name) {
    std::printf("  %-20s %9.2f %12.6f %12.6f %7.2f%%\n", name.c_str(),
                static_cast<double>(calls_by_name[name]) / ops, total_by_name[name] / ops,
                self_s / ops, 100.0 * share(self_s / ops, op_total));
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-22s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  const std::string trace_path = args.out_dir + "/spans-" +
                                 perfbench::workload_name(args.workload) + "-seed" +
                                 std::to_string(args.seed) + ".json";
  cdsf::obs::Json document = cdsf::obs::Json::object();
  document.set("workload", perfbench::workload_name(args.workload));
  document.set("seed", args.seed);
  cdsf::obs::Json values = cdsf::obs::Json::object();
  for (const Metric& metric : metrics) values.set(metric.name, metric.value);
  document.set("metrics", std::move(values));
  document.set("spans", recorder.to_json());
  std::ofstream(trace_path) << document.dump() << "\n";
  std::printf("  spans written to %s\n", trace_path.c_str());

  print_result(*checked, metrics);
  return checked->failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper|large_stage1|service_faults --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  return args.trace ? run_traced(args) : run_untraced(args);
}
