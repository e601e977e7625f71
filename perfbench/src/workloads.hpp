// The benchmark's three workloads, their generated inputs, one timed
// operation each, and the output oracle.
//
// Every input is generated from the workload seed and handed to the
// library as text, the way `cdsf scenario --file` and `cdsf serve` receive
// it. An untraced operation calls the library entry points those commands
// use (core::solve_on, svc::SchedulingService::run). A traced operation
// calls the same layers one public function at a time, with a span around
// each call, and must produce the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdsf/framework.hpp"
#include "spans.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace perfbench {

enum class WorkloadId { kPaper, kLargeStage1, kServiceFaults };

[[nodiscard]] std::optional<WorkloadId> workload_from_name(std::string_view name);
[[nodiscard]] const char* workload_name(WorkloadId id);

/// The seed whose output digests the benchmark records (kGolden* tables).
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Solve seeds cycle over this many slots: operation i uses slot i % 8, so
/// every slot after the first eight repeats an earlier solve byte for byte.
inline constexpr std::size_t kSolveSlots = 8;
/// Phase B threads of the service_faults stream.
inline constexpr std::size_t kServiceSolveThreads = 2;

/// Deterministic per-layer work of one traced operation.
struct WorkCounts {
  std::int64_t parse_bytes = 0;
  /// Completion PMFs built while warming the Stage I evaluator.
  std::int64_t completions = 0;
  /// Sum over completions of discretization pulses x availability pulses.
  std::int64_t pulses_in = 0;
  std::int64_t pulses_out = 0;
  /// Completions whose pulses_in exceeded the compaction budget.
  std::int64_t compacted = 0;
  std::int64_t feasible_space = 0;
  /// Stage II replications: cases x applications x techniques x count.
  std::int64_t replications = 0;
  /// MetricsRegistry sim.runs / sim.chunks / sim.iterations.
  std::int64_t sim_runs = 0;
  std::int64_t sim_chunks = 0;
  std::int64_t sim_iterations = 0;
  std::int64_t report_bytes = 0;
  std::int64_t delivered = 0;
  std::int64_t attempts = 0;
  std::int64_t hedges = 0;
  std::int64_t timeouts = 0;
  std::int64_t journal_bytes = 0;
  std::int64_t journal_records = 0;

  friend bool operator==(const WorkCounts&, const WorkCounts&) = default;
};

/// What one operation produced.
struct OpOutput {
  /// The bytes the oracle compares: the scenario report (solves), or the
  /// service report followed by every delivered request report (streams).
  std::string bytes;
  /// Solves the operation completed.
  std::size_t solves = 0;
  /// A check that failed inside the operation; empty when none did.
  std::string error;
  /// Filled by traced operations only.
  WorkCounts counts;
};

/// The seed-independent Stage I result of the paper's Section IV example:
/// app1 -> 2 x type1, app2 -> 2 x type1, app3 -> 8 x type2,
/// phi_1 = 0.746094. Returns an error message, empty when it matches.
[[nodiscard]] std::string check_paper_stage_one(const cdsf::core::StageOneResult& stage_one);

class Workload {
 public:
  /// Generates the inputs from `seed`; the service journal goes under
  /// `scratch_dir`, which must exist.
  Workload(WorkloadId id, std::uint64_t seed, const std::string& scratch_dir);

  /// "solve" or "stream".
  [[nodiscard]] const char* op_name() const noexcept;

  /// Runs operation `index`. A null `trace` runs untraced.
  [[nodiscard]] OpOutput run(std::size_t index, SpanRecorder* trace);

  /// The oracle. Compares `output` of operation `index` with the digest
  /// recorded for the default seed, with the first output of the same
  /// slot, and (streams) with a solve_threads = 1 run of the same stream.
  /// Returns an error message, empty when the output is correct.
  [[nodiscard]] std::string check(std::size_t index, const OpOutput& output);

 private:
  [[nodiscard]] OpOutput run_solve(std::size_t index, SpanRecorder* trace);
  [[nodiscard]] OpOutput run_stream(std::size_t solve_threads, SpanRecorder* trace);

  WorkloadId id_;
  std::uint64_t seed_;
  std::size_t replications_ = 0;
  /// Solves: the scenario file text.
  std::string scenario_text_;
  /// Streams: the request stream and the service configuration.
  std::vector<cdsf::svc::ScenarioRequest> stream_;
  cdsf::svc::ServiceConfig service_;
  /// Oracle state: first bytes seen per slot, and the serial stream run.
  std::map<std::size_t, std::string> first_bytes_;
  std::optional<std::string> serial_stream_bytes_;
};

}  // namespace perfbench
