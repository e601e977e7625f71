// ASCII Gantt rendering of a loop-execution trace: one row per worker,
// chunks drawn as labeled bars on a common time axis. Used by the trace
// example and invaluable when debugging a DLS technique's chunk pattern.
#pragma once

#include <string>

#include "sim/loop_executor.hpp"

namespace cdsf::sim {

/// Rendering knobs.
struct GanttOptions {
  /// Characters available for the time axis.
  std::size_t width = 100;
  /// Mark the deadline with a '|' column when > 0 and within range.
  double deadline = 0.0;
};

/// Renders the chunks of `result` (which must have been produced with
/// SimConfig::collect_trace = true). Each chunk bar shows dispatch overhead
/// as '.' and computation as '='; idle time is ' '. Returns a multi-line
/// string. Throws std::invalid_argument if the trace is empty or width is
/// too small.
[[nodiscard]] std::string render_gantt(const RunResult& result, const GanttOptions& options);

}  // namespace cdsf::sim
