#include "sim/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cdsf::sim {

std::string render_gantt(const RunResult& result, const GanttOptions& options) {
  if (result.trace.empty()) {
    throw std::invalid_argument("render_gantt: empty trace (enable SimConfig::collect_trace)");
  }
  if (options.width < 10) throw std::invalid_argument("render_gantt: width must be >= 10");

  const double horizon = std::max(result.makespan, 1e-9);
  const double scale = static_cast<double>(options.width) / horizon;
  // Clamp BEFORE casting: a lost chunk's would-be end time is +infinity
  // when its worker crashed for good, and size_t(inf * scale) is UB.
  auto column = [&](double t) {
    return std::min(options.width - 1,
                    static_cast<std::size_t>(std::clamp(t, 0.0, horizon) * scale));
  };

  bool any_lost = false;
  bool any_speculative = false;
  bool any_cancelled = false;
  bool any_retransmitted = false;
  bool any_audit = false;
  bool any_probe = false;
  std::vector<std::string> rows(result.workers.size(), std::string(options.width, ' '));
  for (const ChunkTraceEntry& chunk : result.trace) {
    std::string& row = rows.at(chunk.worker);
    for (std::size_t c = column(chunk.dispatch_time); c < column(chunk.start_time); ++c) {
      row[c] = '.';
    }
    const std::size_t start = column(chunk.start_time);
    const std::size_t end = std::max(column(chunk.end_time), start + 1);
    // Lost chunks (stranded by a crash, later re-dispatched elsewhere)
    // render as 'x' so they are not mistaken for completed work; cancelled
    // speculation losers as '-' (their end_time is the cancellation
    // instant), audit replicas as 'a' (side-channel verification, not
    // delivery), canary probes of quarantined workers as 'c', surviving
    // speculative backups as '~', and chunks whose assignment only arrived
    // via a protocol retransmission as '+' (priority: lost > cancelled >
    // audit > probe > speculative > retransmitted).
    const char fill = chunk.lost        ? 'x'
                      : chunk.cancelled ? '-'
                      : chunk.audit     ? 'a'
                      : chunk.probe     ? 'c'
                      : (chunk.speculative   ? '~'
                         : chunk.retransmitted ? '+'
                                               : '=');
    any_lost = any_lost || chunk.lost;
    any_speculative = any_speculative || chunk.speculative;
    any_cancelled = any_cancelled || chunk.cancelled;
    any_retransmitted = any_retransmitted || chunk.retransmitted;
    any_audit = any_audit || chunk.audit;
    any_probe = any_probe || chunk.probe;
    for (std::size_t c = start; c < end && c < options.width; ++c) row[c] = fill;
    // Chunk boundary marker so adjacent chunks remain distinguishable.
    if (start < options.width) {
      row[start] = chunk.lost        ? '!'
                   : chunk.cancelled ? '/'
                   : chunk.audit     ? '('
                   : chunk.probe     ? '^'
                   : (chunk.speculative   ? '<'
                      : chunk.retransmitted ? '{'
                                            : '[');
    }
  }

  // Quarantine spans: fill the BLANK stretches of a quarantined worker's
  // row with 'q' between its kWorkerQuarantined and kWorkerRestored events
  // (run end when never reinstated) — the drained window reads as enforced
  // idleness without hiding the canary probes running inside it. Only
  // gray-failure runs carry these events, so legacy renders are untouched.
  bool any_quarantine = false;
  {
    std::vector<double> open(result.workers.size(), -1.0);
    auto close_span = [&](std::size_t w, double from, double to) {
      std::string& row = rows.at(w);
      const std::size_t last = std::max(column(to), column(from) + 1);
      for (std::size_t c = column(from); c < last && c < options.width; ++c) {
        if (row[c] == ' ') row[c] = 'q';
      }
    };
    for (const LifecycleEvent& event : result.events) {
      if (event.worker >= result.workers.size()) continue;
      if (event.kind == obs::FlightEventKind::kWorkerQuarantined) {
        any_quarantine = true;
        open[event.worker] = event.time;
      } else if (event.kind == obs::FlightEventKind::kWorkerRestored &&
                 open[event.worker] >= 0.0) {
        close_span(event.worker, open[event.worker], event.time);
        open[event.worker] = -1.0;
      }
    }
    for (std::size_t w = 0; w < open.size(); ++w) {
      if (open[w] >= 0.0) close_span(w, open[w], horizon);
    }
  }

  // Master lifecycle track: only rendered when the run actually carries
  // master crash / restart events, so legacy renders stay byte-identical.
  bool any_master_event = false;
  std::string master_row(options.width, ' ');
  for (const LifecycleEvent& event : result.events) {
    char glyph = '\0';
    if (event.kind == obs::FlightEventKind::kMasterCrashed) glyph = '%';
    if (event.kind == obs::FlightEventKind::kMasterRestarted) glyph = '@';
    if (glyph != '\0') {
      master_row[column(event.time)] = glyph;
      any_master_event = true;
    }
  }

  // Channel-corruption track: one '*' per checksum-discarded message copy
  // (kMessageCorrupted), rendered only when the run saw corruption.
  bool any_corrupted = false;
  std::string channel_row(options.width, ' ');
  for (const LifecycleEvent& event : result.events) {
    if (event.kind == obs::FlightEventKind::kMessageCorrupted) {
      channel_row[column(event.time)] = '*';
      any_corrupted = true;
    }
  }

  std::ostringstream out;
  if (result.serial_end > 0.0) {
    std::string serial_row(options.width, ' ');
    for (std::size_t c = 0; c < column(result.serial_end); ++c) serial_row[c] = 's';
    out << "  serial | " << serial_row << "\n";
  }
  if (any_master_event) out << "  master | " << master_row << "\n";
  if (any_corrupted) out << " channel | " << channel_row << "\n";
  for (std::size_t w = 0; w < rows.size(); ++w) {
    if (options.deadline > 0.0 && options.deadline <= horizon) {
      rows[w][column(options.deadline)] = '|';
    }
    out << "worker " << w << " | " << rows[w] << "  (" << result.workers[w].chunks
        << " chunks, " << result.workers[w].iterations << " iters)\n";
  }
  out << "time 0 .. " << result.makespan;
  if (options.deadline > 0.0) out << "   ('|' = deadline " << options.deadline << ")";
  out << "\n";
  if (any_lost) out << "'x'/'!' = chunk lost to a crash (re-dispatched to survivors)\n";
  if (any_speculative) out << "'~'/'<' = speculative backup copy of a straggling chunk\n";
  if (any_cancelled) out << "'-'/'/' = copy cancelled after the other copy finished first\n";
  if (any_retransmitted) {
    out << "'+'/'{' = assignment delivered only after protocol retransmission\n";
  }
  if (any_master_event) {
    out << "'%' = master crash, '@' = master restart from checkpoint + WAL\n";
  }
  if (any_audit) out << "'a'/'(' = audit replica re-validating an accepted chunk\n";
  if (any_quarantine) {
    out << "'q' = fail-slow quarantine window (drained; canary probes only)\n";
  }
  if (any_probe) out << "'c'/'^' = canary probe of a quarantined worker\n";
  if (any_corrupted) {
    out << "'*' = message copy discarded by checksum (recovered by retransmission)\n";
  }
  return out.str();
}

}  // namespace cdsf::sim
