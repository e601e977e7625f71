#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace cdsf::obs {

namespace {

/// Perfetto instant name of a lifecycle kind (indexed by kind). These
/// predate the flight-record names and stay as they are, so existing traces
/// keep their bytes.
const char* lifecycle_name(FlightEventKind kind) {
  static constexpr std::array<const char*, kLifecycleKinds> kNames = {
      "worker_crash", "worker_recover", "worker_suspected", "worker_declared_dead",
      "worker_reinstated", "chunk_reclaimed", "chunk_straggler", "chunk_backup", "chunk_cancelled",
      "risk_escalated", "assignment_retransmit", "dedup_hit", "master_crash", "master_restart",
      "checkpoint", "worker_quarantined", "quarantine_probe", "worker_restored", "audit_launched",
      "audit_mismatch", "message_corrupted"};
  const auto index = static_cast<std::size_t>(kind);
  return index < kNames.size() ? kNames[index] : "lifecycle";
}

}  // namespace

Json TraceSink::event_base(int pid, int tid, double ts, const std::string& name,
                           const std::string& categories) const {
  Json event = Json::object();
  event.set("name", name);
  if (!categories.empty()) event.set("cat", categories);
  event.set("ts", ts * time_scale_);
  event.set("pid", pid);
  event.set("tid", tid);
  return event;
}

void TraceSink::set_process_name(int pid, const std::string& name) {
  Json event = Json::object();
  event.set("name", "process_name");
  event.set("ph", "M");
  event.set("pid", pid);
  event.set("tid", 0);
  Json args = Json::object();
  args.set("name", name);
  event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

void TraceSink::set_thread_name(int pid, int tid, const std::string& name) {
  Json event = Json::object();
  event.set("name", "thread_name");
  event.set("ph", "M");
  event.set("pid", pid);
  event.set("tid", tid);
  Json args = Json::object();
  args.set("name", name);
  event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

void TraceSink::add_complete(int pid, int tid, double ts, double dur, const std::string& name,
                             const std::string& categories, Json args) {
  Json event = event_base(pid, tid, ts, name, categories);
  event.set("ph", "X");
  event.set("dur", dur * time_scale_);
  if (!args.is_null()) event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

void TraceSink::add_instant(int pid, int tid, double ts, const std::string& name,
                            const std::string& categories, Json args) {
  Json event = event_base(pid, tid, ts, name, categories);
  event.set("ph", "i");
  event.set("s", "t");
  if (!args.is_null()) event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

void TraceSink::add_process_instant(int pid, double ts, const std::string& name,
                                    const std::string& categories, Json args) {
  Json event = event_base(pid, 0, ts, name, categories);
  event.set("ph", "i");
  event.set("s", "p");
  if (!args.is_null()) event.set("args", std::move(args));
  events_.push_back(std::move(event));
}

void TraceSink::add_framework_event(double ts, const std::string& name, Json args) {
  add_process_instant(kFrameworkPid, ts, name, "framework", std::move(args));
}

void TraceSink::append_run(const sim::RunResult& run, const RunOptions& options) {
  if (run.workers.empty()) {
    throw std::invalid_argument("TraceSink::append_run: run has no workers");
  }

  if (!options.process_name.empty()) set_process_name(options.pid, options.process_name);
  for (std::size_t w = 0; w < run.workers.size(); ++w) {
    set_thread_name(options.pid, static_cast<int>(w), "worker " + std::to_string(w));
  }

  // A lost chunk's would-be end time can be +infinity (permanent crash);
  // clamp its slice to the worker's crash instant so the track shows the
  // work actually sunk, not fiction past the end of the run.
  std::vector<double> crash_time(run.workers.size(),
                                 std::numeric_limits<double>::infinity());
  for (const sim::LifecycleEvent& event : run.events) {
    if (event.kind == FlightEventKind::kWorkerCrashed &&
        event.worker < crash_time.size()) {
      crash_time[event.worker] = std::min(crash_time[event.worker], event.time);
    }
  }

  if (run.serial_end > 0.0) {
    add_complete(options.pid, 0, 0.0, run.serial_end, "serial", "serial");
  }

  for (const sim::ChunkTraceEntry& chunk : run.trace) {
    const int tid = static_cast<int>(chunk.worker);
    if (chunk.start_time > chunk.dispatch_time) {
      add_complete(options.pid, tid, chunk.dispatch_time,
                   chunk.start_time - chunk.dispatch_time, "dispatch", "overhead");
    }
    double end = chunk.end_time;
    if (chunk.lost) {
      const double crash = crash_time[chunk.worker];
      end = std::isfinite(crash) ? std::max(crash, chunk.start_time)
                                 : std::min(end, run.makespan);
    }
    if (!std::isfinite(end)) end = run.makespan;
    Json args = Json::object();
    args.set("iterations", chunk.iterations);
    args.set("lost", chunk.lost);
    // Speculation markers only when set, so non-speculative traces (and
    // their goldens) are byte-identical to the pre-speculation format.
    if (chunk.speculative) args.set("speculative", true);
    if (chunk.cancelled) args.set("cancelled", true);
    // Gray-failure markers follow the same only-when-set rule: audit
    // replicas and canary probes never appear in gray-free traces.
    if (chunk.audit) args.set("audit", true);
    if (chunk.probe) args.set("probe", true);
    std::string categories = "chunk";
    if (chunk.lost) categories += ",lost";
    if (chunk.speculative) categories += ",speculative";
    if (chunk.cancelled) categories += ",cancelled";
    if (chunk.audit) categories += ",audit";
    if (chunk.probe) categories += ",probe";
    add_complete(options.pid, tid, chunk.start_time, end - chunk.start_time, "chunk",
                 categories, std::move(args));
  }

  for (const sim::LifecycleEvent& event : run.events) {
    Json args = Json::object();
    args.set("worker", event.worker);
    if (event.value != 0) args.set("value", event.value);
    add_instant(options.pid, static_cast<int>(event.worker), event.time,
                lifecycle_name(event.kind), "lifecycle", std::move(args));
  }

  if (options.epoch_length > 0.0) {
    std::size_t markers = 0;
    for (double t = options.epoch_length; t < run.makespan && markers < 512;
         t += options.epoch_length, ++markers) {
      add_process_instant(options.pid, t, "availability_epoch", "epoch");
    }
  }
}

Json TraceSink::to_json() const {
  Json doc = Json::object();
  doc.set("displayTimeUnit", "ms");
  Json events = Json::array();
  for (const Json& event : events_) events.push_back(event);
  doc.set("traceEvents", std::move(events));
  return doc;
}

std::string TraceSink::to_string() const { return to_json().dump(1); }

void TraceSink::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("TraceSink::write: cannot open " + path);
  out << to_string() << "\n";
  out.flush();  // so a full disk fails here, not silently at close
  if (!out) throw std::runtime_error("TraceSink::write: write failed for " + path);
}

}  // namespace cdsf::obs
