#include "obs/flight.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace cdsf::obs {

const char* flight_event_name(FlightEventKind kind) {
  // The cdsf.flight_record/1 names, indexed by kind.
  static constexpr std::array<const char*, kFlightEventKinds> kNames = {
      "worker_crashed", "worker_recovered", "worker_suspected", "worker_declared_dead",
      "worker_reinstated", "chunk_lost", "straggler_flagged", "backup_launched", "chunk_cancelled",
      "risk_escalated", "retransmit", "dedup_hit", "master_crashed", "master_restarted",
      "checkpoint", "worker_quarantined", "canary_probe", "worker_restored", "audit_launched",
      "audit_mismatch", "message_corrupted", "chunk_dispatched", "chunk_accepted", "backup_won",
      "remap_triggered", "wal_append", "admission_rejected", "job_shed", "overload_tier_changed",
      "request_admitted", "solve_hedged", "solve_timeout", "drain_complete"};
  const auto index = static_cast<std::size_t>(kind);
  return index < kNames.size() ? kNames[index] : "unknown";
}

FlightRecorder::FlightRecorder(std::size_t workers, std::size_t track_capacity,
                               bool enabled)
    : enabled_(enabled && track_capacity > 0) {
  if (!enabled_) return;
  capacity_ = track_capacity;
  tracks_.resize(workers + 1);
  // Deliberately uninitialized (make_unique would value-initialize): only
  // written slots are ever read, and zeroing ~tracks*capacity slots per run
  // would dominate the recorder's always-on budget.
  ring_ = std::unique_ptr<FlightEvent[]>(new FlightEvent[tracks_.size() * capacity_]);
}

void FlightRecorder::summarize(FlightRecord& record) const {
  record.workers.resize(tracks_.size());
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    const Track& track = tracks_[t];
    FlightWorkerSummary& summary = record.workers[t];
    summary.recorded = track.recorded;
    summary.dropped = track.dropped;
    summary.accepted = track.accepted;
    summary.lost = track.lost;
    summary.state = track.state;
    if (track.recorded > 0) {
      summary.last_event = flight_event_name(track.last_kind);
      summary.last_event_time = track.last_time;
    }
    record.total_recorded += track.recorded;
    record.total_dropped += track.dropped;
  }
}

FlightRecord FlightRecorder::finish() const {
  FlightRecord record;
  record.enabled = enabled_;
  if (!enabled_) return record;
  summarize(record);
  std::size_t total = 0;
  for (const Track& track : tracks_) total += track.size;
  record.events.reserve(total);
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    const Track& track = tracks_[t];
    const FlightEvent* ring = ring_.get() + t * capacity_;
    // Unroll the ring chronologically: oldest slot first. A full ring's
    // oldest entry sits at `next` (the slot about to be overwritten).
    const std::size_t start = track.size == capacity_ ? track.next : 0;
    for (std::size_t i = start; i < track.size; ++i) record.events.push_back(ring[i]);
    for (std::size_t i = 0; i < start; ++i) record.events.push_back(ring[i]);
  }
  // Tracks were concatenated in track order and each track is already
  // chronological, so a stable sort on time gives one deterministic merged
  // sequence: ties resolve by track index.
  std::stable_sort(record.events.begin(), record.events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.time < y.time;
                   });
  return record;
}

FlightRecord FlightRecorder::finish_summary() const {
  FlightRecord record;
  record.enabled = enabled_;
  if (!enabled_) return record;
  summarize(record);
  return record;
}

Json flight_record_to_json(const FlightRecord& record, const FlightAnomaly& anomaly) {
  Json out = Json::object();
  out.set("schema", kFlightRecordSchema);
  Json anomaly_json = Json::object();
  anomaly_json.set("kind", anomaly.kind);
  anomaly_json.set("detail", anomaly.detail);
  anomaly_json.set("time", anomaly.time);
  out.set("anomaly", std::move(anomaly_json));
  out.set("total_recorded", static_cast<std::int64_t>(record.total_recorded));
  out.set("total_dropped", static_cast<std::int64_t>(record.total_dropped));
  Json workers = Json::array();
  for (std::size_t w = 0; w < record.workers.size(); ++w) {
    const FlightWorkerSummary& summary = record.workers[w];
    Json entry = Json::object();
    const bool master = w + 1 == record.workers.size();
    entry.set("worker", master ? Json("master") : Json(static_cast<std::int64_t>(w)));
    entry.set("state", summary.state);
    entry.set("recorded", static_cast<std::int64_t>(summary.recorded));
    entry.set("dropped", static_cast<std::int64_t>(summary.dropped));
    entry.set("accepted", static_cast<std::int64_t>(summary.accepted));
    entry.set("lost", static_cast<std::int64_t>(summary.lost));
    entry.set("last_event", summary.last_event);
    entry.set("last_event_time", summary.last_event_time);
    workers.push_back(std::move(entry));
  }
  out.set("workers", std::move(workers));
  Json events = Json::array();
  for (const FlightEvent& event : record.events) {
    Json entry = Json::object();
    entry.set("t", event.time);
    entry.set("worker", event.worker == kFlightMasterTrack
                            ? Json("master")
                            : Json(static_cast<std::int64_t>(event.worker)));
    entry.set("kind", flight_event_name(event.kind));
    entry.set("a", event.a);
    entry.set("b", event.b);
    events.push_back(std::move(entry));
  }
  out.set("events", std::move(events));
  return out;
}

bool flight_recording_enabled() {
  static const bool enabled = [] {
    const char* value = std::getenv("CDSF_FLIGHT");
    if (value == nullptr) return true;
    const std::string v(value);
    return !(v == "0" || v == "off" || v == "false");
  }();
  return enabled;
}

FlightSink& FlightSink::global() {
  static FlightSink sink;
  return sink;
}

void FlightSink::arm(std::string prefix, std::size_t max_dumps) {
  std::lock_guard lock(mutex_);
  prefix_ = std::move(prefix);
  max_dumps_ = max_dumps;
  dumped_ = 0;
}

void FlightSink::disarm() {
  std::lock_guard lock(mutex_);
  prefix_.clear();
  max_dumps_ = 0;
  dumped_ = 0;
}

bool FlightSink::armed() { return budget_left() > 0; }

std::size_t FlightSink::budget_left() {
  std::lock_guard lock(mutex_);
  return prefix_.empty() ? 0 : max_dumps_ - dumped_;  // dumped_ <= max_dumps_
}

std::string FlightSink::maybe_dump(const FlightRecord& record,
                                   const FlightAnomaly& anomaly) {
  if (!record.enabled) return {};
  std::lock_guard lock(mutex_);
  if (prefix_.empty() || dumped_ >= max_dumps_) return {};
  const std::string path = prefix_ + "_" + std::to_string(dumped_) + ".json";
  std::ofstream out(path);
  if (!out) return {};
  out << flight_record_to_json(record, anomaly).dump(1) << "\n";
  out.flush();  // a dump that never reached the file does not count
  if (!out) return {};
  ++dumped_;
  return path;
}

}  // namespace cdsf::obs
