// Flight recorder: an always-on, bounded, per-worker-track ring buffer of
// structured lifecycle events, merged into a deterministic postmortem when
// a run ends badly.
//
// Design constraints, in order:
//   1. Cheap enough to leave enabled by default inside both Stage II
//      executors: recording is a branch, a ring-slot write, and two
//      counter increments — no locking, no allocation after construction.
//      Each run owns its recorder (single writer), so "lock-free-enough"
//      is per-worker tracks merged once at the end of the run.
//   2. Deterministic output: tracks are appended in simulation order and
//      merged with a stable sort keyed on simulated time, so the merged
//      event sequence is byte-identical across thread counts and repeated
//      seeded runs.
//   3. Structurally inert: recording reads no RNG, no wall clock, and
//      never touches the run's event/trace output, so default-config runs
//      stay byte-identical with the recorder on.
//
// Postmortems are schema-tagged `cdsf.flight_record/1` JSON documents:
// the triggering anomaly, per-worker state machines (last known state,
// accept/loss counts, drop counts), and the merged tail of events. The
// process-global FlightSink decides whether a finished record is written
// anywhere; it ships unarmed so library and test code emits no files
// unless a CLI (or test) arms it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cdsf::obs {

/// Schema tag carried by every postmortem dump.
inline constexpr const char* kFlightRecordSchema = "cdsf.flight_record/1";

/// Track index used for coordinator-side events (master receive loop,
/// WAL, checkpoint/restart) that have no single worker.
inline constexpr std::uint32_t kFlightMasterTrack = 0xFFFFFFFFu;

/// The one taxonomy of Stage II happenings, shared by every sink: the
/// flight ring, RunResult::events and the Perfetto trace. The names
/// (flight_event_name) are the cdsf.flight_record/1 schema. The first
/// kLifecycleKinds kinds are the lifecycle markers that RunResult::events
/// lists under SimConfig::collect_trace; the executor digests hash their
/// numeric values, so they keep them and new kinds go at the end. `a`/`b`
/// below are the recorded payloads (docs/observability.md has the table).
enum class FlightEventKind : std::uint8_t {
  // Lifecycle kinds.
  kWorkerCrashed,       // availability process crashed (physical event)
  kWorkerRecovered,     // crashed worker rejoined
  kWorkerSuspected,     // MPI master: a chunk timeout expired (a = probe number)
  kWorkerDeclaredDead,  // MPI master: probe budget exhausted
  kWorkerReinstated,    // MPI master: proof of life from a worker declared dead
  kChunkLost,           // in-flight chunk reclaimed (a = first, b = iterations)
  kStragglerFlagged,    // chunk exceeded its straggler threshold (a, b: range)
  kBackupLaunched,      // speculative backup launched (a, b: range)
  kChunkCancelled,      // losing copy stopped after the winner finished (a, b: range)
  kRiskEscalated,       // deadline-risk monitor tightened speculation (a = ordinal)
  kRetransmit,          // hardened MPI protocol: a message was retransmitted (a = sequence)
  kDedupHit,            // hardened MPI protocol: a re-delivered message was dropped
                        // by sequence dedup (a = sequence)
  kMasterCrashed,       // the MPI master process died
  kMasterRestarted,     // the master resumed from checkpoint + WAL (a = epoch)
  kCheckpoint,          // periodic master snapshot (a = WAL length, b = iterations done)
  kWorkerQuarantined,   // health tracker quarantined the worker
                        // (a = 0 fail-slow EWMA trip, 1 audit trip)
  kCanaryProbe,         // canary chunk sent to a quarantined worker (a, b: range)
  kWorkerRestored,      // quarantined worker reinstated after healthy canaries
  kAuditLaunched,       // audit replica dispatched on the auditing worker (a, b: range)
  kAuditMismatch,       // audit disagreed; recorded on the originating worker (a, b: range)
  kMessageCorrupted,    // hardened MPI protocol: a delivered copy failed its
                        // checksum and was discarded (a = sequence)
  // Flight-only kinds.
  kChunkDispatched,  // (a, b: range)
  kChunkAccepted,    // (a, b: range)
  kBackupWon,        // (a, b: range)
  kRemapTriggered,
  kWalAppend,  // (a = sequence, b = iterations)
  kAdmissionRejected,
  kJobShed,
  kOverloadTierChanged,
  kRequestAdmitted,
  kSolveHedged,
  kSolveTimeout,
  kDrainComplete,
};

/// Number of kinds, and of the leading lifecycle kinds.
inline constexpr std::size_t kFlightEventKinds =
    static_cast<std::size_t>(FlightEventKind::kDrainComplete) + 1;
inline constexpr std::size_t kLifecycleKinds =
    static_cast<std::size_t>(FlightEventKind::kMessageCorrupted) + 1;

/// True for the kinds RunResult::events lists.
[[nodiscard]] constexpr bool is_lifecycle_kind(FlightEventKind kind) noexcept {
  return static_cast<std::size_t>(kind) < kLifecycleKinds;
}

/// Stable lowercase identifier for a kind ("chunk_accepted", ...).
[[nodiscard]] const char* flight_event_name(FlightEventKind kind);

/// One recorded event. `a` and `b` are kind-specific payloads (typically
/// chunk first-iteration and size; see the recording sites).
///
/// Deliberately trivially-default-constructible (no member initializers):
/// the recorder allocates its rings uninitialized and only ever reads
/// slots it has written, so ring construction is one allocation with no
/// memset — part of the always-on overhead budget. Value-initialize
/// (`FlightEvent{}`) when constructing one directly.
struct FlightEvent {
  FlightEventKind kind;     // see FlightEventKind
  double time;              // simulated seconds
  std::uint32_t worker;     // worker index or kFlightMasterTrack
  std::int64_t a;
  std::int64_t b;
};

/// Per-worker state machine derived from the recorded events.
struct FlightWorkerSummary {
  std::string state = "healthy";  // last lifecycle state observed
  std::uint64_t recorded = 0;     // events recorded on this track
  std::uint64_t dropped = 0;      // events evicted from the ring
  std::uint64_t accepted = 0;     // kChunkAccepted count (including evicted)
  std::uint64_t lost = 0;         // kChunkLost count (including evicted)
  std::string last_event;         // kind name of the newest event, "" if none
  double last_event_time = 0.0;
};

/// A finished, merged recording — stored on RunResult so postmortem
/// consumers (anomaly dump, chaos validation) can reach it after the run.
struct FlightRecord {
  bool enabled = false;
  std::vector<FlightEvent> events;  // merged, time-ordered tail
  std::vector<FlightWorkerSummary> workers;  // index == worker; last is master
  std::uint64_t total_recorded = 0;
  std::uint64_t total_dropped = 0;
};

/// What went wrong — attached to the postmortem dump.
struct FlightAnomaly {
  std::string kind;    // "deadline_miss" | "strand" | "master_restart" |
                       // "quarantine_trip" | "chaos_invariant" |
                       // "overload_shed"
  std::string detail;  // human-oriented one-liner
  double time = 0.0;   // simulated time of detection (makespan for post-run)
};

/// Serializes a finished record plus its triggering anomaly as a
/// cdsf.flight_record/1 document. Deterministic: field order is fixed and
/// events carry only simulated time.
[[nodiscard]] Json flight_record_to_json(const FlightRecord& record,
                                         const FlightAnomaly& anomaly);

/// Per-run recorder. Construct with the worker count; track `workers` is
/// the master/coordinator track. Recording is a no-op when disabled.
class FlightRecorder {
 public:
  FlightRecorder(std::size_t workers, std::size_t track_capacity, bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one event on the owning worker's track (kFlightMasterTrack
  /// routes to the coordinator track). Drop-oldest on a full ring.
  void record(FlightEventKind kind, double time, std::uint32_t worker,
              std::int64_t a = 0, std::int64_t b = 0) {
    if (!enabled_) return;
    const std::size_t index =
        worker == kFlightMasterTrack ? tracks_.size() - 1
                                     : std::min<std::size_t>(worker, tracks_.size() - 1);
    Track& track = tracks_[index];
    FlightEvent& slot = ring_[index * capacity_ + track.next];
    if (track.size == capacity_) {
      ++track.dropped;
    } else {
      ++track.size;
    }
    slot.kind = kind;
    slot.time = time;
    slot.worker = worker;
    slot.a = a;
    slot.b = b;
    if (++track.next == capacity_) track.next = 0;
    ++track.recorded;
    if (kind == FlightEventKind::kChunkAccepted) ++track.accepted;
    if (kind == FlightEventKind::kChunkLost) ++track.lost;
    // Lifecycle state and the newest-event fields are tracked here rather
    // than derived in finish(): it keeps the no-anomaly finish O(tracks)
    // and (unlike a ring scan) survives drop-oldest eviction.
    if (const char* state = lifecycle_state_name(kind)) track.state = state;
    track.last_kind = kind;
    track.last_time = time;
  }

  /// Merges every track into a time-ordered record. The recorder can keep
  /// recording afterwards (finish copies), but normal use is record-once,
  /// finish-once at end of run.
  [[nodiscard]] FlightRecord finish() const;

  /// Counters and per-worker summaries only — no event copy, no merge
  /// sort. The cheap path for runs that ended well with no armed sink
  /// (nothing would ever read the merged events); `events` stays empty.
  [[nodiscard]] FlightRecord finish_summary() const;

 private:
  struct Track {
    std::size_t next = 0;  // next write slot
    std::size_t size = 0;  // occupied slots
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t accepted = 0;
    std::uint64_t lost = 0;
    const char* state = "healthy";  // last lifecycle transition observed
    FlightEventKind last_kind = FlightEventKind::kChunkDispatched;
    double last_time = 0.0;
  };

  /// "crashed"/"quarantined"/... for lifecycle kinds, nullptr otherwise.
  [[nodiscard]] static const char* lifecycle_state_name(FlightEventKind kind) noexcept {
    switch (kind) {
      case FlightEventKind::kWorkerCrashed: return "crashed";
      case FlightEventKind::kWorkerRecovered: return "recovered";
      case FlightEventKind::kWorkerSuspected: return "suspected";
      case FlightEventKind::kWorkerDeclaredDead: return "dead";
      case FlightEventKind::kWorkerReinstated: return "reinstated";
      case FlightEventKind::kWorkerQuarantined: return "quarantined";
      case FlightEventKind::kWorkerRestored: return "restored";
      default: return nullptr;
    }
  }

  /// Fills counters and worker summaries (everything but `events`).
  void summarize(FlightRecord& record) const;

  bool enabled_;
  std::size_t capacity_ = 0;
  std::vector<Track> tracks_;  // workers + 1 (master track last)
  // One flat uninitialized buffer, tracks_.size() * capacity_ slots; track
  // t owns [t * capacity_, (t + 1) * capacity_).
  std::unique_ptr<FlightEvent[]> ring_;
};

/// Process-wide kill switch read once from the CDSF_FLIGHT environment
/// variable: "0", "off", or "false" disable recording; anything else
/// (including unset) leaves it on. This is the overhead-bench lever.
[[nodiscard]] bool flight_recording_enabled();

/// Process-global postmortem writer. Unarmed by default: library code and
/// tests produce no files. A CLI arms it with a path prefix and a dump
/// budget; each anomalous run then writes `<prefix>_<n>.json` until the
/// budget is spent. Thread-safe (replicated runs finish concurrently).
class FlightSink {
 public:
  static FlightSink& global();

  /// Arms (or re-arms) the sink. max_dumps bounds files per arming.
  void arm(std::string prefix, std::size_t max_dumps);
  /// Disarms and resets the dump counter.
  void disarm();
  /// True when a dump would currently be written (armed with budget left).
  /// Run finalization uses this to skip the event merge entirely for clean
  /// runs nobody could dump.
  [[nodiscard]] bool armed();
  /// Dumps the sink would still write: 0 when unarmed.
  [[nodiscard]] std::size_t budget_left();

  /// Writes a postmortem if armed, the record is enabled, and budget
  /// remains. Returns the path written, or "" when skipped.
  std::string maybe_dump(const FlightRecord& record, const FlightAnomaly& anomaly);

 private:
  std::mutex mutex_;
  std::string prefix_;
  std::size_t max_dumps_ = 0;
  std::size_t dumped_ = 0;
};

}  // namespace cdsf::obs
