// Minimal discrete-event simulation core: a time-ordered event queue with
// deterministic FIFO tie-breaking and a run loop.
//
// The loop executor (src/sim/loop_executor.hpp), the dynamic manager
// (src/cdsf/dynamic_manager.cpp) and the scheduling service's Phase A
// (src/svc/service.cpp) are built on this engine; the engine itself is
// application-agnostic and reusable for other scheduling studies.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>
#include <vector>

namespace cdsf::sim {

/// Event-driven simulation clock and dispatcher.
class Engine {
 public:
  using Handler = std::function<void()>;
  /// Token for cancel(); kNoEvent is never a live event.
  using EventId = std::uint64_t;
  static constexpr EventId kNoEvent = 0;

  /// Schedules `handler` at absolute time `time`. Throws
  /// std::invalid_argument if time is before the current clock (no
  /// time travel) or not finite.
  void schedule_at(double time, Handler handler);

  /// Schedules `handler` `delay` time units from now. Throws if delay < 0.
  void schedule_after(double delay, Handler handler);

  /// As schedule_at, but returns a token that cancel() accepts. Used by the
  /// speculation layer to kill the losing copy's completion event instead
  /// of threading stale-handler guards through every closure.
  [[nodiscard]] EventId schedule_cancellable_at(double time, Handler handler);

  /// Cancels a pending event scheduled with schedule_cancellable_at: its
  /// handler will not run. Returns false for kNoEvent. Callers must not
  /// cancel an id whose handler has already run (the executors track
  /// per-chunk state, so they always know) — doing so would leave a dead
  /// tombstone in the cancellation set for the rest of the run.
  bool cancel(EventId id);

  /// Dispatches every event at or before `horizon`, including ones that
  /// handlers schedule at or before it, and leaves later events pending for
  /// a later call. Returns the number of events dispatched. Throws
  /// std::invalid_argument on a NaN horizon, and std::runtime_error if
  /// `max_events` events were dispatched with events at or before the
  /// horizon still pending (runaway simulation guard).
  std::uint64_t run_until(double horizon, std::uint64_t max_events = kDefaultMaxEvents);

  /// Runs until the queue drains: run_until with an infinite horizon.
  std::uint64_t run(std::uint64_t max_events = kDefaultMaxEvents) {
    return run_until(std::numeric_limits<double>::infinity(), max_events);
  }

  /// Current simulation time (the timestamp of the last dispatched event;
  /// run_until does not advance it to the horizon).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Number of events waiting in the queue.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  static constexpr std::uint64_t kDefaultMaxEvents = 50'000'000;

 private:
  struct Event {
    double time;
    std::uint64_t sequence;  // FIFO order among same-time events; doubles
                             // as the EventId (sequence 0 is reserved for
                             // kNoEvent — the counter starts at 1)
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace cdsf::sim
