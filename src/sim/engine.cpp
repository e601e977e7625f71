#include "sim/engine.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace cdsf::sim {

void Engine::schedule_at(double time, Handler handler) {
  if (!std::isfinite(time)) throw std::invalid_argument("Engine::schedule_at: time must be finite");
  if (time < now_) throw std::invalid_argument("Engine::schedule_at: time is in the past");
  queue_.push(Event{time, next_sequence_++, std::move(handler)});
}

void Engine::schedule_after(double delay, Handler handler) {
  if (delay < 0.0) throw std::invalid_argument("Engine::schedule_after: delay must be >= 0");
  schedule_at(now_ + delay, std::move(handler));
}

Engine::EventId Engine::schedule_cancellable_at(double time, Handler handler) {
  const EventId id = next_sequence_;
  schedule_at(time, std::move(handler));
  return id;
}

bool Engine::cancel(EventId id) {
  if (id == kNoEvent || id >= next_sequence_) return false;
  return cancelled_.insert(id).second;
}

std::uint64_t Engine::run_until(double horizon, std::uint64_t max_events) {
  if (std::isnan(horizon)) throw std::invalid_argument("Engine::run_until: horizon is NaN");
  std::uint64_t dispatched = 0;
  while (!queue_.empty() && queue_.top().time <= horizon) {
    if (dispatched >= max_events) {
      throw std::runtime_error("Engine::run: event budget exhausted (runaway simulation?)");
    }
    // Copy out before pop so the handler may schedule new events.
    Event event = queue_.top();
    queue_.pop();
    if (!cancelled_.empty() && cancelled_.erase(event.sequence) > 0) continue;
    now_ = event.time;
    ++dispatched;
    event.handler();
  }
  return dispatched;
}

}  // namespace cdsf::sim
