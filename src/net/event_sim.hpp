#pragma once
// Single-threaded discrete-event simulator: the spine of every multi-device
// experiment. Events with equal timestamps fire in scheduling order (a
// monotone sequence number breaks ties), which keeps runs bit-reproducible.

#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/clock.hpp"

namespace apx {

/// Minimal discrete-event loop over SimTime.
class EventSimulator {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time. Advances only while events execute.
  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  void schedule_at(SimTime t, Handler fn);

  /// Schedules `fn` after `delay` (negative delays clamp to zero).
  void schedule_after(SimDuration delay, Handler fn);

  /// Runs the earliest pending event. Returns false when none remain.
  bool step();

  /// Runs every event with time <= `t`, then sets now to `t`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime t);

  /// Drains the queue (events may schedule more events); `max_events`
  /// guards against runaway self-scheduling loops.
  std::size_t run_all(std::size_t max_events = 100'000'000);

  std::size_t pending() const noexcept { return queue_.size(); }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Binary heap under Later (earliest event at front). A plain vector
  /// rather than std::priority_queue so step() can move the event out
  /// instead of copying its handler and captured payload.
  std::vector<Event> queue_;
};

}  // namespace apx
