#include "src/net/event_sim.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace apx {

void EventSimulator::schedule_at(SimTime t, Handler fn) {
  assert(fn);
  if (t < now_) t = now_;
  queue_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void EventSimulator::schedule_after(SimDuration delay, Handler fn) {
  schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
}

bool EventSimulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.t;
  ev.fn();
  return true;
}

std::size_t EventSimulator::run_until(SimTime t) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.front().t <= t) {
    step();
    ++executed;
  }
  if (now_ < t) now_ = t;
  return executed;
}

std::size_t EventSimulator::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && step()) ++executed;
  return executed;
}

}  // namespace apx
