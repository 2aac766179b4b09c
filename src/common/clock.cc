#include "common/clock.h"

#include <cstdio>
#include <memory>

namespace rcc {

void VirtualClock::AdvanceTo(SimTimeMs t) {
  if (t > now_) now_ = t;
}

void SimulationScheduler::ScheduleAt(SimTimeMs at,
                                     std::function<void(SimTimeMs)> fn,
                                     CancelToken cancel) {
  SimEvent ev;
  ev.at = at < clock_->Now() ? clock_->Now() : at;
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  ev.cancel = std::move(cancel);
  queue_.push(std::move(ev));
}

void SimulationScheduler::SchedulePeriodic(SimTimeMs first, SimTimeMs period,
                                           std::function<void(SimTimeMs)> fn,
                                           CancelToken cancel) {
  // The wrapper reschedules itself after each firing; the cancel token rides
  // along on every rescheduled event, so cancellation also ends the series.
  auto wrapper = std::make_shared<std::function<void(SimTimeMs)>>();
  auto body = fn;
  *wrapper = [this, period, body, wrapper, cancel](SimTimeMs now) {
    body(now);
    ScheduleAt(now + period, *wrapper, cancel);
  };
  ScheduleAt(first, *wrapper, cancel);
}

void SimulationScheduler::RunUntil(SimTimeMs t) {
  while (!queue_.empty() && queue_.top().at <= t) {
    SimEvent ev = queue_.top();
    queue_.pop();
    clock_->AdvanceTo(ev.at);
    if (ev.cancel != nullptr && ev.cancel->load(std::memory_order_acquire)) {
      continue;
    }
    ev.fn(clock_->Now());
  }
  clock_->AdvanceTo(t);
}

std::string FormatSimTime(SimTimeMs t) {
  // Sign, then magnitude: -1 ms is "-0.001s" (the unset timeline floor).
  const unsigned long long mag =
      t < 0 ? 0ULL - static_cast<unsigned long long>(t)
            : static_cast<unsigned long long>(t);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%llu.%03llus", t < 0 ? "-" : "",
                mag / 1000, mag % 1000);
  return buf;
}

}  // namespace rcc
