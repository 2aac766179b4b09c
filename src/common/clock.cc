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

namespace {

/// One firing of a periodic series: runs the body, then schedules a copy of
/// itself one period later. The series owns nothing but its queued event, so
/// its closure is freed once the last event is popped (fired or cancelled)
/// or the scheduler is destroyed.
struct PeriodicFiring {
  SimulationScheduler* scheduler;
  SimTimeMs period;
  std::shared_ptr<const std::function<void(SimTimeMs)>> body;
  CancelToken cancel;

  void operator()(SimTimeMs now) const {
    (*body)(now);
    scheduler->ScheduleAt(now + period, *this, cancel);
  }
};

}  // namespace

void SimulationScheduler::SchedulePeriodic(SimTimeMs first, SimTimeMs period,
                                           std::function<void(SimTimeMs)> fn,
                                           CancelToken cancel) {
  // The cancel token rides along on every rescheduled event, so
  // cancellation also ends the series.
  ScheduleAt(first,
             PeriodicFiring{this, period,
                            std::make_shared<const std::function<void(
                                SimTimeMs)>>(std::move(fn)),
                            cancel},
             cancel);
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
