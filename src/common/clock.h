#ifndef RCC_COMMON_CLOCK_H_
#define RCC_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace rcc {

/// Simulated time in milliseconds since simulation start. All
/// replication/heartbeat/currency arithmetic in the library uses this type so
/// that experiments (e.g. the Fig. 4.2 workload-shift curves) are
/// deterministic and independent of wall-clock speed.
using SimTimeMs = int64_t;

/// A virtual clock. The paper's prototype measures currency against
/// wall-clock time on SQL Server machines; we substitute a discrete virtual
/// clock that replication agents, heartbeats, and queries share.
class VirtualClock {
 public:
  VirtualClock() = default;

  /// Current virtual time.
  SimTimeMs Now() const { return now_; }

  /// Advances the clock; time never moves backwards.
  void AdvanceTo(SimTimeMs t);
  void AdvanceBy(SimTimeMs delta) { AdvanceTo(now_ + delta); }

 private:
  SimTimeMs now_ = 0;
};

/// Shared flag that cancels scheduled events. Owners hand the same token to
/// every event they schedule; setting it to true makes pending events no-ops
/// and stops periodic events from rescheduling. shared_ptr ownership means
/// the flag outlives both the owner and the queue, so a cancelled event
/// never touches freed memory (the DistributionAgent::Stop() contract).
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken MakeCancelToken() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// A single scheduled simulation event.
struct SimEvent {
  SimTimeMs at = 0;
  /// Tie-break so that events scheduled earlier fire first at equal times.
  uint64_t seq = 0;
  std::function<void(SimTimeMs)> fn;
  /// When set and true at fire time, the event is skipped (and, for periodic
  /// events, not rescheduled).
  CancelToken cancel;
};

/// Minimal discrete-event scheduler driving the replication simulator.
/// Events are callbacks; periodic events re-schedule themselves.
class SimulationScheduler {
 public:
  explicit SimulationScheduler(VirtualClock* clock) : clock_(clock) {}

  SimulationScheduler(const SimulationScheduler&) = delete;
  SimulationScheduler& operator=(const SimulationScheduler&) = delete;

  /// Schedules `fn` to run at absolute virtual time `at` (clamped to now).
  /// A non-null `cancel` token set to true before the event fires turns the
  /// firing into a no-op.
  void ScheduleAt(SimTimeMs at, std::function<void(SimTimeMs)> fn,
                  CancelToken cancel = nullptr);

  /// Schedules `fn` every `period` ms, first firing at `first`. A non-null
  /// `cancel` token set to true stops the series: the pending firing is
  /// skipped and nothing further is rescheduled.
  void SchedulePeriodic(SimTimeMs first, SimTimeMs period,
                        std::function<void(SimTimeMs)> fn,
                        CancelToken cancel = nullptr);

  /// Runs all events with timestamp <= t, advancing the clock through each
  /// event time and finally to t itself.
  void RunUntil(SimTimeMs t);

  /// Number of events currently pending.
  size_t pending() const { return queue_.size(); }

  VirtualClock* clock() const { return clock_; }

 private:
  struct EventCompare {
    bool operator()(const SimEvent& a, const SimEvent& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  VirtualClock* clock_;
  uint64_t next_seq_ = 0;
  std::priority_queue<SimEvent, std::vector<SimEvent>, EventCompare> queue_;
};

/// Formats a SimTimeMs as seconds with millisecond precision, e.g. "12.345s"
/// or, for a negative value, "-0.001s".
std::string FormatSimTime(SimTimeMs t);

}  // namespace rcc

#endif  // RCC_COMMON_CLOCK_H_
