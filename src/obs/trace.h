#ifndef RCC_OBS_TRACE_H_
#define RCC_OBS_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "replication/health.h"

namespace rcc {
namespace obs {

/// The trace event vocabulary (DESIGN.md §9). One query produces one ordered
/// stream of these; every event carries the virtual time it happened at plus
/// a rendered `key=value` payload.
enum class TraceEventKind {
  /// Currency-guard probe: heartbeat (or "unknown"), bound, timeline floor,
  /// verdict.
  kGuardProbe,
  /// SwitchUnion branch decision: region, branch, reason.
  kSwitchDecision,
  /// One attempt on the cache↔back-end link: attempt number, latency, result.
  kRemoteAttempt,
  /// Backoff wait before a retry: retry number, delay.
  kRemoteBackoff,
  /// An attempt abandoned at the per-attempt timeout.
  kRemoteTimeout,
  /// The circuit breaker tripped open (cooldown deadline in the payload).
  kBreakerOpen,
  /// A call failed fast against an already-open breaker.
  kBreakerFastFail,
  /// A remote statement completed and returned rows.
  kRemoteFetch,
  /// The query was answered from a local view after remote failure: region,
  /// staleness, degrade mode.
  kDegradedServe,
  /// The query was answered from a local view *pre-emptively* under overload
  /// pressure (admission-layer shed hint), without attempting the remote
  /// branch: region, staleness, within_bound.
  kShedServe,
  /// A replication delivery landed while this query waited (retry backoff):
  /// region, ops applied, new heartbeat.
  kReplicationDelivery,
  /// A region's replication-pipeline health changed: region, from, to.
  kRegionHealth,
  /// A fleet-router dispatch attempt: chosen node, backend tier, probes
  /// taken and how many were eligible.
  kRoute,
};

std::string_view TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kGuardProbe;
  /// Virtual time the event happened at.
  SimTimeMs at = 0;
  /// Currency region the event concerns; -1 when not region-scoped.
  int64_t region = -1;
  /// Rendered `key=value` payload.
  std::string detail;
  /// Guard probes: pipeline health of the probed snapshot (EXPLAIN ANALYZE
  /// prints it on the guard's decision line).
  RegionHealth health = RegionHealth::kHealthy;
};

/// Structured per-query trace. A trace is owned by one query execution and
/// only ever appended to from the thread running that query, so recording
/// needs no synchronization. Only the statement's EventStream renders into
/// it, and only when the statement is traced.
class QueryTrace {
 public:
  void Record(TraceEvent event) { events_.push_back(std::move(event)); }

  const std::vector<TraceEvent>& events() const { return events_; }

  int CountOf(TraceEventKind kind) const;
  const TraceEvent* FirstOf(TraceEventKind kind) const;

  /// Multi-line rendering, one `[time] kind detail` line per event.
  std::string Render() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace obs
}  // namespace rcc

#endif  // RCC_OBS_TRACE_H_
