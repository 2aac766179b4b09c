#include "exec/event_stream.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace rcc {

using obs::TraceEventKind;

void EventStream::Record(const GuardRecord& r) {
  const GuardObservation& p = r.probe;
  ++stats_.guard_evaluations;
  if (!p.heartbeat_known) {
    ++stats_.guard_unknown_region;
    if (!HeartbeatValid(p.health)) ++stats_.guard_quarantined_region;
  }
  if (r.reprobe) return;
  if (trace_ != nullptr) {
    trace_->Record(obs::TraceEvent{
        TraceEventKind::kGuardProbe, p.at, p.region,
        StrPrintf(
            "region=%d heartbeat=%s bound=%s floor=%s verdict=%s health=%s",
            p.region,
            p.heartbeat_known ? FormatSimTime(p.heartbeat).c_str()
                              : "unknown",
            FormatSimTime(p.bound_ms).c_str(),
            FormatSimTime(p.floor_ms).c_str(),
            p.verdict_local ? "local" : "stale",
            std::string(RegionHealthName(p.health)).c_str()),
        p.health});
  }
  if (sink_ != nullptr) sink_->OnGuardProbe(Stamped(p));
}

void EventStream::Record(const SwitchRecord& r) {
  using Branch = SwitchRecord::Branch;
  if (r.branch == Branch::kRemote) ++stats_.switch_remote_attempted;
  if (r.branch == Branch::kRemoteServed) ++stats_.switch_remote;
  if (trace_ == nullptr || r.branch == Branch::kRemoteServed) return;
  Trace(TraceEventKind::kSwitchDecision, r.at,
        r.branch == Branch::kLocal ? "local" : "remote", r.region);
}

void EventStream::Record(const ServeRecord& r) {
  const ServeObservation& s = r.serve;
  if (s.local) {
    ++stats_.switch_local;
    stats_.max_seen_heartbeat =
        std::max(stats_.max_seen_heartbeat, s.heartbeat);
  }
  if (s.degraded) {
    ++stats_.degraded_serves;
    if (s.shed) ++stats_.shed_serves;
    stats_.degraded_staleness_ms =
        std::max(stats_.degraded_staleness_ms, r.verdict.staleness);
    if (trace_ != nullptr) {
      std::string detail = StrPrintf(
          "region=%d staleness=%s within_bound=%s", s.region,
          FormatSimTime(r.verdict.staleness).c_str(),
          r.verdict.within_bound ? "yes" : "no");
      if (!s.shed) detail += " remote_error=" + r.remote_error->ToString();
      Trace(s.shed ? TraceEventKind::kShedServe
                   : TraceEventKind::kDegradedServe,
            s.at, std::move(detail), s.region);
    }
  }
  if (sink_ == nullptr) return;
  ServeObservation stamped = Stamped(s);
  const std::set<InputOperandId> operands =
      s.local ? r.op->delivered.AllOperands() : r.op->remote_operands;
  stamped.operands.assign(operands.begin(), operands.end());
  sink_->OnServe(stamped);
}

void EventStream::Record(const FetchRecord& r) {
  ++stats_.remote_queries;
  // A remote fetch reads the latest back-end snapshot.
  stats_.max_seen_heartbeat = std::max(stats_.max_seen_heartbeat, r.at);
  if (trace_ == nullptr) return;
  Trace(TraceEventKind::kRemoteFetch, r.at, StrPrintf("rows=%zu", r.rows));
}

void EventStream::Record(const LinkRecord& r) {
  if (r.kind == TraceEventKind::kRemoteBackoff) ++stats_.remote_retries;
  if (r.kind == TraceEventKind::kRemoteTimeout) ++stats_.remote_timeouts;
  if (r.kind == TraceEventKind::kBreakerOpen) ++stats_.breaker_opens;
  if (trace_ == nullptr) return;
  std::string detail;
  switch (r.kind) {
    case TraceEventKind::kRemoteBackoff:
      detail = StrPrintf("retry=%d delay=%s", r.attempt,
                         FormatSimTime(r.ms).c_str());
      break;
    case TraceEventKind::kRemoteTimeout:
      detail = StrPrintf("attempt=%d timeout=%s backend_took=%s", r.attempt,
                         FormatSimTime(r.ms).c_str(),
                         FormatSimTime(r.backend_ms).c_str());
      break;
    case TraceEventKind::kBreakerOpen:
      detail = "cooldown until " + FormatSimTime(r.ms);
      break;
    case TraceEventKind::kBreakerFastFail:
      detail = "back-end marked down until " + FormatSimTime(r.ms);
      break;
    default:
      detail = StrPrintf("attempt=%d", r.attempt);
  }
  Trace(r.kind, r.at, std::move(detail));
}

void EventStream::Record(const DeadlineRecord&) { ++stats_.deadline_timeouts; }

void EventStream::Record(const RunRecord& r) {
  stats_.rows_returned += r.rows;
  stats_.setup_ms += r.setup_ms;
  stats_.run_ms += r.run_ms;
  stats_.shutdown_ms += r.shutdown_ms;
}

void EventStream::Record(const DeliveryRecord& r) {
  if (trace_ == nullptr) return;
  Trace(TraceEventKind::kReplicationDelivery, r.at,
        StrPrintf("region=%d ops=%lld heartbeat=%s", r.region,
                  static_cast<long long>(r.ops),
                  r.heartbeat.has_value() ? FormatSimTime(*r.heartbeat).c_str()
                                          : "none"),
        r.region);
}

void EventStream::Record(const HealthRecord& r) {
  if (trace_ == nullptr) return;
  Trace(TraceEventKind::kRegionHealth, r.at,
        StrPrintf("region=%d from=%s to=%s", r.region,
                  std::string(RegionHealthName(r.from)).c_str(),
                  std::string(RegionHealthName(r.to)).c_str()),
        r.region);
}

void EventStream::Record(const RouteObservation& r) {
  if (trace_ != nullptr) {
    const auto eligible =
        std::count_if(r.probes.begin(), r.probes.end(),
                      [](const RouteProbe& p) { return p.eligible; });
    Trace(TraceEventKind::kRoute, r.at,
          StrPrintf("node=%d backend_tier=%s probes=%zu eligible=%lld",
                    r.node, r.backend_tier ? "yes" : "no", r.probes.size(),
                    static_cast<long long>(eligible)));
  }
  if (sink_ != nullptr) sink_->OnRoute(Stamped(r));
}

}  // namespace rcc
