#include "obs/trace.h"

#include "common/strings.h"

namespace rcc {
namespace obs {

std::string_view TraceEventKindName(TraceEventKind kind) {
  // Indexed by the enum, in declaration order.
  static constexpr std::string_view kNames[] = {
      "guard_probe",      "switch_decision",      "remote_attempt",
      "remote_backoff",   "remote_timeout",       "breaker_open",
      "breaker_fastfail", "remote_fetch",         "degraded_serve",
      "shed_serve",       "replication_delivery", "region_health",
      "route"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(TraceEventKind::kRoute) + 1);
  const auto i = static_cast<size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "?";
}

int QueryTrace::CountOf(TraceEventKind kind) const {
  int n = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

const TraceEvent* QueryTrace::FirstOf(TraceEventKind kind) const {
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

std::string QueryTrace::Render() const {
  std::string out;
  for (const TraceEvent& e : events_) {
    out += StrPrintf("[%s] %-20s %s\n", FormatSimTime(e.at).c_str(),
                     std::string(TraceEventKindName(e.kind)).c_str(),
                     e.detail.c_str());
  }
  return out;
}

}  // namespace obs
}  // namespace rcc
