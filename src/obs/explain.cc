#include "obs/explain.h"

#include <vector>

#include "common/strings.h"
#include "exec/exec_context.h"

namespace rcc {
namespace obs {

namespace {

/// One plan line: indentation, optional branch label, operator description,
/// and the estimated guard-pass probability on SwitchUnion nodes.
void RenderOp(const PhysicalOp& op, int indent, const char* label,
              std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  if (label != nullptr) {
    *out += label;
    *out += ": ";
  }
  *out += op.Describe();
  if (op.kind == PhysOpKind::kSwitchUnion && op.est_local_p >= 0) {
    *out += StrPrintf(" est_p_local=%.2f", op.est_local_p);
  }
  *out += "\n";
  if (op.kind == PhysOpKind::kSwitchUnion && op.children.size() == 2) {
    RenderOp(*op.children[0], indent + 1, "local", out);
    RenderOp(*op.children[1], indent + 1, "remote", out);
    return;
  }
  for (const auto& child : op.children) {
    RenderOp(*child, indent + 1, nullptr, out);
  }
}

/// Collects the SwitchUnion nodes of the plan (root tree plus subplans), in
/// render order.
void CollectSwitches(const PhysicalOp& op,
                     std::vector<const PhysicalOp*>* out) {
  if (op.kind == PhysOpKind::kSwitchUnion) out->push_back(&op);
  for (const auto& child : op.children) CollectSwitches(*child, out);
}

}  // namespace

std::string RenderExplain(const QueryPlan& plan, bool cached) {
  std::string out = StrPrintf(
      "plan shape: %s\nest cost: %.3f\n",
      std::string(PlanShapeName(plan.Shape())).c_str(), plan.est_cost);
  if (cached) out += "plan: cached\n";
  std::string constraint = plan.resolved.constraint.ToString();
  if (!constraint.empty()) out += "constraint: " + constraint + "\n";
  RenderOp(*plan.root, 0, nullptr, &out);
  for (const auto& [stmt, sub] : plan.subplans) {
    out += "subplan:\n";
    RenderOp(*sub.root, 1, nullptr, &out);
  }
  return out;
}

std::string RenderExplainAnalyze(const QueryPlan& plan, const ExecStats& stats,
                                 const QueryTrace& trace, bool cached) {
  std::string out = RenderExplain(plan, cached);

  // Estimated vs. actual branch choice, one line per guard decision. A
  // degraded switch shows up as an extra decision on the same region.
  out += "-- guards --\n";
  std::vector<const PhysicalOp*> switches;
  CollectSwitches(*plan.root, &switches);
  for (const auto& [stmt, sub] : plan.subplans) {
    CollectSwitches(*sub.root, &switches);
  }
  std::vector<bool> consumed(switches.size(), false);
  // Carry the latest guard probe's pipeline health forward onto the
  // decision line, so a quarantined region is visible at a glance.
  const TraceEvent* last_probe = nullptr;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEventKind::kGuardProbe) {
      last_probe = &e;
      continue;
    }
    if (e.kind != TraceEventKind::kSwitchDecision) continue;
    double est_p = -1;
    for (size_t i = 0; i < switches.size(); ++i) {
      if (!consumed[i] && switches[i]->guard_region == e.region) {
        est_p = switches[i]->est_local_p;
        consumed[i] = true;
        break;
      }
    }
    out += StrPrintf("guard region=%lld est_p_local=%.2f actual: %s",
                     static_cast<long long>(e.region), est_p, e.detail.c_str());
    if (last_probe != nullptr) {
      out += " health=";
      out += RegionHealthName(last_probe->health);
    }
    out += "\n";
  }

  out += "-- trace --\n";
  out += trace.Render();

  out += "-- stats --\n";
  out += StrPrintf(
      "rows=%lld remote_queries=%lld guard_evaluations=%lld\n"
      "guard refusals: unknown_region=%lld quarantined_region=%lld\n"
      "switch: local=%lld remote=%lld remote_attempted=%lld\n"
      "resilience: retries=%lld timeouts=%lld breaker_opens=%lld\n"
      "degraded: serves=%lld max_staleness=%s\n"
      "phases: setup=%.3fms run=%.3fms shutdown=%.3fms\n",
      static_cast<long long>(stats.rows_returned),
      static_cast<long long>(stats.remote_queries),
      static_cast<long long>(stats.guard_evaluations),
      static_cast<long long>(stats.guard_unknown_region),
      static_cast<long long>(stats.guard_quarantined_region),
      static_cast<long long>(stats.switch_local),
      static_cast<long long>(stats.switch_remote),
      static_cast<long long>(stats.switch_remote_attempted),
      static_cast<long long>(stats.remote_retries),
      static_cast<long long>(stats.remote_timeouts),
      static_cast<long long>(stats.breaker_opens),
      static_cast<long long>(stats.degraded_serves),
      FormatSimTime(stats.degraded_staleness_ms).c_str(), stats.setup_ms,
      stats.run_ms, stats.shutdown_ms);
  return out;
}

}  // namespace obs
}  // namespace rcc
