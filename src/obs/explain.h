#ifndef RCC_OBS_EXPLAIN_H_
#define RCC_OBS_EXPLAIN_H_

#include <string>

#include "obs/trace.h"
#include "plan/physical.h"

namespace rcc {

struct ExecStats;

namespace obs {

/// Renders the physical plan of an optimized query: the operator tree with
/// SwitchUnion branches labelled local/remote, the estimated guard-pass
/// probability p (paper Eq. (1)), per-operator row/cost estimates, and the
/// normalized C&C constraint. This is the `EXPLAIN <select>` output.
/// `cached` = true marks a plan served from the parameterized plan cache
/// (the "plan: cached" line), so applications can tell a fresh optimization
/// from a reuse at a glance.
std::string RenderExplain(const QueryPlan& plan, bool cached = false);

/// `EXPLAIN ANALYZE <select>`: the RenderExplain output followed by what the
/// execution actually did — per-guard estimated vs. actual branch choice, the
/// recorded trace (guard probes with heartbeat/bound/verdict, retries,
/// breaker events, degraded serves, replication deliveries observed), and the
/// executed stats (paper Tables 4.4/4.5 measurements).
std::string RenderExplainAnalyze(const QueryPlan& plan, const ExecStats& stats,
                                 const QueryTrace& trace, bool cached = false);

}  // namespace obs
}  // namespace rcc

#endif  // RCC_OBS_EXPLAIN_H_
