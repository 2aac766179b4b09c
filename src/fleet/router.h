#ifndef RCC_FLEET_ROUTER_H_
#define RCC_FLEET_ROUTER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/statement_router.h"
#include "obs/metrics.h"

namespace rcc {
namespace fleet {

class FleetSystem;

/// C&C-aware fleet dispatch (DESIGN.md §16). For each statement the router
/// derives the constraint's per-table currency requirements from the
/// anchor's plan (constraint normalization binds base tables, which every
/// node shadows identically), probes every node's delivered currency per
/// requirement (certified heartbeat of the region materializing the table,
/// the session's timeline floor, the degrade mode), and dispatches to the
/// cheapest eligible node by the optimizer's Eq. 1 plan cost (ties to the
/// lowest node id).
///
/// Every node's plan comes from that node's own plan cache, and the text is
/// lexed at most once: the anchor's lookup is the only one that reads it
/// (an L1 hit, or one lex and an L2 hit). Its entry's template and the
/// text's slot values then key every peer's lookup, at the template level
/// only, so a peer never lexes and keeps no per-text L1 entry. Peers are
/// priced at the anchor entry's literals so their costs compare. A routed
/// hit neither parses nor plans.
///
/// A failed attempt falls through to the next-cheapest eligible peer; when
/// no cache node is eligible (or all eligible ones failed) the statement
/// runs as an all-remote plan on the anchor — the backend tier. That plan
/// is cached in the anchor's plan cache under the same template, keyed
/// apart by view matching off. Deadline expiry never falls through:
/// the budget is spent, retrying elsewhere only adds latency.
///
/// Eligibility per probe is CurrencyVerdict::Permits, the rule the degrade
/// and shed ladders apply:
///   heartbeat known (certified — quarantine/resync withdraws it)
///   AND not below the timeline floor
///   AND (heartbeat > now - bound OR degrade mode is ALWAYS)
/// A node lacking a view over a constrained table fails coverage: its probe
/// records region 0 / heartbeat unknown / ineligible. The conformance
/// oracle re-derives every probe and the choice from the recorded history
/// (rules route-heartbeat / route-verdict / route-choice / route-serve-node).
///
/// Every dispatch attempt records a RouteObservation under a fresh query id
/// *before* executing, and the execution reuses that id
/// (PreparedExecOptions::history_query_id), so one attempt's route, guard,
/// serve and answer events correlate.
class FleetRouter : public StatementRouter {
 public:
  explicit FleetRouter(FleetSystem* fleet);

  /// The raw history sink (the recorder itself, not a node-tagged wrapper:
  /// route observations carry their own node). nullptr stops recording.
  void SetHistorySink(HistorySink* sink) { sink_ = sink; }

  Result<CacheQueryOutcome> RouteSql(
      std::string_view sql, const RoutedStatementOptions& opts) override;

  void BeginConcurrentBatch() override;
  void EndConcurrentBatch() override;

 private:
  FleetSystem* fleet_;
  HistorySink* sink_ = nullptr;
  obs::Counter* fallthroughs_ = nullptr;
  obs::Counter* backend_serves_ = nullptr;
  /// rcc.fleet.node.<id>.routed, index = node id.
  std::vector<obs::Counter*> routed_;
};

}  // namespace fleet
}  // namespace rcc

#endif  // RCC_FLEET_ROUTER_H_
