#ifndef RCC_FLEET_ROUTER_H_
#define RCC_FLEET_ROUTER_H_

#include <string>
#include <utility>
#include <vector>

#include "core/statement_router.h"
#include "obs/metrics.h"

namespace rcc {
namespace fleet {

class FleetSystem;

/// C&C-aware fleet dispatch (DESIGN.md §16). For each statement the router
/// derives the constraint's per-table currency requirements (one reference
/// resolution on the anchor — constraint normalization binds base tables,
/// which every node shadows identically), probes every node's delivered
/// currency per requirement (certified heartbeat of the region materializing
/// the table, the session's timeline floor, the degrade mode), and
/// dispatches to the cheapest eligible node by the optimizer's Eq. 1 plan
/// cost (ties to the lowest node id). A failed attempt falls through to the
/// next-cheapest eligible peer; when no cache node is eligible (or all
/// eligible ones failed) the statement runs as an all-remote plan on the
/// anchor — the backend tier. Deadline expiry never falls through: the
/// budget is spent, retrying elsewhere only adds latency.
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

  Result<CacheQueryOutcome> RouteSelect(
      const SelectStmt& stmt, const RoutedStatementOptions& opts) override;

 private:
  /// Lazily resolved per-node instruments (rcc.fleet.node.<id>.routed).
  obs::Counter* RoutedCounter(int node);

  FleetSystem* fleet_;
  HistorySink* sink_ = nullptr;
  obs::Counter* fallthroughs_ = nullptr;
  obs::Counter* backend_serves_ = nullptr;
  std::vector<obs::Counter*> routed_;  // index = node id
};

}  // namespace fleet
}  // namespace rcc

#endif  // RCC_FLEET_ROUTER_H_
