#include "fleet/router.h"

#include <algorithm>

#include "exec/currency_verdict.h"
#include "fleet/fleet.h"

namespace rcc {
namespace fleet {

namespace {

/// One per-table currency requirement of the statement's normalized
/// constraint: the router probes each node once per distinct (table, bound).
struct Requirement {
  std::string table;
  SimTimeMs bound_ms = 0;
};

std::vector<Requirement> RequirementsOf(const QueryPlan& plan) {
  std::vector<Requirement> reqs;
  for (const CcTuple& tuple : plan.resolved.constraint.tuples) {
    for (InputOperandId oid : tuple.operands) {
      if (oid >= plan.resolved.operands.size()) continue;
      const TableDef* table = plan.resolved.operands[oid].table;
      if (table == nullptr) continue;
      bool seen = false;
      for (const Requirement& r : reqs) {
        if (r.table == table->name && r.bound_ms == tuple.bound_ms) {
          seen = true;
          break;
        }
      }
      if (!seen) reqs.push_back({table->name, tuple.bound_ms});
    }
  }
  return reqs;
}

}  // namespace

FleetRouter::FleetRouter(FleetSystem* fleet) : fleet_(fleet) {
  obs::MetricsRegistry& m = fleet_->anchor()->metrics();
  fallthroughs_ = m.counter("rcc.fleet.fallthroughs");
  backend_serves_ = m.counter("rcc.fleet.backend_serves");
  // Resolved up front (the topology is fixed at construction), so RouteSelect
  // records lock-free from any worker thread.
  routed_.resize(fleet_->node_count() + 1, nullptr);
  for (int node = 1; node <= fleet_->node_count(); ++node) {
    routed_[node] = m.counter(
        obs::MetricsRegistry::NodeMetricName("rcc.fleet", node, "routed"));
  }
}

obs::Counter* FleetRouter::RoutedCounter(int node) { return routed_[node]; }

Result<CacheQueryOutcome> FleetRouter::RouteSelect(
    const SelectStmt& stmt, const RoutedStatementOptions& opts) {
  const int n = fleet_->node_count();
  CacheDbms* anchor_cache = fleet_->node(1);
  // Reference resolution on the anchor: the normalized constraint and its
  // operand → base-table binding are node-independent (every node shadows
  // the same backend schema; only view sets differ).
  RCC_ASSIGN_OR_RETURN(QueryPlan ref_plan, anchor_cache->Prepare(stmt));
  const std::vector<Requirement> reqs = RequirementsOf(ref_plan);

  // Probe every node's delivered currency per requirement, as of `now`. A
  // statement with no currency clause has no requirements: every node is
  // vacuously eligible and the choice is pure cost.
  auto probe_fleet = [&](SimTimeMs now) {
    std::vector<RouteProbe> probes;
    for (int node = 1; node <= n; ++node) {
      CacheDbms* cache = fleet_->node(node);
      for (const Requirement& req : reqs) {
        RouteProbe p;
        p.node = node;
        p.bound_ms = req.bound_ms;
        p.floor_ms = opts.timeline_floor;
        std::vector<const ViewDef*> views =
            cache->catalog().ViewsOnTable(req.table);
        if (views.empty()) {
          // Coverage failure: no materialized view over the constrained
          // table, so there is no region whose currency could satisfy it.
          p.region = kBackendRegion;
        } else {
          p.region = views.front()->region;
          std::optional<SimTimeMs> hb = cache->LocalHeartbeat(p.region);
#ifdef RCC_FLEET_MUTATE
          // Planted bug: the highest-numbered node's probes fall back to the
          // raw snapshot heartbeat when certification was withdrawn
          // (quarantine/resync), so the router keeps dispatching to a node
          // whose own guards can no longer back the freshness claim. The
          // oracle's route-heartbeat rule re-derives the certified state from
          // the install + health streams and rejects the probe.
          if (!hb.has_value() && node == n) {
            const CurrencyRegion* region = cache->region(p.region);
            if (region != nullptr) hb = region->Snapshot()->heartbeat;
          }
#endif
          const CurrencyVerdict v =
              JudgeCurrency(hb, cache->RegionHealthOf(p.region), now,
                            p.bound_ms, p.floor_ms);
          p.heartbeat_known = v.known;
          p.heartbeat = v.heartbeat;
          p.eligible = v.Permits(opts.degrade);
        }
        probes.push_back(p);
      }
    }
    return probes;
  };

  auto record_route = [&](int node, bool backend_tier, SimTimeMs now,
                          const std::vector<RouteProbe>& probes) -> uint64_t {
    if (sink_ == nullptr) return 0;
    uint64_t qid = sink_->BeginQuery(now);
    RouteObservation ro;
    ro.query_id = qid;
    ro.at = now;
    ro.node = node;
    ro.backend_tier = backend_tier;
    ro.degrade_mode = static_cast<int>(opts.degrade);
    ro.probes = probes;
    sink_->OnRoute(ro);
    return qid;
  };

  CacheDbms::PreparedExecOptions eo;
  eo.timeline_floor = opts.timeline_floor;
  eo.degrade = opts.degrade;
  eo.session_tag = opts.session_tag;
  eo.deadline = opts.deadline;
  eo.shed_hint = opts.shed_hint;

  // Fall-through ladder: cheapest eligible node, then peers, then backend.
  // Probes are re-read before *every* attempt — a failed attempt may have
  // advanced the virtual clock (retry backoff runs the delivery scheduler in
  // serial mode), so replaying the first attempt's observations would record
  // heartbeats the install stream has since superseded. Each route line must
  // reflect the fleet at the moment it was dispatched.
  std::vector<bool> tried(n + 1, false);
  for (;;) {
    const SimTimeMs now = fleet_->Now();
    std::vector<RouteProbe> probes = probe_fleet(now);
    std::vector<bool> eligible(n + 1, true);
    for (const RouteProbe& p : probes) {
      if (!p.eligible) eligible[p.node] = false;
    }
    // Price the eligible untried nodes with the same Eq. 1 cost model the
    // single-node optimizer uses; strict < keeps ties on the lowest node id.
    int best = 0;
    double best_cost = 0;
    QueryPlan best_plan;
    for (int node = 1; node <= n; ++node) {
      if (tried[node] || !eligible[node]) continue;
      Result<QueryPlan> plan = fleet_->node(node)->Prepare(stmt);
      if (!plan.ok()) continue;  // treat an unplannable node as ineligible
      if (best == 0 || plan->est_cost < best_cost) {
        best = node;
        best_cost = plan->est_cost;
        best_plan = std::move(plan).value();
      }
    }
    if (best == 0) break;
    eo.history_query_id = record_route(best, /*backend_tier=*/false, now,
                                       probes);
    RoutedCounter(best)->Add();
    Result<CacheQueryOutcome> out =
        fleet_->node(best)->ExecutePrepared(best_plan, eo);
    if (out.ok()) return out;
    // An expired deadline never falls through: the budget is spent, and a
    // retry elsewhere only delays the DeadlineExceeded the client must see.
    if (out.status().IsDeadlineExceeded()) return out.status();
    fallthroughs_->Add();
    tried[best] = true;
  }

  // Backend tier: an all-remote plan on the anchor (view matching off
  // forces every operand to a backend fetch, which is always current).
  OptimizerOptions oo = anchor_cache->default_options();
  oo.enable_view_matching = false;
  RCC_ASSIGN_OR_RETURN(QueryPlan remote_plan, anchor_cache->Prepare(stmt, oo));
  const SimTimeMs now = fleet_->Now();
  eo.history_query_id =
      record_route(1, /*backend_tier=*/true, now, probe_fleet(now));
  backend_serves_->Add();
  return anchor_cache->ExecutePrepared(remote_plan, eo);
}

}  // namespace fleet
}  // namespace rcc
