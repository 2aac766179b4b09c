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
  bool operator==(const Requirement&) const = default;
};

std::vector<Requirement> RequirementsOf(const QueryPlan& plan) {
  std::vector<Requirement> reqs;
  for (const CcTuple& tuple : plan.resolved.constraint.tuples) {
    for (InputOperandId oid : tuple.operands) {
      if (oid >= plan.resolved.operands.size()) continue;
      const TableDef* table = plan.resolved.operands[oid].table;
      if (table == nullptr) continue;
      Requirement req{table->name, tuple.bound_ms};
      if (std::find(reqs.begin(), reqs.end(), req) == reqs.end()) {
        reqs.push_back(std::move(req));
      }
    }
  }
  return reqs;
}

/// A fresh plan for the AST entry, outside any plan cache.
Result<CachedPlan> Prepared(CacheDbms* cache, const SelectStmt& stmt,
                            DegradeMode degrade, bool match_views) {
  RCC_ASSIGN_OR_RETURN(auto entry,
                       cache->NewEntry(stmt, degrade, match_views));
  return CachedPlan{std::move(entry), {}, /*hit=*/false};
}

}  // namespace

FleetRouter::FleetRouter(FleetSystem* fleet) : fleet_(fleet) {
  obs::MetricsRegistry& m = fleet_->anchor()->metrics();
  fallthroughs_ = m.counter("rcc.fleet.fallthroughs");
  backend_serves_ = m.counter("rcc.fleet.backend_serves");
  // Resolved up front (the topology is fixed at construction), so a routed
  // statement records lock-free from any worker thread.
  routed_.push_back(nullptr);
  for (int node = 1; node <= fleet_->node_count(); ++node) {
    routed_.push_back(m.counter(
        obs::MetricsRegistry::NodeMetricName("rcc.fleet", node, "routed")));
  }
}

Result<CacheQueryOutcome> FleetRouter::RouteSql(
    std::string_view sql, const RoutedStatementOptions& opts) {
  return Route(sql, nullptr, opts);
}

Result<CacheQueryOutcome> FleetRouter::RouteSelect(
    const SelectStmt& stmt, const RoutedStatementOptions& opts) {
  return Route({}, &stmt, opts);
}

void FleetRouter::BeginConcurrentBatch() { fleet_->BeginConcurrentBatch(); }

void FleetRouter::EndConcurrentBatch() { fleet_->EndConcurrentBatch(); }

Result<CacheQueryOutcome> FleetRouter::Route(
    std::string_view sql, const SelectStmt* stmt,
    const RoutedStatementOptions& opts) {
  const int n = fleet_->node_count();
  // The anchor's plan supplies the requirements (the normalized constraint
  // and its operand → base-table binding are node-independent: every node
  // shadows the same backend schema, only view sets differ) and is the
  // reference every peer's cached plan is priced like. Its lookup is the
  // only one that reads the text: an L1 hit, or one lex and an L2 lookup.
  RCC_ASSIGN_OR_RETURN(
      const CachedPlan ref,
      stmt == nullptr ? fleet_->node(1)->LookupOrPlan(sql, opts.degrade,
                                                      opts.timeordered)
                      : Prepared(fleet_->node(1), *stmt, opts.degrade,
                                 /*match_views=*/true));
  const std::vector<Requirement> reqs = RequirementsOf(*ref.entry->plan);
  // Any other node's plan (view-matched, priced like `ref`), or with
  // `match_views` false the backend tier's all-remote plan: looked up by the
  // anchor entry's template and this text's slot values, with no lexing.
  // The AST entry prepares afresh.
  auto plan_on = [&](int node, bool match_views) -> Result<CachedPlan> {
    CacheDbms* cache = fleet_->node(node);
    if (stmt != nullptr) {
      return Prepared(cache, *stmt, opts.degrade, match_views);
    }
    return cache->LookupOrPlan(sql, ref.entry->template_text, ref.params,
                               opts.degrade, opts.timeordered, match_views,
                               match_views ? ref.entry.get() : nullptr);
  };

  EventStream own;
  EventStream& events = opts.events != nullptr ? *opts.events : own;
  PreparedExecOptions eo{.timeline_floor = opts.timeline_floor,
                         .audit_degrade = opts.degrade,
                         .events = &events,
                         .session_tag = opts.session_tag,
                         .deadline = opts.deadline,
                         .shed_hint = opts.shed_hint};

  // Fall-through ladder: cheapest eligible node, then peers, then backend.
  // Probes are re-read before *every* attempt — a failed attempt may have
  // advanced the virtual clock (retry backoff runs the delivery scheduler in
  // serial mode), so replaying the first attempt's observations would record
  // heartbeats the install stream has since superseded. Each route line must
  // reflect the fleet at the moment it was dispatched.
  std::vector<bool> tried(n + 1, false);
  for (;;) {
    // Probe every node's delivered currency per requirement, as of `now`. A
    // statement with no currency clause has no requirements: every node is
    // vacuously eligible and the choice is pure cost.
    const SimTimeMs now = fleet_->Now();
    std::vector<RouteProbe> probes;
    for (int node = 1; node <= n; ++node) {
      CacheDbms* cache = fleet_->node(node);
      for (const Requirement& req : reqs) {
        RouteProbe& p = probes.emplace_back(RouteProbe{
            .node = node, .bound_ms = req.bound_ms,
            .floor_ms = opts.timeline_floor});
        const auto views = cache->catalog().ViewsOnTable(req.table);
        // Coverage failure: no materialized view over the constrained table,
        // so there is no region whose currency could satisfy it; the probe
        // keeps region 0, heartbeat unknown, ineligible.
        if (views.empty()) continue;
        p.region = views.front()->region;
        // One snapshot per probe: its certified heartbeat and its health
        // are one published version.
        const CurrencyRegion* region = cache->region(p.region);
        const std::shared_ptr<const RegionSnapshot> snap =
            region != nullptr ? region->Snapshot() : nullptr;
        std::optional<SimTimeMs> hb =
            snap != nullptr ? snap->certified_heartbeat() : std::nullopt;
#ifdef RCC_FLEET_MUTATE
        // Planted bug: the highest-numbered node's probes fall back to the
        // raw snapshot heartbeat when certification was withdrawn
        // (quarantine/resync), so the router keeps dispatching to a node
        // whose own guards can no longer back the freshness claim. The
        // oracle's route-heartbeat rule re-derives the certified state from
        // the install + health streams and rejects the probe.
        if (!hb.has_value() && node == n && snap != nullptr) {
          hb = snap->heartbeat;
        }
#endif
        const CurrencyVerdict v = JudgeCurrency(
            hb, snap != nullptr ? snap->health : RegionHealth::kHealthy, now,
            p.bound_ms, p.floor_ms);
        p.heartbeat_known = v.known;
        p.heartbeat = v.heartbeat;
        p.eligible = v.Permits(opts.degrade);
      }
    }
    std::vector<bool> skip = tried;
    for (const RouteProbe& p : probes) {
      if (!p.eligible) skip[p.node] = true;
    }
    // Price the eligible untried nodes with the same Eq. 1 cost model the
    // single-node optimizer uses; strict < keeps ties on the lowest node id.
    int best = 0;
    CachedPlan plan;
    for (int node = 1; node <= n; ++node) {
      if (skip[node]) continue;
      Result<CachedPlan> p =
          node == 1 ? ref : plan_on(node, /*match_views=*/true);
      if (!p.ok()) continue;  // treat an unplannable node as ineligible
      if (best == 0 || p->entry->plan->est_cost < plan.entry->plan->est_cost) {
        best = node;
        plan = std::move(p).value();
      }
    }
    // Backend tier, when no untried node is eligible: an all-remote plan on
    // the anchor (view matching off forces every operand to a backend fetch,
    // which is always current), cached in the anchor's plan cache under the
    // same template as its view-matched plan.
    const bool backend = best == 0;
    if (backend) {
      best = 1;
      RCC_ASSIGN_OR_RETURN(plan, plan_on(1, /*match_views=*/false));
    }
    // Every attempt records its route under a fresh query id before
    // executing, and the execution reuses the id.
    eo.history_query_id = sink_ != nullptr ? sink_->BeginQuery(now) : 0;
    events.BeginExecution(sink_, eo.history_query_id);
    events.Record(RouteObservation{
        .at = now, .node = best, .backend_tier = backend,
        .degrade_mode = static_cast<int>(opts.degrade),
        .probes = std::move(probes)});
    (backend ? backend_serves_ : routed_[best])->Add();
    // Behaves under the mode the plan was created for, audited under the
    // session's, as RccSystem::ExecuteSelect does.
    eo.degrade = plan.entry->created_degrade;
    eo.params = &plan.params;
    Result<CacheQueryOutcome> out =
        fleet_->node(best)->ExecutePrepared(*plan.entry->plan, eo);
    // An expired deadline never falls through: the budget is spent, and a
    // retry elsewhere only delays the DeadlineExceeded the client must see.
    if (out.ok() || backend || out.status().IsDeadlineExceeded()) return out;
    fallthroughs_->Add();
    tried[best] = true;
  }
}

}  // namespace fleet
}  // namespace rcc
