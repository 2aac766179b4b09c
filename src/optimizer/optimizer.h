#ifndef RCC_OPTIMIZER_OPTIMIZER_H_
#define RCC_OPTIMIZER_OPTIMIZER_H_

#include <functional>

#include "catalog/catalog.h"
#include "optimizer/cost_model.h"
#include "optimizer/view_matching.h"
#include "plan/physical.h"
#include "replication/health.h"
#include "semantics/resolver.h"

namespace rcc {

/// Where a plan will run. The cache DBMS considers local materialized views
/// (guarded by currency checks) and remote queries; the back-end only its
/// own base tables and indexes. The cache plans "remote" subtrees by
/// simulating back-end optimization against its shadow statistics, exactly
/// like MTCache's shadow database lets SQL Server cost remote subqueries.
enum class PlanMode { kCache, kBackend };

/// Optimizer configuration. The two `enable_*` switches exist for the
/// ablation benchmarks: disabling view matching forces all-remote plans;
/// disabling currency guards uses matched views unguarded (unsound — it can
/// violate currency bounds — which the ablation demonstrates).
struct OptimizerOptions {
  PlanMode mode = PlanMode::kCache;
  CostParams costs;
  bool enable_view_matching = true;
  bool enable_currency_guards = true;
  /// When false, the cache may not forward work to the back-end — the
  /// paper's *traditional replicated database* scenario (§1): queries must
  /// run against local replicas, and a query whose C&C constraint cannot be
  /// met by any replica fails with ConstraintViolation at compile time
  /// (bound below the region delay) or Unavailable at run time (guard
  /// failed and there is nowhere to fall back to).
  bool allow_remote = true;
  /// Upper bound on enumerated placements (local/remote assignments).
  int max_placements = 512;
  /// Live replication-pipeline health probe for a region; null when the
  /// engine doesn't track health. A quarantined/resyncing region has no
  /// certified heartbeat, so its guard refuses every probe: the optimizer
  /// prices such a local branch at p = 0 (SwitchUnionCost then charges the
  /// remote branch at full weight) and, when remote fallback is available,
  /// drops the local placement outright instead of betting on it.
  std::function<RegionHealth(RegionId)> region_health;
};

/// Optimizes a resolved query. Consistency constraints are enforced at
/// compile time here — placements whose delivered consistency property
/// violates the required property are pruned (paper §3.2.2) — while currency
/// constraints become run-time guards in the emitted SwitchUnion operators
/// (§3.2.3). Fails with ConstraintViolation only if no valid plan exists
/// (cannot happen in practice: the all-remote plan always satisfies any
/// constraint).
Result<QueryPlan> Optimize(ResolvedQuery resolved, const Catalog& catalog,
                           const OptimizerOptions& options);

/// Cost/cardinality estimate of running `stmt` at the back-end; used to cost
/// remote subqueries and exposed for the cost-model tests.
struct RemoteEstimate {
  double cost = 0;
  double rows = 0;
};
Result<RemoteEstimate> EstimateBackendQuery(const SelectStmt& stmt,
                                            const Catalog& catalog,
                                            const CostParams& costs);

/// How a scan reads its storage: a seek on the leading column of the
/// clustered key or of a secondary index, or a full scan.
struct AccessPath {
  /// Secondary index sought; nullptr = the clustered key (or a full scan).
  const IndexDef* index = nullptr;
  /// Bound driving a range seek; nullptr for a parameterized seek or a full
  /// scan.
  const RangeBound* range = nullptr;
  /// Point seek on an index nested-loop join's parameterized equality.
  bool param_seek = false;
  double cost = 0;
  /// Some candidate was priced at a range's values (not an equality's), so
  /// other values may pick another path.
  bool range_priced = false;

  bool seek() const { return range != nullptr || param_seek; }
};

/// The cheapest access path for a scan whose single-table conjuncts imply
/// `bounds`, over storage holding `stats_scale` of the rows `stats`
/// describes. With `param_column`, an equality on that column to an outer
/// value (the inner side of an index nested-loop join) is one more
/// candidate. The optimizer picks every scan's path here.
AccessPath ChooseAccessPath(const std::map<std::string, RangeBound>& bounds,
                            const TableStats& stats, double stats_scale,
                            const std::vector<std::string>& clustered_key,
                            const std::vector<IndexDef>& indexes,
                            const CostParams& costs,
                            const std::string& param_column = "");

/// True when some scan of back-end `plan` picked its path at a range
/// (PhysicalOp::range_priced).
bool HasRangePricedScan(const QueryPlan& plan);

/// Re-chooses, at `params`, the access path of each range-priced scan of
/// back-end `plan` (its parameters bound to `params`): the bounds come from
/// the scan's residual, the rest from `catalog`. True when every choice is
/// the plan's own index and seek kind.
bool AccessPathsHold(const QueryPlan& plan, const std::vector<Value>& params,
                     const Catalog& catalog, const CostParams& costs);

}  // namespace rcc

#endif  // RCC_OPTIMIZER_OPTIMIZER_H_
