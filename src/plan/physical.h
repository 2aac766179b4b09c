#ifndef RCC_PLAN_PHYSICAL_H_
#define RCC_PLAN_PHYSICAL_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "plan/expr.h"
#include "plan/properties.h"
#include "semantics/resolver.h"

namespace rcc {

/// Physical operator kinds. The engine goes directly from the resolved AST
/// to physical plans; the "logical" exploration step of a Cascades-style
/// optimizer is replaced by systematic enumeration of placements and join
/// orders (see optimizer/), which produces the same plan space the paper's
/// experiments exercise.
enum class PhysOpKind {
  /// Scan of a cache materialized view or a back-end base table, with an
  /// optional (possibly parameterized) range on the clustered key or on a
  /// secondary index, plus a residual predicate.
  kLocalScan,
  /// A query shipped to the back-end server.
  kRemoteQuery,
  kFilter,
  kProject,
  /// Nested-loop join; the inner child may carry parameterized seek bounds
  /// referencing outer columns (index nested-loop join).
  kNestedLoopJoin,
  kHashJoin,
  kSort,
  kHashAggregate,
  /// The paper's dynamic-plan operator: child 0 is the local branch, child 1
  /// the remote branch; a currency guard on `guard_region` picks one at open.
  kSwitchUnion,
};

std::string_view PhysOpKindName(PhysOpKind kind);

/// What a kLocalScan reads.
struct ScanTarget {
  /// True: a cache materialized view; false: a back-end base table.
  bool is_view = false;
  std::string name;
};

/// Sort key.
struct SortKey {
  std::unique_ptr<Expr> expr;
  bool descending = false;
};

/// One aggregate of a kHashAggregate ("count", "sum", "avg", "min", "max").
struct AggItem {
  std::string func;
  std::unique_ptr<Expr> arg;  // null for COUNT(*)
  bool star = false;
  std::string out_name;
};

/// A node of a physical plan tree. A tagged struct (like the AST): only the
/// fields for `kind` are meaningful.
struct PhysicalOp {
  PhysOpKind kind = PhysOpKind::kLocalScan;
  std::vector<std::unique_ptr<PhysicalOp>> children;
  /// Shape of the rows this operator produces.
  RowLayout layout;

  // -- kLocalScan ----------------------------------------------------------
  ScanTarget target;
  InputOperandId operand = kInvalidOperand;
  /// Secondary index name; empty = clustered key.
  std::string index_name;
  /// Seek bounds: one expression per leading key column; evaluated at open
  /// time (literals, or outer-column refs for index nested-loop joins).
  std::vector<std::unique_ptr<Expr>> seek_lo;
  std::vector<std::unique_ptr<Expr>> seek_hi;
  /// Residual predicate applied to each scanned row (also used as the filter
  /// predicate of kFilter and the join predicate of kNestedLoopJoin).
  std::unique_ptr<Expr> residual;
  /// The access path was chosen at a range's values (ChooseAccessPath), so
  /// the back end re-chooses it when a cached plan runs with other values.
  bool range_priced = false;

  // -- kRemoteQuery ----------------------------------------------------------
  /// Statement shipped to the back-end (EXPLAIN renders it). May contain
  /// references to outer columns (correlated remote).
  std::unique_ptr<SelectStmt> remote_stmt;
  /// What Open ships instead: remote_stmt's template, built once per plan,
  /// and per slot the expression Open evaluates to fill it — its literals
  /// and plan-cache parameters first, then its outer references.
  QueryTemplate remote_template;
  std::vector<std::unique_ptr<Expr>> remote_args;
  std::set<InputOperandId> remote_operands;

  // -- kProject --------------------------------------------------------------
  std::vector<std::unique_ptr<Expr>> exprs;   // also: left hash-join keys
  std::vector<std::unique_ptr<Expr>> exprs2;  // right hash-join keys
  /// kProject only: drop duplicate output rows (SELECT DISTINCT).
  bool distinct = false;

  // -- kHashAggregate ----------------------------------------------------------
  std::vector<AggItem> aggs;  // group keys live in `exprs`

  // -- kSort -------------------------------------------------------------------
  std::vector<SortKey> sort_keys;

  // -- kSwitchUnion --------------------------------------------------------
  RegionId guard_region = kBackendRegion;
  SimTimeMs guard_bound_ms = 0;
  /// False in replica-only mode (OptimizerOptions::allow_remote = false): a
  /// failing guard is a run-time constraint violation, not a fallback.
  bool remote_fallback_allowed = true;
  /// Optimizer estimate of the probability the guard passes (paper Eq. (1));
  /// -1 when not estimated. EXPLAIN compares it against the actual decision.
  double est_local_p = -1;

  // -- estimates & properties (filled by the optimizer) ---------------------
  double est_rows = 0;
  double est_cost = 0;
  ConsistencyProperty delivered;

  /// Set on the root of a derived-table (nested block) subtree: BindPlan
  /// resolves the names in this subtree against the nested block's alias
  /// map, not the enclosing block's.
  std::shared_ptr<AliasMap> own_aliases;

  /// Multi-line indented plan rendering for tests/diagnostics.
  std::string DescribeTree(int indent = 0) const;
  /// One-line summary of this node.
  std::string Describe() const;
};

/// Plan for a nested (EXISTS/IN) subquery, keyed by its AST node.
struct SubPlan {
  std::unique_ptr<PhysicalOp> root;
  AliasMap aliases;
};

/// Coarse plan shapes used by the experiments (paper Fig. 4.1).
enum class PlanShape {
  /// Single remote query computing everything at the back-end (plan 1).
  kRemoteOnly,
  /// Local join over remote base-table fetches, no local views (plan 2).
  kLocalJoinRemoteFetches,
  /// Mix of guarded local views and remote fetches (plan 4).
  kMixed,
  /// All data from guarded local views (plans 3/5).
  kAllLocal,
};

std::string_view PlanShapeName(PlanShape shape);

/// A complete optimized query: the operator tree, the (outer block's) alias
/// map, subquery plans, and the normalized constraint the plan satisfies.
/// Optimize returns it bound (plan/bind.h): the alias maps are not needed to
/// execute it.
struct QueryPlan {
  std::unique_ptr<PhysicalOp> root;
  AliasMap aliases;
  std::map<const SelectStmt*, SubPlan> subplans;
  ResolvedQuery resolved;
  double est_cost = 0;

  /// Classifies the plan tree into the paper's coarse shapes.
  PlanShape Shape() const;

  std::string DescribeTree() const;
};

}  // namespace rcc

#endif  // RCC_PLAN_PHYSICAL_H_
