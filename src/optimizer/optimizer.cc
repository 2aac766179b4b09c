#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"
#include "optimizer/view_matching.h"
#include "plan/bind.h"

namespace rcc {

namespace {

constexpr double kDefaultSel = 0.3;

/// Distinct values of `column` in `stats` (at least 1); `fallback` when the
/// column has no statistics.
double DistinctIn(const TableStats& stats, const std::string& column,
                  double fallback) {
  auto it = stats.columns.find(ToLower(column));
  if (it == stats.columns.end()) {
    // Column names are stored with original case in stats.
    for (const auto& [name, cs] : stats.columns) {
      if (EqualsIgnoreCase(name, column)) {
        return std::max<double>(1.0, static_cast<double>(cs.distinct_count));
      }
    }
    return fallback;
  }
  return std::max<double>(1.0, static_cast<double>(it->second.distinct_count));
}

bool IsAggregateFunc(const std::string& f) {
  return f == "count" || f == "sum" || f == "avg" || f == "min" || f == "max";
}

bool ContainsAggregate(const Expr* e) {
  return AnyNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kFuncCall && IsAggregateFunc(n.func);
  });
}

bool ContainsSubquery(const Expr* e) {
  return AnyNode(e, [](const Expr& n) { return n.subquery != nullptr; });
}

/// Operand ids (of `aliases`) referenced by qualified column refs in `e`.
/// Sets `has_bare` when an unqualified reference appears; refs whose
/// qualifier is not in `aliases` (correlated to an outer block) are ignored.
void ReferencedOps(const Expr* e, const AliasMap& aliases,
                   std::set<InputOperandId>* ops, bool* has_bare) {
  VisitNodes(e, [&](const Expr* n) {
    if (n->kind != ExprKind::kColumnRef) return;
    if (n->table.empty()) {
      *has_bare = true;
      return;
    }
    auto it = aliases.find(ToLower(n->table));
    if (it != aliases.end()) ops->insert(it->second);
  });
}

/// One access decision per input operand: remote, or through a local view.
struct Placement {
  const ViewDef* view = nullptr;
  bool local() const { return view != nullptr; }
};
using PlacementVec = std::vector<Placement>;

/// Pre-digested information about one SFW block.
struct BlockCtx {
  const SelectStmt* stmt = nullptr;
  int block_id = 0;
  AliasMap aliases;  // base aliases -> operand id, derived -> pseudo id
  std::vector<InputOperandId> base_ops;           // in FROM order
  std::map<InputOperandId, const TableRef*> refs;  // base ops only
  std::vector<const TableRef*> derived;            // derived tables, FROM order
  std::map<std::string, InputOperandId> derived_pseudo;  // alias -> pseudo id

  std::map<InputOperandId, std::vector<const Expr*>> single_conjuncts;
  std::vector<const Expr*> subquery_conjuncts;
  std::vector<const Expr*> multi_conjuncts;  // joins + everything else
  std::map<InputOperandId, std::set<std::string>> needed;  // lower-case cols
  std::map<InputOperandId, std::map<std::string, RangeBound>> bounds;
};

/// A planned input of the block-level join: its operator tree, coverage, and
/// estimates. `rebuild` re-creates the unit with an extra parameterized
/// equality (for index nested-loop joins); null when not seekable.
struct UnitPlan {
  std::unique_ptr<PhysicalOp> op;
  std::set<InputOperandId> ops;
  double rows = 0;
  double cost = 0;
  /// Operand usable as a parameterized-seek target (single-operand local
  /// units only).
  InputOperandId seek_op = kInvalidOperand;
  /// Re-creates the unit with an extra parameterized equality
  /// `column = outer_ref` pushed into the access path — the inner side of an
  /// index nested-loop join. `rows`/`cost` of the result are per probe.
  std::function<Result<UnitPlan>(const std::string& column,
                                 const Expr& outer_ref)>
      rebuild;
  /// Join conjuncts the unit already enforces: a combined remote query's,
  /// pushed into its statement. JoinUnits does not apply them again.
  std::vector<const Expr*> pushed;
};

struct JoinDecision {
  enum class Method { kHash, kNljSeek, kNljScan };
  size_t unit_index = 0;
  Method method = Method::kHash;
  std::vector<const Expr*> eq_conjuncts;    // usable as hash keys / seek
  std::vector<const Expr*> residual;        // applied at this join
  std::string seek_column;                  // for kNljSeek (inner column)
  const Expr* seek_outer_expr = nullptr;    // outer side of the seek equality
};

class Planner {
 public:
  Planner(const Catalog& catalog, const OptimizerOptions& opts)
      : catalog_(catalog), opts_(opts) {}

  /// Plans `resolved`: the cheapest candidate that satisfies its
  /// constraint, with no remote templates and no bound names. Enough for a
  /// cost estimate, also of a correlated statement, whose outer references
  /// no scope of its own plan can bind.
  Result<QueryPlan> Choose(ResolvedQuery resolved);
  /// Choose, then build each remote op's template and bind every column
  /// reference to its row slot: the plan an executor runs.
  Result<QueryPlan> Run(ResolvedQuery resolved);

 private:
  // -- preparation ----------------------------------------------------------
  Status PrepareBlocks(const SelectStmt* stmt);
  Status PrepareBlock(const SelectStmt* stmt);

  // -- placement enumeration -------------------------------------------------
  Result<std::vector<PlacementVec>> EnumeratePlacements();
  bool PlacementValid(const PlacementVec& placement) const;

  // -- block planning ---------------------------------------------------------
  Result<std::unique_ptr<PhysicalOp>> PlanBlock(const SelectStmt& stmt,
                                                const PlacementVec& placement,
                                                InputOperandId pseudo_id);
  Result<UnitPlan> BuildLocalUnit(const BlockCtx& ctx,
                                  const std::vector<InputOperandId>& ops,
                                  const PlacementVec& placement,
                                  RegionId region, SimTimeMs bound,
                                  const std::string& param_column,
                                  const Expr* param_outer);
  Result<UnitPlan> BuildRemoteUnit(const BlockCtx& ctx,
                                   const std::vector<InputOperandId>& ops);
  Result<UnitPlan> BuildBackendUnit(const BlockCtx& ctx, InputOperandId op);
  Result<UnitPlan> BuildBackendUnitParam(const BlockCtx& ctx,
                                         InputOperandId op,
                                         const std::string& column,
                                         const Expr* outer_ref);
  Result<std::unique_ptr<PhysicalOp>> BuildScan(
      const BlockCtx& ctx, InputOperandId op, const ScanTarget& target,
      const Schema& storage_schema,
      const std::vector<std::string>& clustered_key,
      const std::vector<IndexDef>& indexes, const TableStats& stats,
      double stats_scale, const std::string& param_column,
      const Expr* param_outer);
  Result<std::unique_ptr<PhysicalOp>> JoinUnits(
      const BlockCtx& ctx, std::vector<UnitPlan> units,
      const std::vector<const Expr*>& block_conjuncts);

  // -- helpers ---------------------------------------------------------------
  const ResolvedOperand& OperandInfo(InputOperandId op) const {
    return resolved_.operands[op];
  }
  const TableStats& StatsOf(InputOperandId op) const {
    return catalog_.GetStats(OperandInfo(op).table->name);
  }
  double DistinctOf(InputOperandId op, const std::string& column,
                    double fallback) const;
  double UnitRowsEstimate(const BlockCtx& ctx, InputOperandId op) const;
  std::unique_ptr<Expr> ConjunctionOf(
      const std::vector<const Expr*>& conjuncts) const;
  std::unique_ptr<SelectStmt> SynthesizeRemoteStmt(
      const BlockCtx& ctx, const std::vector<InputOperandId>& ops,
      const RowLayout& layout, const std::vector<const Expr*>& extra) const;
  RowLayout UnitLayout(const BlockCtx& ctx,
                       const std::vector<InputOperandId>& ops) const;
  Result<std::unique_ptr<PhysicalOp>> FinishBlock(
      const BlockCtx& ctx, std::unique_ptr<PhysicalOp> input,
      const PlacementVec& placement, InputOperandId pseudo_id);
  Result<RemoteEstimate> EstimateRemote(const SelectStmt& stmt) const;

  const Catalog& catalog_;
  OptimizerOptions opts_;
  ResolvedQuery resolved_;
  std::map<const SelectStmt*, BlockCtx> blocks_;
  std::vector<int> op_block_;  // operand id -> block id
  RegionId next_dynamic_ = kDynamicRegionBase;
  uint32_t next_pseudo_ = 0;
  std::map<const SelectStmt*, SubPlan> subplans_;
};

// ---------------------------------------------------------------------------
// Preparation
// ---------------------------------------------------------------------------

Status Planner::PrepareBlocks(const SelectStmt* stmt) {
  RCC_RETURN_NOT_OK(PrepareBlock(stmt));
  const BlockCtx& ctx = blocks_.at(stmt);
  // Recurse into derived tables and expression subqueries.
  for (const TableRef* ref : ctx.derived) {
    RCC_RETURN_NOT_OK(PrepareBlocks(ref->subquery.get()));
  }
  std::function<Status(const Expr*)> walk = [&](const Expr* e) -> Status {
    if (e == nullptr) return Status::OK();
    if (e->subquery) RCC_RETURN_NOT_OK(PrepareBlocks(e->subquery.get()));
    RCC_RETURN_NOT_OK(walk(e->left.get()));
    RCC_RETURN_NOT_OK(walk(e->right.get()));
    for (const auto& a : e->args) RCC_RETURN_NOT_OK(walk(a.get()));
    return Status::OK();
  };
  RCC_RETURN_NOT_OK(walk(stmt->where.get()));
  for (const auto& item : stmt->items) {
    RCC_RETURN_NOT_OK(walk(item.expr.get()));
  }
  return Status::OK();
}

Status Planner::PrepareBlock(const SelectStmt* stmt) {
  BlockCtx ctx;
  ctx.stmt = stmt;
  ctx.block_id = static_cast<int>(blocks_.size());

  for (const TableRef& ref : stmt->from) {
    if (ref.is_subquery()) {
      InputOperandId pseudo = next_pseudo_++;
      ctx.aliases[ToLower(ref.alias)] = pseudo;
      ctx.derived.push_back(&ref);
      ctx.derived_pseudo[ToLower(ref.alias)] = pseudo;
    } else {
      if (ref.resolved_operand == kInvalidOperand) {
        return Status::Internal("unresolved table ref " + ref.table);
      }
      ctx.aliases[ToLower(ref.alias)] = ref.resolved_operand;
      ctx.base_ops.push_back(ref.resolved_operand);
      ctx.refs[ref.resolved_operand] = &ref;
      if (ref.resolved_operand < op_block_.size()) {
        op_block_[ref.resolved_operand] = ctx.block_id;
      }
    }
  }

  // Classify WHERE conjuncts.
  for (const Expr* conj : SplitConjuncts(stmt->where.get())) {
    if (ContainsSubquery(conj)) {
      ctx.subquery_conjuncts.push_back(conj);
      continue;
    }
    std::set<InputOperandId> ops;
    bool has_bare = false;
    ReferencedOps(conj, ctx.aliases, &ops, &has_bare);
    if (!has_bare && ops.size() == 1 &&
        *ops.begin() < resolved_.operands.size()) {
      // Single *base* operand: pushable into its access path. Conjuncts on
      // derived-table aliases route through the join/filter machinery.
      ctx.single_conjuncts[*ops.begin()].push_back(conj);
    } else {
      ctx.multi_conjuncts.push_back(conj);
    }
  }

  // Needed columns per base operand.
  for (InputOperandId op : ctx.base_ops) {
    const TableDef* table = resolved_.operands[op].table;
    std::set<std::string> cols;
    if (stmt->select_star) {
      for (const Column& c : table->schema.columns()) {
        cols.insert(ToLower(c.name));
      }
    } else {
      auto collect = [&](const Expr* e) {
        CollectColumnsOf(e, op, ctx.aliases, &cols);
      };
      for (const auto& item : stmt->items) collect(item.expr.get());
      collect(stmt->where.get());
      for (const auto& g : stmt->group_by) collect(g.get());
      collect(stmt->having.get());
      for (const auto& o : stmt->order_by) collect(o.expr.get());
      // Keep only columns that exist in this operand's schema (bare names
      // were collected conservatively), and always include the clustered key
      // (needed for stable view maintenance semantics and cheap seeks).
      std::set<std::string> filtered;
      for (const std::string& c : cols) {
        if (table->schema.FindColumn(c)) filtered.insert(c);
      }
      for (const std::string& k : table->clustered_key) {
        filtered.insert(ToLower(k));
      }
      cols = std::move(filtered);
    }
    ctx.needed[op] = std::move(cols);

    std::vector<const Expr*> conjs;
    auto it = ctx.single_conjuncts.find(op);
    if (it != ctx.single_conjuncts.end()) conjs = it->second;
    ctx.bounds[op] =
        ExtractBounds(conjs, op, ctx.aliases, table->schema);
  }

  // Overwrite any stale entry: subquery clones may reuse a freed address.
  blocks_[stmt] = std::move(ctx);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Placement enumeration & validity
// ---------------------------------------------------------------------------

Result<std::vector<PlacementVec>> Planner::EnumeratePlacements() {
  size_t n = resolved_.operands.size();
  // Options per operand: remote (nullptr) plus each matching view.
  std::vector<std::vector<const ViewDef*>> options(n);
  for (InputOperandId op = 0; op < n; ++op) {
    if (opts_.allow_remote) options[op].push_back(nullptr);  // remote
    if (opts_.mode != PlanMode::kCache || !opts_.enable_view_matching) {
      continue;
    }
    // Find this operand's block context.
    const BlockCtx* ctx = nullptr;
    for (const auto& [stmt, c] : blocks_) {
      if (c.refs.count(op) > 0) {
        ctx = &c;
        break;
      }
    }
    if (ctx == nullptr) continue;
    const TableDef* table = resolved_.operands[op].table;
    auto matches = MatchViews(catalog_, table->name, ctx->needed.at(op),
                              ctx->bounds.at(op));
    for (const ViewDef* v : matches) {
      // Compile-time currency check: if the bound can never be met by the
      // region (p = 0), the local plan is discarded immediately.
      const RegionDef* region = catalog_.FindRegion(v->region);
      if (region == nullptr) continue;
      SimTimeMs bound = resolved_.constraint.BoundFor(op);
      if (opts_.enable_currency_guards &&
          EstimateLocalProbability(bound, region->update_delay,
                                   region->update_interval) <= 0) {
        continue;
      }
      // A quarantined region's guard refuses every probe (its heartbeat is
      // withdrawn), so a local placement is dead weight whenever remote can
      // serve. Replica-only mode keeps the placement: the run-time guard
      // then reports the quarantine instead of a generic plan failure.
      if (opts_.region_health && opts_.allow_remote &&
          !HeartbeatValid(opts_.region_health(v->region))) {
        continue;
      }
      options[op].push_back(v);
    }
  }

  std::vector<PlacementVec> out;
  PlacementVec current(n);
  std::function<void(size_t)> rec = [&](size_t i) {
    if (static_cast<int>(out.size()) >= opts_.max_placements) return;
    if (i == n) {
      if (PlacementValid(current)) out.push_back(current);
      return;
    }
    for (const ViewDef* v : options[i]) {
      current[i].view = v;
      rec(i + 1);
    }
  };
  rec(0);
  if (out.empty()) {
    return Status::ConstraintViolation(
        opts_.allow_remote
            ? "no valid placement satisfies the consistency constraint"
            : "no local replica can satisfy the query's C&C constraint "
              "(remote fallback disabled)");
  }
  return out;
}

bool Planner::PlacementValid(const PlacementVec& placement) const {
  for (const CcTuple& tuple : resolved_.constraint.tuples) {
    if (tuple.operands.size() < 2) continue;
    // Split class members into local and remote.
    std::vector<InputOperandId> local;
    for (InputOperandId op : tuple.operands) {
      if (placement[op].local()) local.push_back(op);
    }
    if (local.empty()) continue;  // all remote: back-end snapshot, fine
    // Mixed local/remote in one class can never be guaranteed consistent.
    if (local.size() != tuple.operands.size()) return false;
    // All local: must share one region and one block (a single SwitchUnion
    // covers them; separate SwitchUnions in different blocks would decide
    // independently).
    RegionId region = placement[*tuple.operands.begin()].view->region;
    int block = op_block_[*tuple.operands.begin()];
    for (InputOperandId op : tuple.operands) {
      if (placement[op].view->region != region) return false;
      if (op_block_[op] != block) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Estimation helpers
// ---------------------------------------------------------------------------

double Planner::DistinctOf(InputOperandId op, const std::string& column,
                           double fallback) const {
  if (op >= resolved_.operands.size()) return fallback;
  return DistinctIn(StatsOf(op), column, fallback);
}

double Planner::UnitRowsEstimate(const BlockCtx& ctx,
                                 InputOperandId op) const {
  const TableStats& stats = StatsOf(op);
  double rows = static_cast<double>(stats.row_count);
  rows *= BoundsSelectivity(ctx.bounds.at(op), stats);
  // Extra conjuncts that did not produce literal bounds (e.g. parameterized
  // equalities from correlated subqueries).
  auto it = ctx.single_conjuncts.find(op);
  if (it != ctx.single_conjuncts.end()) {
    for (const Expr* c : it->second) {
      if (c->kind != ExprKind::kBinary) {
        rows *= kDefaultSel;
        continue;
      }
      // Skip conjuncts already reflected in the bounds.
      auto is_lit_cmp = [&](const Expr* l, const Expr* r) {
        return l->kind == ExprKind::kColumnRef &&
               r->kind == ExprKind::kLiteral;
      };
      if ((c->left && c->right &&
           (is_lit_cmp(c->left.get(), c->right.get()) ||
            is_lit_cmp(c->right.get(), c->left.get())))) {
        continue;  // handled by BoundsSelectivity
      }
      if (c->op == BinaryOp::kEq && c->left &&
          c->left->kind == ExprKind::kColumnRef) {
        rows /= DistinctOf(op, c->left->column,
                           std::max(1.0, 1.0 / kDefaultSel));
      } else {
        rows *= kDefaultSel;
      }
    }
  }
  return std::max(rows, 0.0);
}

std::unique_ptr<Expr> Planner::ConjunctionOf(
    const std::vector<const Expr*>& conjuncts) const {
  std::unique_ptr<Expr> out;
  for (const Expr* c : conjuncts) {
    auto clone = c->Clone();
    out = out ? Expr::MakeBinary(BinaryOp::kAnd, std::move(out),
                                 std::move(clone))
              : std::move(clone);
  }
  return out;
}

RowLayout Planner::UnitLayout(const BlockCtx& ctx,
                              const std::vector<InputOperandId>& ops) const {
  RowLayout layout;
  for (InputOperandId op : ops) {
    const TableDef* table = resolved_.operands[op].table;
    const std::set<std::string>& needed = ctx.needed.at(op);
    for (const Column& c : table->schema.columns()) {
      if (needed.count(ToLower(c.name)) > 0) {
        layout.Add(op, c.name, c.type);
      }
    }
  }
  return layout;
}

std::unique_ptr<SelectStmt> Planner::SynthesizeRemoteStmt(
    const BlockCtx& ctx, const std::vector<InputOperandId>& ops,
    const RowLayout& layout, const std::vector<const Expr*>& extra) const {
  auto stmt = std::make_unique<SelectStmt>();
  for (InputOperandId op : ops) {
    TableRef ref;
    ref.table = resolved_.operands[op].table->name;
    ref.alias = resolved_.operands[op].alias;
    ref.resolved_operand = op;
    stmt->from.push_back(std::move(ref));
  }
  // Select list mirrors the unit layout exactly.
  for (const BoundColumn& slot : layout.slots()) {
    SelectItem item;
    item.expr = Expr::MakeColumn(resolved_.operands[slot.operand].alias,
                                 slot.column);
    stmt->items.push_back(std::move(item));
  }
  std::vector<const Expr*> where;
  for (InputOperandId op : ops) {
    auto it = ctx.single_conjuncts.find(op);
    if (it != ctx.single_conjuncts.end()) {
      where.insert(where.end(), it->second.begin(), it->second.end());
    }
  }
  where.insert(where.end(), extra.begin(), extra.end());
  stmt->where = ConjunctionOf(where);
  return stmt;
}

Result<RemoteEstimate> Planner::EstimateRemote(const SelectStmt& stmt) const {
  return EstimateBackendQuery(stmt, catalog_, opts_.costs);
}

// ---------------------------------------------------------------------------
// Scan construction (shared by local views and back-end tables)
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PhysicalOp>> Planner::BuildScan(
    const BlockCtx& ctx, InputOperandId op, const ScanTarget& target,
    const Schema& storage_schema,
    const std::vector<std::string>& clustered_key,
    const std::vector<IndexDef>& indexes, const TableStats& stats,
    double stats_scale, const std::string& param_column,
    const Expr* param_outer) {
  auto scan = std::make_unique<PhysicalOp>();
  scan->kind = PhysOpKind::kLocalScan;
  scan->target = target;
  scan->operand = op;
  for (const Column& c : storage_schema.columns()) {
    scan->layout.Add(op, c.name, c.type);
  }

  const auto& bounds = ctx.bounds.at(op);
  const AccessPath path =
      ChooseAccessPath(bounds, stats, stats_scale, clustered_key, indexes,
                       opts_.costs, param_column);
  // An index nested-loop inner side is priced per probe, inside a join whose
  // order and method a cached plan keeps as planned: no re-check for it.
  scan->range_priced = path.range_priced && param_column.empty();
  if (path.seek()) {
    scan->index_name = path.index != nullptr ? path.index->name : "";
    if (path.param_seek) {
      // Parameterized point seek on the leading column.
      scan->seek_lo.push_back(param_outer->Clone());
      scan->seek_hi.push_back(param_outer->Clone());
    } else {
      const RangeBound& b = *path.range;
      // Stamp the source literal's offset so the plan cache can parameterize
      // the seek; the residual keeps every conjunct, so a reused seek bound
      // can only be wider than optimal, never wrong.
      if (b.lo) {
        auto lo = Expr::MakeLiteral(*b.lo);
        lo->literal_offset = b.lo_offset;
        scan->seek_lo.push_back(std::move(lo));
      }
      if (b.hi) {
        auto hi = Expr::MakeLiteral(*b.hi);
        hi->literal_offset = b.hi_offset;
        scan->seek_hi.push_back(std::move(hi));
      }
    }
  }

  // Residual: all single-operand conjuncts (idempotent with the seek), plus
  // the parameterized equality so exactness never depends on the seek.
  std::vector<const Expr*> residual_conjs;
  auto it = ctx.single_conjuncts.find(op);
  if (it != ctx.single_conjuncts.end()) residual_conjs = it->second;
  std::unique_ptr<Expr> residual = ConjunctionOf(residual_conjs);
  if (!param_column.empty()) {
    auto eq = Expr::MakeBinary(
        BinaryOp::kEq,
        Expr::MakeColumn(resolved_.operands[op].alias,
                         param_column),
        param_outer->Clone());
    residual = residual ? Expr::MakeBinary(BinaryOp::kAnd, std::move(residual),
                                           std::move(eq))
                        : std::move(eq);
  }
  scan->residual = std::move(residual);

  const double total_rows = static_cast<double>(stats.row_count) * stats_scale;
  scan->est_rows = !param_column.empty()
                       ? std::max(1.0, total_rows /
                                           DistinctOf(op, param_column,
                                                      total_rows))
                       : UnitRowsEstimate(ctx, op) * stats_scale;
  scan->est_cost = path.cost;
  return scan;
}

// ---------------------------------------------------------------------------
// Unit construction
// ---------------------------------------------------------------------------

Result<UnitPlan> Planner::BuildLocalUnit(
    const BlockCtx& ctx, const std::vector<InputOperandId>& ops,
    const PlacementVec& placement, RegionId region, SimTimeMs bound,
    const std::string& param_column, const Expr* param_outer) {
  // Local branch: scans of the matched views, joined left-deep.
  std::unique_ptr<PhysicalOp> local;
  double local_cost = 0;
  double local_rows = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    InputOperandId op = ops[i];
    const ViewDef* view = placement[op].view;
    RCC_ASSIGN_OR_RETURN(Schema view_schema, catalog_.ViewSchema(*view));
    const TableDef* table = resolved_.operands[op].table;
    const TableStats& stats = StatsOf(op);

    // Scale stats down by the view predicate's selectivity and width.
    std::map<std::string, RangeBound> view_bounds;
    for (const ColumnRange& r : view->predicate) {
      RangeBound b;
      b.lo = r.lo;
      b.hi = r.hi;
      view_bounds[ToLower(r.column)] = b;
    }
    double view_sel = BoundsSelectivity(view_bounds, stats);

    ScanTarget target;
    target.is_view = true;
    target.name = view->name;
    RCC_ASSIGN_OR_RETURN(
        auto scan,
        BuildScan(ctx, op, target, view_schema,
                  table->clustered_key, view->secondary_indexes, stats,
                  view_sel, i == 0 ? param_column : std::string(),
                  i == 0 ? param_outer : nullptr));
    scan->delivered = ConsistencyProperty::Leaf(view->region, op);

    if (local == nullptr) {
      local_rows = scan->est_rows;
      local_cost = scan->est_cost;
      local = std::move(scan);
    } else {
      // Join the next view in. Conjuncts newly applicable here:
      std::set<InputOperandId> left_ops(ops.begin(), ops.begin() + i);
      std::vector<const Expr*> applicable;
      for (const Expr* c : ctx.multi_conjuncts) {
        std::set<InputOperandId> combined = left_ops;
        combined.insert(op);
        std::set<InputOperandId> just_left = left_ops;
        if (ExprCoveredByOperands(c, combined, ctx.aliases, false) &&
            !ExprCoveredByOperands(c, just_left, ctx.aliases, false)) {
          applicable.push_back(c);
        }
      }
      // Index nested-loop alternative: a parameterized seek into the new
      // view on one equi-join column.
      const Expr* seek_outer = nullptr;
      const Expr* seek_inner = nullptr;
      for (const Expr* c : applicable) {
        if (c->kind != ExprKind::kBinary || c->op != BinaryOp::kEq) continue;
        if (c->left->kind != ExprKind::kColumnRef ||
            c->right->kind != ExprKind::kColumnRef) {
          continue;
        }
        const Expr* lcol = c->left.get();
        const Expr* rcol = c->right.get();
        std::set<InputOperandId> rset{op};
        if (ExprCoveredByOperands(lcol, rset, ctx.aliases, false)) {
          std::swap(lcol, rcol);
        }
        if (!ExprCoveredByOperands(rcol, rset, ctx.aliases, false)) continue;
        seek_outer = lcol;
        seek_inner = rcol;
        break;
      }
      std::unique_ptr<PhysicalOp> param_scan;
      if (seek_outer != nullptr) {
        RCC_ASSIGN_OR_RETURN(
            param_scan,
            BuildScan(ctx, op, scan->target, view_schema,
                      table->clustered_key, view->secondary_indexes, stats,
                      view_sel, seek_inner->column, seek_outer));
        param_scan->delivered = ConsistencyProperty::Leaf(view->region, op);
      }
      double nlj_cost = param_scan == nullptr
                            ? -1.0
                            : local_cost + local_rows * param_scan->est_cost;
      double hash_cost =
          local_cost + scan->est_cost +
          (local_rows + scan->est_rows) * opts_.costs.hash_row_ms;

      auto join = std::make_unique<PhysicalOp>();
      std::vector<const Expr*> residual;
      double sel = 1.0;
      bool use_seek = param_scan != nullptr && nlj_cost < hash_cost;
      for (const Expr* c : applicable) {
        bool is_eq_join =
            c->kind == ExprKind::kBinary && c->op == BinaryOp::kEq &&
            c->left->kind == ExprKind::kColumnRef &&
            c->right->kind == ExprKind::kColumnRef;
        if (is_eq_join && !use_seek) {
          const Expr* lcol = c->left.get();
          const Expr* rcol = c->right.get();
          std::set<InputOperandId> rset{op};
          if (ExprCoveredByOperands(lcol, rset, ctx.aliases, false)) {
            std::swap(lcol, rcol);
          }
          join->exprs.push_back(lcol->Clone());
          join->exprs2.push_back(rcol->Clone());
          double d = std::max(DistinctOf(op, rcol->column, local_rows), 1.0);
          sel /= d;
        } else if (is_eq_join && use_seek) {
          // The seek enforces one equality; others become residuals.
          const Expr* lcol = c->left.get();
          if (lcol != seek_outer && c->right.get() != seek_outer) {
            residual.push_back(c);
          }
          double d = std::max(DistinctOf(op, seek_inner->column, local_rows),
                              1.0);
          sel /= d;
        } else {
          residual.push_back(c);
          sel *= kDefaultSel;
        }
      }
      std::unique_ptr<PhysicalOp> inner =
          use_seek ? std::move(param_scan) : std::move(scan);
      join->kind = use_seek || join->exprs.empty()
                       ? PhysOpKind::kNestedLoopJoin
                       : PhysOpKind::kHashJoin;
      join->residual = ConjunctionOf(residual);
      join->layout = RowLayout::Concat(local->layout, inner->layout);
      double rows = use_seek ? local_rows * inner->est_rows
                             : local_rows * inner->est_rows * sel;
      join->est_rows = std::max(rows, 0.0);
      join->est_cost = use_seek ? nlj_cost : hash_cost;
      join->delivered =
          ConsistencyProperty::Join(local->delivered, inner->delivered);
      join->children.push_back(std::move(local));
      join->children.push_back(std::move(inner));
      local_rows = join->est_rows;
      local_cost = join->est_cost;
      local = std::move(join);
    }
  }

  // Project the local branch to the canonical unit layout.
  RowLayout unit_layout = UnitLayout(ctx, ops);
  auto project = std::make_unique<PhysicalOp>();
  project->kind = PhysOpKind::kProject;
  project->layout = unit_layout;
  for (const BoundColumn& slot : unit_layout.slots()) {
    project->exprs.push_back(Expr::MakeColumn(
        resolved_.operands[slot.operand].alias, slot.column));
  }
  project->est_rows = local_rows;
  project->est_cost = local_cost + local_rows * opts_.costs.cpu_per_row * 0.2;
  project->delivered = local->delivered;
  project->children.push_back(std::move(local));

  UnitPlan unit;
  unit.ops.insert(ops.begin(), ops.end());
  if (ops.size() == 1) unit.seek_op = ops[0];

  if (!opts_.enable_currency_guards) {
    unit.rows = project->est_rows;
    unit.cost = project->est_cost;
    unit.op = std::move(project);
    return unit;
  }

  // Remote branch + SwitchUnion with currency guard.
  std::vector<const Expr*> extra;
  std::unique_ptr<Expr> param_eq;
  if (!param_column.empty()) {
    param_eq = Expr::MakeBinary(
        BinaryOp::kEq,
        Expr::MakeColumn(resolved_.operands[ops[0]].alias, param_column),
        param_outer->Clone());
    extra.push_back(param_eq.get());
  }
  for (const Expr* c : ctx.multi_conjuncts) {
    std::set<InputOperandId> opset(ops.begin(), ops.end());
    if (ExprCoveredByOperands(c, opset, ctx.aliases, false)) {
      extra.push_back(c);
    }
  }
  auto remote_stmt = SynthesizeRemoteStmt(ctx, ops, unit_layout, extra);
  RCC_ASSIGN_OR_RETURN(RemoteEstimate est, EstimateRemote(*remote_stmt));

  auto remote = std::make_unique<PhysicalOp>();
  remote->kind = PhysOpKind::kRemoteQuery;
  remote->layout = unit_layout;
  remote->remote_stmt = std::move(remote_stmt);
  remote->remote_operands.insert(ops.begin(), ops.end());
  remote->est_rows = project->est_rows;
  remote->est_cost =
      RemoteQueryCost(est.cost, project->est_rows,
                      static_cast<double>(unit_layout.num_slots()),
                      opts_.costs);
  remote->delivered =
      ConsistencyProperty::Uniform(kBackendRegion, remote->remote_operands);

  const RegionDef* region_def = catalog_.FindRegion(region);
  double p = region_def == nullptr
                 ? 0.0
                 : EstimateLocalProbability(bound, region_def->update_delay,
                                            region_def->update_interval);
  if (opts_.region_health && !HeartbeatValid(opts_.region_health(region))) {
    // Quarantined at plan time: the guard cannot pass until a resync
    // completes, so SwitchUnionCost must price this plan as remote-only.
    p = 0.0;
  }

  auto sw = std::make_unique<PhysicalOp>();
  sw->kind = PhysOpKind::kSwitchUnion;
  sw->layout = unit_layout;
  sw->guard_region = region;
  sw->guard_bound_ms = bound;
  sw->remote_fallback_allowed = opts_.allow_remote;
  sw->est_local_p = p;
  sw->est_rows = project->est_rows;
  sw->est_cost =
      SwitchUnionCost(p, project->est_cost, remote->est_cost, opts_.costs);
  std::vector<ConsistencyProperty> child_props{project->delivered,
                                               remote->delivered};
  sw->delivered =
      ConsistencyProperty::SwitchUnion(child_props, &next_dynamic_);
  sw->children.push_back(std::move(project));
  sw->children.push_back(std::move(remote));

  unit.rows = sw->est_rows;
  unit.cost = sw->est_cost;
  unit.op = std::move(sw);
  return unit;
}

Result<UnitPlan> Planner::BuildRemoteUnit(
    const BlockCtx& ctx, const std::vector<InputOperandId>& ops) {
  RowLayout layout = UnitLayout(ctx, ops);
  std::vector<const Expr*> extra;
  if (ops.size() > 1) {
    // Push the intra-unit join conjuncts to the back-end.
    std::set<InputOperandId> opset(ops.begin(), ops.end());
    for (const Expr* c : ctx.multi_conjuncts) {
      if (ExprCoveredByOperands(c, opset, ctx.aliases, false)) {
        extra.push_back(c);
      }
    }
  }
  auto stmt = SynthesizeRemoteStmt(ctx, ops, layout, extra);
  RCC_ASSIGN_OR_RETURN(RemoteEstimate est, EstimateRemote(*stmt));

  auto remote = std::make_unique<PhysicalOp>();
  remote->kind = PhysOpKind::kRemoteQuery;
  remote->layout = layout;
  remote->remote_stmt = std::move(stmt);
  remote->remote_operands.insert(ops.begin(), ops.end());
  remote->est_rows = est.rows;
  remote->est_cost =
      RemoteQueryCost(est.cost, est.rows,
                      static_cast<double>(layout.num_slots()), opts_.costs);
  remote->delivered =
      ConsistencyProperty::Uniform(kBackendRegion, remote->remote_operands);

  UnitPlan unit;
  unit.ops.insert(ops.begin(), ops.end());
  unit.rows = remote->est_rows;
  unit.cost = remote->est_cost;
  unit.op = std::move(remote);
  unit.pushed = std::move(extra);
  return unit;
}

Result<UnitPlan> Planner::BuildBackendUnit(const BlockCtx& ctx,
                                           InputOperandId op) {
  RCC_ASSIGN_OR_RETURN(UnitPlan unit,
                       BuildBackendUnitParam(ctx, op, "", nullptr));
  unit.rebuild = [this, &ctx, op](const std::string& column,
                                  const Expr& outer_ref) {
    return BuildBackendUnitParam(ctx, op, column, &outer_ref);
  };
  return unit;
}

Result<UnitPlan> Planner::BuildBackendUnitParam(const BlockCtx& ctx,
                                                InputOperandId op,
                                                const std::string& column,
                                                const Expr* outer_ref) {
  const TableDef* table = resolved_.operands[op].table;
  ScanTarget target;
  target.is_view = false;
  target.name = table->name;
  RCC_ASSIGN_OR_RETURN(
      auto scan, BuildScan(ctx, op, target, table->schema,
                           table->clustered_key, table->secondary_indexes,
                           StatsOf(op), 1.0, column, outer_ref));
  scan->delivered = ConsistencyProperty::Leaf(kBackendRegion, op);
  UnitPlan unit;
  unit.ops.insert(op);
  unit.seek_op = op;
  unit.rows = scan->est_rows;
  unit.cost = scan->est_cost;
  unit.op = std::move(scan);
  return unit;
}

// ---------------------------------------------------------------------------
// Join enumeration over units
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PhysicalOp>> Planner::JoinUnits(
    const BlockCtx& ctx, std::vector<UnitPlan> units,
    const std::vector<const Expr*>& block_conjuncts) {
  std::vector<const Expr*> conjuncts;
  for (const Expr* c : block_conjuncts) {
    const bool pushed = std::any_of(
        units.begin(), units.end(), [c](const UnitPlan& u) {
          return std::find(u.pushed.begin(), u.pushed.end(), c) !=
                 u.pushed.end();
        });
    if (!pushed) conjuncts.push_back(c);
  }
  if (units.size() == 1) {
    // All residual conjuncts apply here (conjuncts referencing only outer
    // blocks evaluate through the outer scope at run time).
    if (conjuncts.empty()) return std::move(units[0].op);
    auto filter = std::make_unique<PhysicalOp>();
    filter->kind = PhysOpKind::kFilter;
    filter->layout = units[0].op->layout;
    filter->residual = ConjunctionOf(conjuncts);
    filter->est_rows =
        units[0].rows * std::pow(kDefaultSel, conjuncts.size());
    filter->est_cost =
        units[0].cost + units[0].rows * opts_.costs.cpu_per_row;
    filter->delivered = units[0].op->delivered;
    filter->children.push_back(std::move(units[0].op));
    return filter;
  }

  // Enumerate left-deep join orders over unit summaries first; build once.
  size_t n = units.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<size_t> best_order = order;
  double best_cost = -1;

  auto estimate_order = [&](const std::vector<size_t>& ord) {
    std::set<InputOperandId> covered = units[ord[0]].ops;
    double rows = units[ord[0]].rows;
    double cost = units[ord[0]].cost;
    for (size_t i = 1; i < ord.size(); ++i) {
      const UnitPlan& next = units[ord[i]];
      std::set<InputOperandId> combined = covered;
      combined.insert(next.ops.begin(), next.ops.end());
      double sel = 1.0;
      bool has_eq = false;
      bool seekable = false;
      double seek_distinct = 1.0;
      for (const Expr* c : conjuncts) {
        if (!ExprCoveredByOperands(c, combined, ctx.aliases, false)) continue;
        if (ExprCoveredByOperands(c, covered, ctx.aliases, false)) continue;
        if (ExprCoveredByOperands(c, next.ops, ctx.aliases, false)) continue;
        if (c->kind == ExprKind::kBinary && c->op == BinaryOp::kEq &&
            c->left->kind == ExprKind::kColumnRef &&
            c->right->kind == ExprKind::kColumnRef) {
          has_eq = true;
          const Expr* rcol = c->right.get();
          if (!ExprCoveredByOperands(rcol, next.ops, ctx.aliases, false)) {
            rcol = c->left.get();
          }
          double d = DistinctOf(next.seek_op, rcol->column,
                                std::max(1.0, next.rows));
          sel /= std::max(1.0, d);
          if (next.rebuild) {
            seekable = true;
            seek_distinct = std::max(seek_distinct, d);
          }
        } else {
          sel *= kDefaultSel;
        }
      }
      double out_rows = std::max(1.0, rows * next.rows * sel);
      double hash_cost = next.cost +
                         (rows + next.rows) * opts_.costs.hash_row_ms +
                         out_rows * opts_.costs.cpu_per_row;
      if (!has_eq) {
        hash_cost = next.cost + rows * next.rows * opts_.costs.cpu_per_row;
      }
      double join_cost = hash_cost;
      if (seekable) {
        // Index nested loop: one (amortized-guard) probe per outer row.
        double per_probe =
            opts_.costs.seek_ms +
            std::max(1.0, next.rows / seek_distinct) *
                opts_.costs.cpu_per_row;
        double nlj_cost =
            rows * per_probe + out_rows * opts_.costs.cpu_per_row;
        join_cost = std::min(join_cost, nlj_cost);
      }
      cost += join_cost;
      rows = out_rows;
      covered = std::move(combined);
    }
    return cost;
  };

  if (n <= 5) {
    std::vector<size_t> perm = order;
    std::sort(perm.begin(), perm.end());
    do {
      double c = estimate_order(perm);
      if (best_cost < 0 || c < best_cost) {
        best_cost = c;
        best_order = perm;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }

  // Build the chosen order.
  std::vector<const Expr*> remaining = conjuncts;
  std::unique_ptr<PhysicalOp> current = std::move(units[best_order[0]].op);
  std::set<InputOperandId> covered = units[best_order[0]].ops;
  double rows = units[best_order[0]].rows;
  double cost = units[best_order[0]].cost;

  for (size_t i = 1; i < best_order.size(); ++i) {
    UnitPlan& next = units[best_order[i]];
    std::set<InputOperandId> combined = covered;
    combined.insert(next.ops.begin(), next.ops.end());

    // Conjuncts newly applicable at this join.
    std::vector<const Expr*> applicable;
    std::vector<const Expr*> still_remaining;
    for (const Expr* c : remaining) {
      if (ExprCoveredByOperands(c, combined, ctx.aliases, false) &&
          !ExprCoveredByOperands(c, covered, ctx.aliases, false) &&
          !ExprCoveredByOperands(c, next.ops, ctx.aliases, false)) {
        applicable.push_back(c);
      } else {
        still_remaining.push_back(c);
      }
    }
    remaining = std::move(still_remaining);

    // Index-nested-loop alternative: a parameterized seek into the next
    // unit on an equi-join column, re-fetching (or re-probing the guard's
    // cached branch) per outer row.
    const Expr* seek_outer = nullptr;
    std::string seek_column;
    if (next.rebuild) {
      for (const Expr* c : applicable) {
        if (c->kind != ExprKind::kBinary || c->op != BinaryOp::kEq) continue;
        if (c->left->kind != ExprKind::kColumnRef ||
            c->right->kind != ExprKind::kColumnRef) {
          continue;
        }
        const Expr* lcol = c->left.get();
        const Expr* rcol = c->right.get();
        if (ExprCoveredByOperands(lcol, next.ops, ctx.aliases, false)) {
          std::swap(lcol, rcol);
        }
        if (!ExprCoveredByOperands(rcol, next.ops, ctx.aliases, false)) {
          continue;
        }
        seek_outer = lcol;
        seek_column = rcol->column;
        break;
      }
    }
    if (seek_outer != nullptr) {
      RCC_ASSIGN_OR_RETURN(UnitPlan probe,
                           next.rebuild(seek_column, *seek_outer));
      double nlj_rows = std::max(1.0, rows * probe.rows);
      double nlj_cost = cost + rows * probe.cost +
                        nlj_rows * opts_.costs.cpu_per_row;
      double d =
          DistinctOf(next.seek_op, seek_column, std::max(1.0, next.rows));
      double hash_rows =
          std::max(1.0, rows * next.rows / std::max(1.0, d));
      double hash_cost = cost + next.cost +
                         (rows + next.rows) * opts_.costs.hash_row_ms +
                         hash_rows * opts_.costs.cpu_per_row;
      if (nlj_cost < hash_cost) {
        auto join = std::make_unique<PhysicalOp>();
        join->kind = PhysOpKind::kNestedLoopJoin;
        // Residual: everything applicable except the seek equality, which
        // the parameterized access already enforces.
        std::vector<const Expr*> residual;
        for (const Expr* c : applicable) {
          bool is_seek =
              c->kind == ExprKind::kBinary && c->op == BinaryOp::kEq &&
              ((c->left.get() == seek_outer) || (c->right.get() == seek_outer));
          if (!is_seek) residual.push_back(c);
        }
        join->residual = ConjunctionOf(residual);
        join->layout = RowLayout::Concat(current->layout, probe.op->layout);
        join->est_rows = nlj_rows;
        join->est_cost = nlj_cost;
        join->delivered = ConsistencyProperty::Join(current->delivered,
                                                    probe.op->delivered);
        join->children.push_back(std::move(current));
        join->children.push_back(std::move(probe.op));
        rows = join->est_rows;
        cost = join->est_cost;
        covered = std::move(combined);
        current = std::move(join);
        continue;
      }
    }

    auto join = std::make_unique<PhysicalOp>();
    std::vector<const Expr*> residual;
    double sel = 1.0;
    for (const Expr* c : applicable) {
      bool is_eq_join = c->kind == ExprKind::kBinary &&
                        c->op == BinaryOp::kEq &&
                        c->left->kind == ExprKind::kColumnRef &&
                        c->right->kind == ExprKind::kColumnRef;
      if (is_eq_join) {
        const Expr* lcol = c->left.get();
        const Expr* rcol = c->right.get();
        if (ExprCoveredByOperands(lcol, next.ops, ctx.aliases, false)) {
          std::swap(lcol, rcol);
        }
        join->exprs.push_back(lcol->Clone());
        join->exprs2.push_back(rcol->Clone());
        double d = 1.0;
        {
          // Distinct of the inner join column, falling back to unit rows.
          auto it = ctx.aliases.find(ToLower(rcol->table));
          InputOperandId rop =
              it != ctx.aliases.end() ? it->second : kInvalidOperand;
          d = DistinctOf(rop, rcol->column, std::max(1.0, next.rows));
        }
        sel /= std::max(1.0, d);
      } else {
        residual.push_back(c);
        sel *= kDefaultSel;
      }
    }
    join->kind = join->exprs.empty() ? PhysOpKind::kNestedLoopJoin
                                     : PhysOpKind::kHashJoin;
    join->residual = ConjunctionOf(residual);
    join->layout = RowLayout::Concat(current->layout, next.op->layout);
    join->est_rows = std::max(1.0, rows * next.rows * sel);
    join->est_cost = cost + next.cost +
                     (rows + next.rows) * opts_.costs.hash_row_ms +
                     join->est_rows * opts_.costs.cpu_per_row;
    join->delivered =
        ConsistencyProperty::Join(current->delivered, next.op->delivered);
    join->children.push_back(std::move(current));
    join->children.push_back(std::move(next.op));
    rows = join->est_rows;
    cost = join->est_cost;
    covered = std::move(combined);
    current = std::move(join);
  }

  if (!remaining.empty()) {
    // Anything left (e.g. bare-column or cross-block-ish conjuncts) becomes
    // a top filter.
    auto filter = std::make_unique<PhysicalOp>();
    filter->kind = PhysOpKind::kFilter;
    filter->layout = current->layout;
    filter->residual = ConjunctionOf(remaining);
    filter->est_rows =
        std::max(1.0, rows * std::pow(kDefaultSel, remaining.size()));
    filter->est_cost = cost + rows * opts_.costs.cpu_per_row;
    filter->delivered = current->delivered;
    filter->children.push_back(std::move(current));
    current = std::move(filter);
  }
  return current;
}

// ---------------------------------------------------------------------------
// Block planning
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PhysicalOp>> Planner::PlanBlock(
    const SelectStmt& stmt, const PlacementVec& placement,
    InputOperandId pseudo_id) {
  const BlockCtx& ctx = blocks_.at(&stmt);

  // 1. Build units.
  std::vector<UnitPlan> units;
  if (opts_.mode == PlanMode::kBackend) {
    for (InputOperandId op : ctx.base_ops) {
      RCC_ASSIGN_OR_RETURN(UnitPlan unit, BuildBackendUnit(ctx, op));
      units.push_back(std::move(unit));
    }
  } else {
    // Group local operands of this block by their consistency class.
    std::set<InputOperandId> done;
    std::vector<InputOperandId> remote_ops;
    for (InputOperandId op : ctx.base_ops) {
      if (done.count(op) > 0) continue;
      if (!placement[op].local()) {
        remote_ops.push_back(op);
        done.insert(op);
        continue;
      }
      const CcTuple* tuple = resolved_.constraint.TupleFor(op);
      std::vector<InputOperandId> group{op};
      done.insert(op);
      if (tuple != nullptr) {
        for (InputOperandId other : ctx.base_ops) {
          if (done.count(other) > 0 || !placement[other].local()) continue;
          if (tuple->operands.count(other) > 0) {
            group.push_back(other);
            done.insert(other);
          }
        }
      }
      SimTimeMs bound = resolved_.constraint.BoundFor(op);
      RegionId region = placement[op].view->region;
      RCC_ASSIGN_OR_RETURN(
          UnitPlan unit,
          BuildLocalUnit(ctx, group, placement, region, bound, std::string(),
                         nullptr));
      if (group.size() == 1) {
        // Index-nested-loop inner alternative: same unit with a
        // parameterized equality pushed into the view access.
        unit.rebuild = [this, &ctx, group, &placement, region, bound](
                           const std::string& column, const Expr& outer_ref) {
          return BuildLocalUnit(ctx, group, placement, region, bound, column,
                                &outer_ref);
        };
      }
      units.push_back(std::move(unit));
    }
    if (!remote_ops.empty()) {
      // Strategy choice: fetch each table separately (local join) vs. one
      // combined remote query (remote join). Cost decides, and the units
      // priced for the choice are the ones kept.
      const size_t first_remote = units.size();
      double split_cost = 0;
      for (InputOperandId op : remote_ops) {
        RCC_ASSIGN_OR_RETURN(UnitPlan u, BuildRemoteUnit(ctx, {op}));
        split_cost += u.cost;
        units.push_back(std::move(u));
      }
      if (remote_ops.size() > 1) {
        RCC_ASSIGN_OR_RETURN(UnitPlan comb, BuildRemoteUnit(ctx, remote_ops));
        if (comb.cost < split_cost) {
          units.erase(units.begin() + first_remote, units.end());
          units.push_back(std::move(comb));
        }
      }
    }
  }

  // Derived-table units.
  for (const TableRef* ref : ctx.derived) {
    InputOperandId pseudo = ctx.derived_pseudo.at(ToLower(ref->alias));
    RCC_ASSIGN_OR_RETURN(auto child,
                         PlanBlock(*ref->subquery, placement, pseudo));
    child->own_aliases = std::make_shared<AliasMap>(
        blocks_.at(ref->subquery.get()).aliases);
    UnitPlan unit;
    unit.ops.insert(pseudo);
    unit.rows = child->est_rows;
    unit.cost = child->est_cost;
    unit.op = std::move(child);
    units.push_back(std::move(unit));
  }

  // 2. Join + residual filters.
  RCC_ASSIGN_OR_RETURN(auto current,
                       JoinUnits(ctx, std::move(units), ctx.multi_conjuncts));

  // 3. Subquery conjuncts: plan each nested block, filter on top.
  if (!ctx.subquery_conjuncts.empty()) {
    std::vector<std::unique_ptr<Expr>> cloned;
    double sub_cost = 0;
    // The subqueries' data sources take part in the overall consistency
    // property: the filter's delivered property joins them in.
    ConsistencyProperty combined = current->delivered;
    for (const Expr* c : ctx.subquery_conjuncts) {
      auto clone = c->Clone();
      // Plan every subquery inside the clone (keyed by the cloned stmt).
      std::function<Status(Expr*)> plan_subs = [&](Expr* e) -> Status {
        if (e == nullptr) return Status::OK();
        if (e->subquery != nullptr) {
          // The clone needs its own block contexts before planning.
          RCC_RETURN_NOT_OK(PrepareBlocks(e->subquery.get()));
          RCC_ASSIGN_OR_RETURN(
              auto sub_root,
              PlanBlock(*e->subquery, placement, kInvalidOperand));
          sub_cost += sub_root->est_cost;
          combined = ConsistencyProperty::Join(combined, sub_root->delivered);
          SubPlan sp;
          sp.aliases = blocks_.at(e->subquery.get()).aliases;
          sp.root = std::move(sub_root);
          subplans_[e->subquery.get()] = std::move(sp);
        }
        RCC_RETURN_NOT_OK(plan_subs(e->left.get()));
        RCC_RETURN_NOT_OK(plan_subs(e->right.get()));
        for (auto& a : e->args) RCC_RETURN_NOT_OK(plan_subs(a.get()));
        return Status::OK();
      };
      RCC_RETURN_NOT_OK(plan_subs(clone.get()));
      cloned.push_back(std::move(clone));
    }
    auto filter = std::make_unique<PhysicalOp>();
    filter->kind = PhysOpKind::kFilter;
    filter->layout = current->layout;
    std::unique_ptr<Expr> residual;
    for (auto& c : cloned) {
      residual = residual ? Expr::MakeBinary(BinaryOp::kAnd,
                                             std::move(residual), std::move(c))
                          : std::move(c);
    }
    filter->residual = std::move(residual);
    filter->est_rows = std::max(1.0, current->est_rows * 0.5);
    filter->est_cost =
        current->est_cost + current->est_rows * (sub_cost + 0.001);
    filter->delivered = std::move(combined);
    filter->children.push_back(std::move(current));
    current = std::move(filter);
  }

  return FinishBlock(ctx, std::move(current), placement, pseudo_id);
}

Result<std::unique_ptr<PhysicalOp>> Planner::FinishBlock(
    const BlockCtx& ctx, std::unique_ptr<PhysicalOp> input,
    const PlacementVec& placement, InputOperandId pseudo_id) {
  (void)placement;
  const SelectStmt& stmt = *ctx.stmt;
  std::unique_ptr<PhysicalOp> current = std::move(input);

  // Aggregation.
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (ContainsAggregate(item.expr.get())) has_agg = true;
  }
  if (stmt.having != nullptr && ContainsAggregate(stmt.having.get())) {
    has_agg = true;
  }
  if (stmt.having != nullptr && !has_agg) {
    return Status::NotSupported("HAVING requires a grouped query");
  }
  // Aggregate slots by their textual rendering; HAVING and ORDER BY
  // aggregates that do not appear in the select list get hidden slots.
  std::map<std::string, std::string> agg_slot_names;
  // Rewrites aggregate subtrees to references to their slots.
  auto rewrite = [&](const Expr& e) {
    std::unique_ptr<Expr> out = e.Clone();
    VisitNodes(out.get(), [&](Expr* n) {
      if (n->kind == ExprKind::kFuncCall && IsAggregateFunc(n->func)) {
        const std::string& slot = agg_slot_names.at(n->ToString());
        *n = std::move(*Expr::MakeColumn("", slot));
      }
    });
    return out;
  };
  // ORDER BY keys over the block's input, since the sort runs below the
  // final projection (so it may order by a column the select list drops):
  // a bare name that labels a select item — its alias, or the column an
  // unaliased item projects — stands for that item's expression.
  std::vector<const Expr*> order_keys;
  for (const auto& o : stmt.order_by) {
    const Expr* key = o.expr.get();
    for (const auto& item : stmt.items) {
      if (key->kind != ExprKind::kColumnRef || !key->table.empty()) break;
      const Expr* e = item.expr.get();
      const std::string& label =
          !item.alias.empty() || e->kind != ExprKind::kColumnRef ? item.alias
                                                                 : e->column;
      if (EqualsIgnoreCase(label, key->column)) {
        key = e;
        break;
      }
    }
    order_keys.push_back(key);
  }
  if (has_agg) {
    auto agg = std::make_unique<PhysicalOp>();
    agg->kind = PhysOpKind::kHashAggregate;
    double key_card = 1.0;
    for (const auto& g : stmt.group_by) {
      agg->exprs.push_back(g->Clone());
      if (g->kind == ExprKind::kColumnRef) {
        auto it = ctx.aliases.find(ToLower(g->table));
        InputOperandId gop =
            !g->table.empty() && it != ctx.aliases.end() ? it->second
                                                         : kInvalidOperand;
        // Key slot keeps provenance so later references resolve.
        ValueType t = ValueType::kInt64;
        if (gop != kInvalidOperand && gop < resolved_.operands.size()) {
          const TableDef* table = resolved_.operands[gop].table;
          if (auto ci = table->schema.FindColumn(g->column)) {
            t = table->schema.column(*ci).type;
          }
          key_card *= DistinctOf(gop, g->column, 10.0);
        } else {
          key_card *= 10.0;
        }
        agg->layout.Add(gop, g->column, t);
      } else {
        agg->layout.Add(kInvalidOperand,
                        "key" + std::to_string(agg->exprs.size() - 1),
                        ValueType::kDouble);
        key_card *= 10.0;
      }
    }
    int agg_i = 0;
    auto add_agg = [&](const Expr* e,
                       const std::string& preferred_name) -> Status {
      AggItem a;
      a.func = e->func;
      a.star = e->star;
      if (!e->star) {
        if (e->args.size() != 1) {
          return Status::NotSupported("aggregate with != 1 argument");
        }
        a.arg = e->args[0]->Clone();
      }
      a.out_name = !preferred_name.empty()
                       ? preferred_name
                       : e->func + "_" + std::to_string(agg_i);
      agg_slot_names[e->ToString()] = a.out_name;
      agg->layout.Add(kInvalidOperand, a.out_name,
                      a.func == "count" ? ValueType::kInt64
                                        : ValueType::kDouble);
      agg->aggs.push_back(std::move(a));
      ++agg_i;
      return Status::OK();
    };
    for (const auto& item : stmt.items) {
      const Expr* e = item.expr.get();
      if (e->kind == ExprKind::kFuncCall && IsAggregateFunc(e->func)) {
        RCC_RETURN_NOT_OK(add_agg(e, item.alias));
      } else if (ContainsAggregate(e)) {
        return Status::NotSupported(
            "expressions over aggregates are not supported");
      }
    }
    // Hidden slots for HAVING and ORDER BY aggregates not already in the
    // select list.
    std::function<Status(const Expr*)> collect_aggs =
        [&](const Expr* e) -> Status {
      if (e == nullptr) return Status::OK();
      if (e->kind == ExprKind::kFuncCall && IsAggregateFunc(e->func)) {
        if (agg_slot_names.count(e->ToString()) == 0) {
          RCC_RETURN_NOT_OK(add_agg(e, "hidden_" + std::to_string(agg_i)));
        }
        return Status::OK();
      }
      RCC_RETURN_NOT_OK(collect_aggs(e->left.get()));
      RCC_RETURN_NOT_OK(collect_aggs(e->right.get()));
      for (const auto& a : e->args) {
        RCC_RETURN_NOT_OK(collect_aggs(a.get()));
      }
      return Status::OK();
    };
    RCC_RETURN_NOT_OK(collect_aggs(stmt.having.get()));
    for (const Expr* key : order_keys) RCC_RETURN_NOT_OK(collect_aggs(key));
    agg->est_rows = stmt.group_by.empty()
                        ? 1.0
                        : std::min(current->est_rows, key_card);
    agg->est_cost =
        current->est_cost + current->est_rows * opts_.costs.hash_row_ms;
    agg->delivered = current->delivered;
    agg->children.push_back(std::move(current));
    current = std::move(agg);

    if (stmt.having != nullptr) {
      auto filter = std::make_unique<PhysicalOp>();
      filter->kind = PhysOpKind::kFilter;
      filter->layout = current->layout;
      filter->residual = rewrite(*stmt.having);
      filter->est_rows = std::max(1.0, current->est_rows * 0.5);
      filter->est_cost =
          current->est_cost + current->est_rows * opts_.costs.cpu_per_row;
      filter->delivered = current->delivered;
      filter->children.push_back(std::move(current));
      current = std::move(filter);
    }
  }

  if (!order_keys.empty()) {
    auto sort = std::make_unique<PhysicalOp>();
    sort->kind = PhysOpKind::kSort;
    sort->layout = current->layout;
    for (size_t i = 0; i < order_keys.size(); ++i) {
      SortKey k;
      k.expr = has_agg ? rewrite(*order_keys[i]) : order_keys[i]->Clone();
      k.descending = stmt.order_by[i].descending;
      sort->sort_keys.push_back(std::move(k));
    }
    double n = std::max(current->est_rows, 2.0);
    sort->est_rows = current->est_rows;
    sort->est_cost =
        current->est_cost + n * std::log2(n) * opts_.costs.cpu_per_row;
    sort->delivered = current->delivered;
    sort->children.push_back(std::move(current));
    current = std::move(sort);
  }

  // Final projection in select-list (or FROM) order.
  auto project = std::make_unique<PhysicalOp>();
  project->kind = PhysOpKind::kProject;
  InputOperandId tag_base = pseudo_id;
  if (stmt.select_star) {
    for (const BoundColumn& slot : current->layout.slots()) {
      project->exprs.push_back(Expr::MakeColumn("", slot.column));
      // Use unqualified lookup against the child layout; ambiguous star
      // outputs are rejected at execution.
      project->layout.Add(
          tag_base != kInvalidOperand ? tag_base : slot.operand, slot.column,
          ValueType::kInt64);
    }
    // Star projection over the child's layout verbatim: just forward rows.
    project->exprs.clear();
    for (const BoundColumn& slot : current->layout.slots()) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kColumnRef;
      e->table = slot.operand != kInvalidOperand &&
                         slot.operand < resolved_.operands.size()
                     ? resolved_.operands[slot.operand].alias
                     : "";
      e->column = slot.column;
      project->exprs.push_back(std::move(e));
    }
  } else {
    int i = 0;
    int agg_j = 0;  // aggregate ordinal, matching the aggregation operator
    for (const auto& item : stmt.items) {
      const Expr* e = item.expr.get();
      std::unique_ptr<Expr> out_expr;
      std::string name = item.alias;
      InputOperandId tag = tag_base;
      if (e->kind == ExprKind::kFuncCall && IsAggregateFunc(e->func)) {
        // Aggregate output slot by name (named at aggregation time).
        std::string out_name =
            !item.alias.empty() ? item.alias
                                : e->func + "_" + std::to_string(agg_j);
        ++agg_j;
        out_expr = Expr::MakeColumn("", out_name);
        if (name.empty()) name = out_name;
      } else {
        out_expr = e->Clone();
        if (name.empty()) {
          name = e->kind == ExprKind::kColumnRef ? e->column
                                                 : "col" + std::to_string(i);
        }
      }
      if (tag == kInvalidOperand && e->kind == ExprKind::kColumnRef &&
          !e->table.empty()) {
        auto it = ctx.aliases.find(ToLower(e->table));
        if (it != ctx.aliases.end()) tag = it->second;
      }
      project->layout.Add(tag, name, ValueType::kInt64);
      project->exprs.push_back(std::move(out_expr));
      ++i;
    }
  }
  project->distinct = stmt.distinct;
  project->est_rows =
      stmt.distinct ? std::max(1.0, current->est_rows * 0.5)
                    : current->est_rows;
  project->est_cost =
      current->est_cost + current->est_rows * opts_.costs.cpu_per_row * 0.2 +
      (stmt.distinct ? current->est_rows * opts_.costs.hash_row_ms : 0.0);
  project->delivered = current->delivered;
  project->children.push_back(std::move(current));
  current = std::move(project);

  return current;
}

// ---------------------------------------------------------------------------
// Top-level driver
// ---------------------------------------------------------------------------

/// Builds each remote op's back-end template, once the plan is chosen.
void BuildRemoteTemplates(PhysicalOp* op) {
  if (op->kind == PhysOpKind::kRemoteQuery) {
    op->remote_template =
        MakeTemplate(CloneSelectStmt(*op->remote_stmt), /*outer_refs=*/true,
                     &op->remote_args);
  }
  for (auto& c : op->children) BuildRemoteTemplates(c.get());
}

Result<QueryPlan> Planner::Choose(ResolvedQuery resolved) {
  resolved_ = std::move(resolved);
  next_pseudo_ = static_cast<uint32_t>(resolved_.operands.size());
  op_block_.assign(resolved_.operands.size(), 0);
  RCC_RETURN_NOT_OK(PrepareBlocks(resolved_.stmt.get()));

  struct Candidate {
    std::unique_ptr<PhysicalOp> root;
    std::map<const SelectStmt*, SubPlan> subplans;
    double cost = 0;
  };
  std::optional<Candidate> best;

  if (opts_.mode == PlanMode::kBackend) {
    PlacementVec placement(resolved_.operands.size());
    subplans_.clear();
    RCC_ASSIGN_OR_RETURN(
        auto root,
        PlanBlock(*resolved_.stmt, placement, kInvalidOperand));
    Candidate c;
    c.cost = root->est_cost;
    c.root = std::move(root);
    c.subplans = std::move(subplans_);
    best = std::move(c);
  } else {
    RCC_ASSIGN_OR_RETURN(auto placements, EnumeratePlacements());
    for (const PlacementVec& placement : placements) {
      subplans_.clear();
      next_dynamic_ = kDynamicRegionBase;
      auto root_or =
          PlanBlock(*resolved_.stmt, placement, kInvalidOperand);
      if (!root_or.ok()) {
        if (root_or.status().code() == StatusCode::kNotSupported) continue;
        return root_or.status();
      }
      auto root = std::move(root_or).value();
      // Final compile-time consistency check (paper's satisfaction rule).
      if (!root->delivered.Satisfies(resolved_.constraint)) continue;
      if (!best || root->est_cost < best->cost) {
        Candidate c;
        c.cost = root->est_cost;
        c.root = std::move(root);
        c.subplans = std::move(subplans_);
        best = std::move(c);
      }
    }
  }

  if (!best) {
    return Status::ConstraintViolation(
        "no plan satisfies the query's C&C constraints");
  }

  QueryPlan plan;
  plan.root = std::move(best->root);
  plan.subplans = std::move(best->subplans);
  plan.aliases = blocks_.at(resolved_.stmt.get()).aliases;
  plan.est_cost = best->cost;
  plan.resolved = std::move(resolved_);
  return plan;
}

Result<QueryPlan> Planner::Run(ResolvedQuery resolved) {
  RCC_ASSIGN_OR_RETURN(QueryPlan plan, Choose(std::move(resolved)));
  BuildRemoteTemplates(plan.root.get());
  for (auto& [stmt, sub] : plan.subplans) BuildRemoteTemplates(sub.root.get());
  RCC_RETURN_NOT_OK(BindPlan(&plan));
  return plan;
}

}  // namespace

AccessPath ChooseAccessPath(const std::map<std::string, RangeBound>& bounds,
                            const TableStats& stats, double stats_scale,
                            const std::vector<std::string>& clustered_key,
                            const std::vector<IndexDef>& indexes,
                            const CostParams& costs,
                            const std::string& param_column) {
  // Candidate paths, costed against the (scaled) storage.
  const double total_rows = static_cast<double>(stats.row_count) * stats_scale;
  TableStats scaled = stats;
  scaled.row_count = static_cast<int64_t>(total_rows);
  AccessPath best;
  best.cost = FullScanCost(scaled, costs);

  auto try_path = [&](const IndexDef* index, const std::string& first_col) {
    auto offer = [&](double matches, const RangeBound* range) {
      double cost = index == nullptr
                        ? ClusteredRangeCost(scaled, matches, costs)
                        : SecondaryIndexCost(matches, costs);
      if (cost < best.cost) {
        best.cost = cost;
        best.index = index;
        best.range = range;
        best.param_seek = range == nullptr;
      }
    };
    // Parameterized equality on the leading column?
    if (!param_column.empty() && EqualsIgnoreCase(first_col, param_column)) {
      offer(std::max(1.0, total_rows /
                              DistinctIn(stats, first_col, total_rows)),
            nullptr);
      return;
    }
    auto bit = bounds.find(ToLower(first_col));
    if (bit == bounds.end()) return;
    const RangeBound& b = bit->second;
    if (!b.lo && !b.hi) return;
    double frac = 0;
    if (b.has_eq) {
      frac = stats.EqSelectivity(first_col);
    } else {
      frac = stats.RangeSelectivity(first_col, b.lo ? &*b.lo : nullptr,
                                    b.hi ? &*b.hi : nullptr);
      best.range_priced = true;
    }
    offer(total_rows * frac, &b);
  };

  if (!clustered_key.empty()) try_path(nullptr, clustered_key[0]);
  for (const IndexDef& idx : indexes) {
    if (!idx.columns.empty()) try_path(&idx, idx.columns[0]);
  }
  return best;
}

namespace {

template <typename Fn>
bool AllScans(const PhysicalOp* op, const Fn& fn) {
  if (op == nullptr) return true;
  if (op->kind == PhysOpKind::kLocalScan && !fn(*op)) return false;
  for (const auto& c : op->children) {
    if (!AllScans(c.get(), fn)) return false;
  }
  return true;
}

/// `fn` holds for every scan of `plan`, subquery plans included.
template <typename Fn>
bool AllScans(const QueryPlan& plan, const Fn& fn) {
  if (!AllScans(plan.root.get(), fn)) return false;
  for (const auto& [stmt, sub] : plan.subplans) {
    (void)stmt;
    if (!AllScans(sub.root.get(), fn)) return false;
  }
  return true;
}

}  // namespace

bool HasRangePricedScan(const QueryPlan& plan) {
  return !AllScans(plan, [](const PhysicalOp& scan) {
    return !scan.range_priced;
  });
}

bool AccessPathsHold(const QueryPlan& plan, const std::vector<Value>& params,
                     const Catalog& catalog, const CostParams& costs) {
  return AllScans(plan, [&](const PhysicalOp& scan) {
    if (!scan.range_priced) return true;
    const ResolvedOperand& operand = plan.resolved.operands[scan.operand];
    const TableDef& table = *operand.table;
    const AliasMap aliases{{ToLower(operand.alias), scan.operand}};
    const auto bounds =
        ExtractBounds(SplitConjuncts(scan.residual.get()), scan.operand,
                      aliases, table.schema, &params);
    const AccessPath path = ChooseAccessPath(
        bounds, catalog.GetStats(table.name), 1.0, table.clustered_key,
        table.secondary_indexes, costs);
    const bool scan_seeks = !scan.seek_lo.empty() || !scan.seek_hi.empty();
    return path.seek() == scan_seeks &&
           (path.index != nullptr ? path.index->name : std::string()) ==
               scan.index_name;
  });
}

Result<QueryPlan> Optimize(ResolvedQuery resolved, const Catalog& catalog,
                           const OptimizerOptions& options) {
  Planner planner(catalog, options);
  return planner.Run(std::move(resolved));
}

Result<RemoteEstimate> EstimateBackendQuery(const SelectStmt& stmt,
                                            const Catalog& catalog,
                                            const CostParams& costs) {
  RCC_ASSIGN_OR_RETURN(ResolvedQuery resolved, ResolveQuery(stmt, catalog));
  OptimizerOptions opts;
  opts.mode = PlanMode::kBackend;
  opts.costs = costs;
  Planner planner(catalog, opts);
  RCC_ASSIGN_OR_RETURN(QueryPlan plan, planner.Choose(std::move(resolved)));
  RemoteEstimate est;
  est.cost = plan.root->est_cost;
  est.rows = plan.root->est_rows;
  return est;
}

}  // namespace rcc
