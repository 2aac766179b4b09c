#include "exec/remote.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/strings.h"
#include "exec/read_handle.h"

namespace rcc {

namespace {

/// Applies `fn` to every expression position of `stmt` (select items, WHERE,
/// GROUP BY, HAVING, ORDER BY) and recurses into derived tables in FROM.
/// Expression-nested subqueries (EXISTS/IN) are handled by the expression
/// walkers themselves.
Status ForEachStmtExpr(SelectStmt* stmt,
                       const std::function<Status(Expr*)>& fn) {
  for (auto& item : stmt->items) RCC_RETURN_NOT_OK(fn(item.expr.get()));
  RCC_RETURN_NOT_OK(fn(stmt->where.get()));
  for (auto& g : stmt->group_by) RCC_RETURN_NOT_OK(fn(g.get()));
  RCC_RETURN_NOT_OK(fn(stmt->having.get()));
  for (auto& o : stmt->order_by) RCC_RETURN_NOT_OK(fn(o.expr.get()));
  for (auto& ref : stmt->from) {
    if (ref.subquery) {
      RCC_RETURN_NOT_OK(ForEachStmtExpr(ref.subquery.get(), fn));
    }
  }
  return Status::OK();
}

/// Collects the FROM aliases of `stmt` and all nested blocks (these must NOT
/// be parameterized away).
void CollectOwnAliases(const SelectStmt& stmt, std::set<std::string>* out) {
  for (const TableRef& ref : stmt.from) {
    out->insert(ToLower(ref.alias));
    if (ref.subquery) CollectOwnAliases(*ref.subquery, out);
  }
  std::function<Status(Expr*)> walk = [&](Expr* e) -> Status {
    if (e == nullptr) return Status::OK();
    if (e->subquery) CollectOwnAliases(*e->subquery, out);
    RCC_RETURN_NOT_OK(walk(e->left.get()));
    RCC_RETURN_NOT_OK(walk(e->right.get()));
    for (const auto& a : e->args) RCC_RETURN_NOT_OK(walk(a.get()));
    return Status::OK();
  };
  // const_cast is safe: `walk` never mutates, it only needs the mutable
  // signature that ForEachStmtExpr shares with the substitution pass.
  ForEachStmtExpr(const_cast<SelectStmt*>(&stmt), walk);
}

/// Replaces column refs resolvable in the outer scope with literals.
Status SubstituteExpr(Expr* e, const std::set<std::string>& own,
                      const EvalScope& outer) {
  if (e == nullptr) return Status::OK();
  if (e->kind == ExprKind::kColumnRef) {
    bool is_own =
        !e->table.empty() ? own.count(ToLower(e->table)) > 0 : true;
    if (is_own) return Status::OK();
    auto v = EvalExpr(*e, outer, nullptr);
    if (!v.ok()) {
      return Status::Internal("cannot parameterize outer reference " +
                              e->ToString() + ": " + v.status().ToString());
    }
    e->kind = ExprKind::kLiteral;
    e->literal = std::move(v).value();
    e->table.clear();
    e->column.clear();
    return Status::OK();
  }
  RCC_RETURN_NOT_OK(SubstituteExpr(e->left.get(), own, outer));
  RCC_RETURN_NOT_OK(SubstituteExpr(e->right.get(), own, outer));
  for (auto& a : e->args) {
    RCC_RETURN_NOT_OK(SubstituteExpr(a.get(), own, outer));
  }
  if (e->subquery != nullptr) {
    // Nested blocks share the same "own" alias universe (already collected
    // recursively). All their expression positions carry potential outer
    // references, not only WHERE and the select list.
    RCC_RETURN_NOT_OK(ForEachStmtExpr(
        e->subquery.get(),
        [&](Expr* sub) { return SubstituteExpr(sub, own, outer); }));
  }
  return Status::OK();
}

/// Replaces kParam markers with literals from `params` (recursing into
/// EXISTS/IN subqueries like SubstituteExpr does).
Status BindParamsInExpr(Expr* e, const std::vector<Value>& params) {
  if (e == nullptr) return Status::OK();
  if (e->kind == ExprKind::kParam) {
    if (e->param_index >= params.size()) {
      return Status::Internal("parameter ?" + std::to_string(e->param_index) +
                              " has no bound value");
    }
    e->kind = ExprKind::kLiteral;
    e->literal = params[e->param_index];
    e->literal_offset = Expr::kNoOffset;
    return Status::OK();
  }
  RCC_RETURN_NOT_OK(BindParamsInExpr(e->left.get(), params));
  RCC_RETURN_NOT_OK(BindParamsInExpr(e->right.get(), params));
  for (auto& a : e->args) {
    RCC_RETURN_NOT_OK(BindParamsInExpr(a.get(), params));
  }
  if (e->subquery != nullptr) {
    RCC_RETURN_NOT_OK(ForEachStmtExpr(
        e->subquery.get(),
        [&](Expr* sub) { return BindParamsInExpr(sub, params); }));
  }
  return Status::OK();
}

}  // namespace

bool StmtHasParams(const SelectStmt& stmt) {
  bool found = false;
  std::function<Status(Expr*)> walk = [&](Expr* e) -> Status {
    if (e == nullptr || found) return Status::OK();
    if (e->kind == ExprKind::kParam) {
      found = true;
      return Status::OK();
    }
    RCC_RETURN_NOT_OK(walk(e->left.get()));
    RCC_RETURN_NOT_OK(walk(e->right.get()));
    for (const auto& a : e->args) RCC_RETURN_NOT_OK(walk(a.get()));
    if (e->subquery != nullptr) {
      RCC_RETURN_NOT_OK(ForEachStmtExpr(e->subquery.get(), walk));
    }
    return Status::OK();
  };
  // const_cast is safe: `walk` never mutates (see CollectOwnAliases).
  ForEachStmtExpr(const_cast<SelectStmt*>(&stmt), walk);
  return found;
}

Status BindStmtParams(SelectStmt* stmt, const std::vector<Value>& params) {
  return ForEachStmtExpr(
      stmt, [&](Expr* e) { return BindParamsInExpr(e, params); });
}

Result<std::unique_ptr<SelectStmt>> ParameterizeStmt(const SelectStmt& stmt,
                                                     const EvalScope& outer) {
  auto clone = CloneSelectStmt(stmt);
  std::set<std::string> own;
  CollectOwnAliases(*clone, &own);
  // Correlated outer references may sit in any expression position of the
  // cloned statement — WHERE and the select list, but also GROUP BY, HAVING,
  // ORDER BY and derived tables; all of them ship to the back-end and must be
  // self-contained.
  RCC_RETURN_NOT_OK(ForEachStmtExpr(
      clone.get(), [&](Expr* e) { return SubstituteExpr(e, own, outer); }));
  return clone;
}

Status RemoteQueryIterator::Open(const EvalScope* outer) {
  rows_.clear();
  pos_ = 0;
  // Substitute outer references before shipping (possibly correlated).
  const SelectStmt* stmt = op_.remote_stmt.get();
  std::unique_ptr<SelectStmt> parameterized;
  if (outer != nullptr && outer->row != nullptr) {
    RCC_ASSIGN_OR_RETURN(parameterized,
                         ParameterizeStmt(*op_.remote_stmt, *outer));
    stmt = parameterized.get();
  }
  // Plan-cache parameter markers must be rewritten to this execution's
  // values before the statement leaves the process.
  if (StmtHasParams(*stmt)) {
    if (ctx_->params == nullptr) {
      return Status::Internal("remote statement has unbound parameters");
    }
    if (parameterized == nullptr) {
      parameterized = CloneSelectStmt(*stmt);
      stmt = parameterized.get();
    }
    RCC_RETURN_NOT_OK(BindStmtParams(parameterized.get(), *ctx_->params));
  }
  Result<RemoteResult> result = ctx_->reader->ExecuteRemote(*stmt, *ctx_);
  if (!result.ok()) return result.status();
  ++ctx_->stats->remote_queries;
  // A remote fetch reads the latest back-end snapshot.
  const SimTimeMs now = ctx_->clock->Now();
  ctx_->stats->max_seen_heartbeat =
      std::max(ctx_->stats->max_seen_heartbeat, now);
  if (ctx_->trace != nullptr) {
    ctx_->trace->Record(obs::TraceEventKind::kRemoteFetch, now,
                        StrPrintf("rows=%zu", result->rows.size()));
  }
  if (result->layout.num_slots() != op_.layout.num_slots()) {
    return Status::Internal(
        "remote result shape mismatch: got " +
        std::to_string(result->layout.num_slots()) + " columns, expected " +
        std::to_string(op_.layout.num_slots()));
  }
  rows_ = std::move(result->rows);
  if (ctx_->history != nullptr && !recorded_) {
    recorded_ = true;
    ServeObservation obs;
    obs.query_id = ctx_->history_query_id;
    obs.at = now;
    obs.local = false;
    obs.degraded = false;
    obs.region = kBackendRegion;
    obs.heartbeat_known = false;
    obs.operands.assign(op_.remote_operands.begin(),
                        op_.remote_operands.end());
    ctx_->history->OnServe(obs);
  }
  return Status::OK();
}

Result<bool> RemoteQueryIterator::Next(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

Result<bool> RemoteQueryIterator::NextBatch(RowBatch* out, size_t max_rows) {
  out->Clear();
  while (pos_ < rows_.size() && out->rows.size() < max_rows) {
    out->rows.push_back(rows_[pos_++]);
  }
  return !out->rows.empty();
}

Status RemoteQueryIterator::Close() {
  rows_.clear();
  pos_ = 0;
  return Status::OK();
}

}  // namespace rcc
