#include "exec/remote.h"

#include <functional>
#include <set>

#include "common/strings.h"
#include "exec/event_stream.h"
#include "exec/read_handle.h"

namespace rcc {

namespace {

/// Applies `fn` to every expression position of `stmt` (select items, WHERE,
/// GROUP BY, HAVING, ORDER BY) and recurses into derived tables in FROM.
/// Expression-nested subqueries (EXISTS/IN) are ForEachNode's.
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

/// Applies `fn` to `e` and every node below it, EXISTS/IN subqueries
/// included (every expression position of theirs, as ForEachStmtExpr). `fn`
/// may rewrite a leaf in place.
Status ForEachNode(Expr* e, const std::function<Status(Expr*)>& fn) {
  if (e == nullptr) return Status::OK();
  RCC_RETURN_NOT_OK(fn(e));
  RCC_RETURN_NOT_OK(ForEachNode(e->left.get(), fn));
  RCC_RETURN_NOT_OK(ForEachNode(e->right.get(), fn));
  for (auto& a : e->args) RCC_RETURN_NOT_OK(ForEachNode(a.get(), fn));
  if (e->subquery == nullptr) return Status::OK();
  return ForEachStmtExpr(e->subquery.get(),
                         [&](Expr* sub) { return ForEachNode(sub, fn); });
}

/// ForEachNode over every expression of `stmt`. The statement is written
/// only by a rewriting `fn`, which callers pass for statements they own.
Status ForEachStmtNode(const SelectStmt& stmt,
                       const std::function<Status(Expr*)>& fn) {
  return ForEachStmtExpr(const_cast<SelectStmt*>(&stmt),
                         [&](Expr* e) { return ForEachNode(e, fn); });
}

/// The FROM aliases of `stmt` and of its derived tables.
void AddFromAliases(const SelectStmt& stmt, std::set<std::string>* out) {
  for (const TableRef& ref : stmt.from) {
    out->insert(ToLower(ref.alias));
    if (ref.subquery) AddFromAliases(*ref.subquery, out);
  }
}

}  // namespace

bool StmtHasParams(const SelectStmt& stmt) {
  bool found = false;
  ForEachStmtNode(stmt, [&](Expr* e) {
    found = found || e->kind == ExprKind::kParam;
    return Status::OK();
  });
  return found;
}

Status BindStmtParams(SelectStmt* stmt, const std::vector<Value>& params) {
  return ForEachStmtNode(*stmt, [&](Expr* e) -> Status {
    if (e->kind != ExprKind::kParam) return Status::OK();
    if (e->param_index >= params.size()) {
      return Status::Internal("parameter ?" + std::to_string(e->param_index) +
                              " has no bound value");
    }
    e->kind = ExprKind::kLiteral;
    e->literal = params[e->param_index];
    e->literal_offset = Expr::kNoOffset;
    return Status::OK();
  });
}

Result<std::unique_ptr<SelectStmt>> ParameterizeStmt(const SelectStmt& stmt,
                                                     const EvalScope& outer) {
  auto clone = CloneSelectStmt(stmt);
  // The FROM aliases of every block of the statement — derived tables and
  // nested subqueries included — are its own and stay references.
  std::set<std::string> own;
  AddFromAliases(*clone, &own);
  ForEachStmtNode(*clone, [&](Expr* e) {
    if (e->subquery != nullptr) AddFromAliases(*e->subquery, &own);
    return Status::OK();
  });
  // Correlated outer references may sit in any expression position of the
  // cloned statement — WHERE and the select list, but also GROUP BY, HAVING,
  // ORDER BY, derived tables and nested subqueries; all of them ship to the
  // back-end and must be self-contained, so each becomes a literal.
  RCC_RETURN_NOT_OK(ForEachStmtNode(*clone, [&](Expr* e) -> Status {
    if (e->kind != ExprKind::kColumnRef || e->table.empty() ||
        own.count(ToLower(e->table)) > 0) {
      return Status::OK();
    }
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
  }));
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
  Result<ExecutedQuery> result = ctx_->reader->ExecuteRemote(*stmt, *ctx_);
  if (!result.ok()) return result.status();
  const SimTimeMs now = ctx_->clock->Now();
  ctx_->events->Record(FetchRecord{now, result->rows.size()});
  if (result->layout.num_slots() != op_.layout.num_slots()) {
    return Status::Internal(
        "remote result shape mismatch: got " +
        std::to_string(result->layout.num_slots()) + " columns, expected " +
        std::to_string(op_.layout.num_slots()));
  }
  rows_ = std::move(result->rows);
  if (!served_) {
    served_ = true;
    ctx_->events->Record(ServeRecord{.serve = {.at = now}, .op = &op_});
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
