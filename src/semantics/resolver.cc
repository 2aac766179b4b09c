#include "semantics/resolver.h"

#include <functional>

#include "common/strings.h"
#include "sql/parser.h"

namespace rcc {

namespace {

constexpr int kMaxViewDepth = 16;

/// Invokes `fn` on every subquery nested in an expression.
void ForEachExprSubquery(Expr* expr,
                         const std::function<void(SelectStmt*)>& fn) {
  VisitNodes(expr, [&](Expr* e) {
    if (e->subquery) fn(e->subquery.get());
  });
}

/// Invokes `fn` on every subquery directly nested in a block (FROM-clause
/// derived tables and WHERE/SELECT/GROUP/ORDER expression subqueries).
void ForEachChildBlock(SelectStmt* stmt,
                       const std::function<void(SelectStmt*)>& fn) {
  for (auto& ref : stmt->from) {
    if (ref.subquery) fn(ref.subquery.get());
  }
  ForEachExprSubquery(stmt->where.get(), fn);
  for (auto& item : stmt->items) ForEachExprSubquery(item.expr.get(), fn);
  for (auto& g : stmt->group_by) ForEachExprSubquery(g.get(), fn);
  ForEachExprSubquery(stmt->having.get(), fn);
  for (auto& o : stmt->order_by) ForEachExprSubquery(o.expr.get(), fn);
}

class ResolverImpl {
 public:
  explicit ResolverImpl(const Catalog& catalog) : catalog_(catalog) {}

  Result<ResolvedQuery> Run(const SelectStmt& stmt) {
    ResolvedQuery out;
    out.stmt = CloneSelectStmt(stmt);
    RCC_RETURN_NOT_OK(ExpandViews(out.stmt.get(), 0));
    RCC_RETURN_NOT_OK(ResolveBlock(out.stmt.get()));
    out.operands = std::move(operands_);
    out.raw_constraint = std::move(raw_);
    out.used_default_constraint = out.raw_constraint.empty();
    out.constraint = NormalizeConstraint(
        out.raw_constraint, static_cast<uint32_t>(out.operands.size()));
    return out;
  }

 private:
  /// Replaces FROM references to logical views with their (parsed) bodies,
  /// recursively. The inner currency clauses of the view body stay attached
  /// and are merged during constraint extraction, exactly the paper's
  /// "recursively expands all references to views" step.
  Status ExpandViews(SelectStmt* stmt, int depth) {
    if (depth > kMaxViewDepth) {
      return Status::InvalidArgument("view expansion too deep (cycle?)");
    }
    for (auto& ref : stmt->from) {
      if (ref.is_subquery()) continue;
      const std::string* view_sql = catalog_.FindLogicalView(ref.table);
      if (view_sql == nullptr) continue;
      RCC_ASSIGN_OR_RETURN(auto body, ParseSelect(*view_sql));
      ref.subquery = std::move(body);
      ref.table.clear();  // now a derived table under the original alias
    }
    Status st = Status::OK();
    ForEachChildBlock(stmt, [&](SelectStmt* child) {
      if (st.ok()) {
        Status s = ExpandViews(child, depth + 1);
        if (!s.ok()) st = s;
      }
    });
    return st;
  }

  /// Resolves one block: assigns operand ids to its base tables, recurses
  /// into nested blocks with this block on the scope stack, then extracts
  /// this block's currency clause.
  Status ResolveBlock(SelectStmt* stmt) {
    // Duplicate-alias check within the block.
    for (size_t i = 0; i < stmt->from.size(); ++i) {
      for (size_t j = i + 1; j < stmt->from.size(); ++j) {
        if (EqualsIgnoreCase(stmt->from[i].alias, stmt->from[j].alias)) {
          return Status::InvalidArgument("duplicate table alias '" +
                                         stmt->from[i].alias + "'");
        }
      }
    }
    for (auto& ref : stmt->from) {
      if (ref.is_subquery()) continue;
      const TableDef* def = catalog_.FindTable(ref.table);
      if (def == nullptr) {
        return Status::NotFound("table or view '" + ref.table +
                                "' not found");
      }
      ref.resolved_operand = static_cast<uint32_t>(operands_.size());
      ResolvedOperand op;
      op.id = ref.resolved_operand;
      op.alias = ref.alias;
      op.table = def;
      operands_.push_back(std::move(op));
    }

    scope_stack_.push_back(stmt);
    Status st = QualifyBareColumns(stmt);
    ForEachChildBlock(stmt, [&](SelectStmt* child) {
      if (st.ok()) {
        Status s = ResolveBlock(child);
        if (!s.ok()) st = s;
      }
    });
    if (st.ok()) st = ExtractCurrency(stmt);
    scope_stack_.pop_back();
    return st;
  }

  /// Rewrites unqualified column references of this block to qualified ones
  /// when the column belongs to exactly one table in scope (innermost scope
  /// first); ambiguous names stay bare. A reference that names no column
  /// fails with NotFound: a qualified one whose alias names a base table
  /// without that column, and a bare one that no base table in any scope
  /// has, unless a derived table is in scope (its columns are not known
  /// here) or the name is a select-list alias of this block.
  Status QualifyBareColumns(SelectStmt* stmt) {
    bool derived_in_scope = false;
    for (const SelectStmt* block : scope_stack_) {
      for (const TableRef& ref : block->from) {
        derived_in_scope = derived_in_scope || ref.is_subquery();
      }
    }
    auto is_item_alias = [stmt](const std::string& name) {
      for (const SelectItem& item : stmt->items) {
        if (EqualsIgnoreCase(item.alias, name)) return true;
      }
      return false;
    };
    Status st = Status::OK();
    std::function<void(Expr*)> walk = [&](Expr* e) {
      if (e == nullptr || !st.ok()) return;
      if (e->kind == ExprKind::kColumnRef && !e->table.empty()) {
        const TableRef* ref = LookupAlias(e->table);
        if (ref == nullptr || ref->is_subquery()) return;
        const TableDef* def = operands_[ref->resolved_operand].table;
        if (!def->schema.FindColumn(e->column)) {
          st = Status::NotFound("column '" + e->table + "." + e->column +
                                "' not found in " + def->name);
        }
        return;
      }
      if (e->kind == ExprKind::kColumnRef) {
        for (auto it = scope_stack_.rbegin(); it != scope_stack_.rend();
             ++it) {
          const TableRef* owner = nullptr;
          int matches = 0;
          for (const TableRef& ref : (*it)->from) {
            if (ref.is_subquery()) continue;  // derived columns stay bare
            const TableDef* def = operands_[ref.resolved_operand].table;
            if (def->schema.FindColumn(e->column)) {
              owner = &ref;
              ++matches;
            }
          }
          if (matches == 1) {
            e->table = owner->alias;
            return;
          }
          if (matches > 1) return;  // ambiguous: leave bare
        }
        if (!derived_in_scope && !is_item_alias(e->column)) {
          st = Status::NotFound("column '" + e->column + "' not found");
        }
        return;
      }
      walk(e->left.get());
      walk(e->right.get());
      for (auto& a : e->args) walk(a.get());
      // Nested subqueries are qualified by their own block's pass.
    };
    walk(stmt->where.get());
    for (auto& item : stmt->items) walk(item.expr.get());
    for (auto& g : stmt->group_by) walk(g.get());
    walk(stmt->having.get());
    for (auto& o : stmt->order_by) walk(o.expr.get());
    return st;
  }

  /// Resolves the block's currency clause against the scope stack. A target
  /// alias may name a table of this block or of any enclosing block
  /// (paper §2.1: "the new clause can reference tables defined in the
  /// current or in outer SFW blocks").
  Status ExtractCurrency(SelectStmt* stmt) {
    for (const CurrencySpec& spec : stmt->currency) {
      CcTuple tuple;
      tuple.bound_ms = spec.bound_ms;
      tuple.by_columns = spec.by_columns;
      for (const std::string& target : spec.targets) {
        const TableRef* ref = LookupAlias(target);
        if (ref == nullptr) {
          return Status::InvalidArgument(
              "currency clause references unknown table '" + target + "'");
        }
        for (InputOperandId op : ResolvedQuery::OperandsOf(*ref)) {
          tuple.operands.insert(op);
        }
      }
      raw_.tuples.push_back(std::move(tuple));
    }
    return Status::OK();
  }

  const TableRef* LookupAlias(const std::string& alias) const {
    for (auto it = scope_stack_.rbegin(); it != scope_stack_.rend(); ++it) {
      for (const TableRef& ref : (*it)->from) {
        if (EqualsIgnoreCase(ref.alias, alias)) return &ref;
      }
    }
    return nullptr;
  }

  const Catalog& catalog_;
  std::vector<ResolvedOperand> operands_;
  CcConstraint raw_;
  std::vector<SelectStmt*> scope_stack_;
};

void CollectOperands(const SelectStmt& stmt, std::vector<InputOperandId>* out);

void CollectFromRef(const TableRef& ref, std::vector<InputOperandId>* out) {
  if (ref.is_subquery()) {
    CollectOperands(*ref.subquery, out);
  } else if (ref.resolved_operand != kInvalidOperand) {
    out->push_back(ref.resolved_operand);
  }
}

void CollectExprOperands(const Expr* e, std::vector<InputOperandId>* out) {
  VisitNodes(e, [&](const Expr* n) {
    if (n->subquery) CollectOperands(*n->subquery, out);
  });
}

void CollectOperands(const SelectStmt& stmt,
                     std::vector<InputOperandId>* out) {
  for (const TableRef& ref : stmt.from) CollectFromRef(ref, out);
  CollectExprOperands(stmt.where.get(), out);
  for (const auto& item : stmt.items) CollectExprOperands(item.expr.get(), out);
}

}  // namespace

std::vector<InputOperandId> ResolvedQuery::OperandsOf(const TableRef& ref) {
  std::vector<InputOperandId> out;
  CollectFromRef(ref, &out);
  return out;
}

Result<ResolvedQuery> ResolveQuery(const SelectStmt& stmt,
                                   const Catalog& catalog) {
  ResolverImpl impl(catalog);
  return impl.Run(stmt);
}

}  // namespace rcc
