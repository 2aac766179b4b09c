#include "sql/ast.h"

#include <set>

#include "common/strings.h"

namespace rcc {

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kBinary:
      return "(" + left->ToString() + " " + std::string(BinaryOpName(op)) +
             " " + right->ToString() + ")";
    case ExprKind::kNot:
      return "NOT (" + right->ToString() + ")";
    case ExprKind::kFuncCall: {
      std::string out = func + "(";
      if (star) out += "*";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kExists:
      return "EXISTS (" + subquery->ToString() + ")";
    case ExprKind::kInSubquery:
      return left->ToString() + " IN (" + subquery->ToString() + ")";
    case ExprKind::kParam:
      return "?" + std::to_string(param_index);
  }
  return "?";
}


std::unique_ptr<Expr> Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->literal_offset = literal_offset;
  out->param_index = param_index;
  out->table = table;
  out->column = column;
  out->scope_depth = scope_depth;
  out->slot = slot;
  out->op = op;
  if (left) out->left = left->Clone();
  if (right) out->right = right->Clone();
  out->func = func;
  out->star = star;
  for (const auto& a : args) out->args.push_back(a->Clone());
  if (subquery) out->subquery = CloneSelectStmt(*subquery);
  return out;
}

std::unique_ptr<Expr> Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::MakeColumn(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<Expr> Expr::MakeBinary(BinaryOp op, std::unique_ptr<Expr> l,
                                       std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::string CurrencySpec::ToString() const {
  std::string out;
  if (bound_ms % 60000 == 0) {
    out = std::to_string(bound_ms / 60000) + " MIN";
  } else if (bound_ms % 1000 == 0) {
    out = std::to_string(bound_ms / 1000) + " SECONDS";
  } else {
    out = std::to_string(bound_ms) + " MS";
  }
  out += " ON (";
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) out += ", ";
    out += targets[i];
  }
  out += ")";
  if (!by_columns.empty()) {
    out += " BY ";
    for (size_t i = 0; i < by_columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += by_columns[i];
    }
  }
  return out;
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  if (select_star) {
    out += "*";
  } else {
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += items[i].expr->ToString();
      if (!items[i].alias.empty()) out += " AS " + items[i].alias;
    }
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    if (from[i].is_subquery()) {
      out += "(" + from[i].subquery->ToString() + ") " + from[i].alias;
    } else {
      out += from[i].table;
      if (!EqualsIgnoreCase(from[i].alias, from[i].table)) {
        out += " " + from[i].alias;
      }
    }
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (!currency.empty()) {
    out += " CURRENCY ";
    for (size_t i = 0; i < currency.size(); ++i) {
      if (i > 0) out += ", ";
      out += currency[i].ToString();
    }
  }
  return out;
}

std::unique_ptr<SelectStmt> CloneSelectStmt(const SelectStmt& s) {
  auto out = std::make_unique<SelectStmt>();
  out->select_star = s.select_star;
  out->distinct = s.distinct;
  for (const auto& item : s.items) {
    SelectItem it;
    it.expr = item.expr->Clone();
    it.alias = item.alias;
    out->items.push_back(std::move(it));
  }
  for (const auto& tr : s.from) {
    TableRef ref;
    ref.table = tr.table;
    ref.alias = tr.alias;
    ref.resolved_operand = tr.resolved_operand;
    if (tr.subquery) ref.subquery = CloneSelectStmt(*tr.subquery);
    out->from.push_back(std::move(ref));
  }
  if (s.where) out->where = s.where->Clone();
  for (const auto& g : s.group_by) out->group_by.push_back(g->Clone());
  if (s.having) out->having = s.having->Clone();
  for (const auto& o : s.order_by) {
    OrderItem oi;
    oi.expr = o.expr->Clone();
    oi.descending = o.descending;
    out->order_by.push_back(std::move(oi));
  }
  out->currency = s.currency;
  return out;
}

void VisitStmtNodes(SelectStmt* s, const std::function<void(Expr*)>& fn) {
  auto visit = [&](Expr* e) {
    VisitNodes(e, [&](Expr* n) {
      fn(n);
      if (n->subquery) VisitStmtNodes(n->subquery.get(), fn);
    });
  };
  for (auto& item : s->items) visit(item.expr.get());
  for (auto& ref : s->from) {
    if (ref.subquery) VisitStmtNodes(ref.subquery.get(), fn);
  }
  visit(s->where.get());
  for (auto& g : s->group_by) visit(g.get());
  visit(s->having.get());
  for (auto& o : s->order_by) visit(o.expr.get());
}

namespace {

/// The FROM aliases of `s` and of its derived tables.
void AddFromAliases(const SelectStmt& s, std::set<std::string>* out) {
  for (const TableRef& ref : s.from) {
    out->insert(ToLower(ref.alias));
    if (ref.subquery) AddFromAliases(*ref.subquery, out);
  }
}

}  // namespace

QueryTemplate MakeTemplate(std::unique_ptr<SelectStmt> tmpl, bool outer_refs,
                           std::vector<std::unique_ptr<Expr>>* args) {
  // The aliases of every block — derived tables and nested subqueries
  // included — are the statement's own; their columns stay references.
  std::set<std::string> own;
  if (outer_refs) {
    AddFromAliases(*tmpl, &own);
    VisitStmtNodes(tmpl.get(), [&](Expr* e) {
      if (e->subquery != nullptr) AddFromAliases(*e->subquery, &own);
    });
  }
  std::vector<Expr*> values;
  std::vector<Expr*> outer;
  VisitStmtNodes(tmpl.get(), [&](Expr* e) {
    if (e->kind == ExprKind::kLiteral || e->kind == ExprKind::kParam) {
      values.push_back(e);
    } else if (outer_refs && e->kind == ExprKind::kColumnRef &&
               !e->table.empty() && own.count(ToLower(e->table)) == 0) {
      outer.push_back(e);
    }
  });
  values.insert(values.end(), outer.begin(), outer.end());
  args->clear();
  for (Expr* e : values) {
    args->push_back(std::make_unique<Expr>(std::move(*e)));
    *e = Expr();
    e->kind = ExprKind::kParam;
    e->param_index = args->size() - 1;
  }
  QueryTemplate out;
  out.key = tmpl->ToString();
  out.stmt = std::move(tmpl);
  return out;
}

}  // namespace rcc
