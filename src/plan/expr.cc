#include "plan/expr.h"

#include <cmath>

#include "common/strings.h"

namespace rcc {

void RowLayout::Add(InputOperandId operand, std::string column,
                    ValueType type) {
  BoundColumn bc;
  bc.operand = operand;
  bc.column = column;
  slots_.push_back(std::move(bc));
  std::vector<Column> cols = schema_.columns();
  cols.push_back(Column{std::move(column), type});
  schema_ = Schema(std::move(cols));
}

std::optional<size_t> RowLayout::Find(InputOperandId operand,
                                      std::string_view column) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].operand == operand &&
        EqualsIgnoreCase(slots_[i].column, column)) {
      return i;
    }
  }
  return std::nullopt;
}

Result<std::optional<size_t>> RowLayout::FindUnqualified(
    std::string_view column) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (EqualsIgnoreCase(slots_[i].column, column)) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column reference '" +
                                       std::string(column) + "'");
      }
      found = i;
    }
  }
  return found;
}

RowLayout RowLayout::Concat(const RowLayout& left, const RowLayout& right) {
  RowLayout out = left;
  for (size_t i = 0; i < right.slots_.size(); ++i) {
    out.Add(right.slots_[i].operand, right.slots_[i].column,
            right.schema_.column(i).type);
  }
  return out;
}

std::string RowLayout::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i > 0) out += ", ";
    if (slots_[i].operand != kInvalidOperand) {
      out += "#" + std::to_string(slots_[i].operand) + ".";
    }
    out += slots_[i].column;
  }
  out += "]";
  return out;
}

namespace {

Result<Value> EvalBinary(const Expr& expr, const EvalScope& scope,
                         const SubqueryEvaluator* subq) {
  // AND/OR get short-circuit, three-valued handling.
  if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
    RCC_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.left, scope, subq));
    bool is_and = expr.op == BinaryOp::kAnd;
    if (!l.is_null()) {
      bool lb = l.AsInt() != 0;
      if (is_and && !lb) return Value::Int(0);
      if (!is_and && lb) return Value::Int(1);
    }
    RCC_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.right, scope, subq));
    if (l.is_null() || r.is_null()) {
      // unknown AND true = unknown; unknown OR false = unknown, etc.
      if (!r.is_null()) {
        bool rb = r.AsInt() != 0;
        if (is_and && !rb) return Value::Int(0);
        if (!is_and && rb) return Value::Int(1);
      }
      return Value::Null();
    }
    bool rb = r.AsInt() != 0;
    return Value::Int(rb ? 1 : 0);
  }

  RCC_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.left, scope, subq));
  RCC_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.right, scope, subq));

  switch (expr.op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (l.is_null() || r.is_null()) return Value::Null();
      int c = l.Compare(r);
      bool v = false;
      switch (expr.op) {
        case BinaryOp::kEq: v = c == 0; break;
        case BinaryOp::kNe: v = c != 0; break;
        case BinaryOp::kLt: v = c < 0; break;
        case BinaryOp::kLe: v = c <= 0; break;
        case BinaryOp::kGt: v = c > 0; break;
        case BinaryOp::kGe: v = c >= 0; break;
        default: break;
      }
      return Value::Int(v ? 1 : 0);
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (l.is_null() || r.is_null()) return Value::Null();
      if (!l.is_numeric() || !r.is_numeric()) {
        return Status::InvalidArgument("arithmetic on non-numeric values");
      }
      if (l.is_int() && r.is_int() && expr.op != BinaryOp::kDiv) {
        int64_t a = l.AsInt();
        int64_t b = r.AsInt();
        switch (expr.op) {
          case BinaryOp::kAdd: return Value::Int(a + b);
          case BinaryOp::kSub: return Value::Int(a - b);
          case BinaryOp::kMul: return Value::Int(a * b);
          default: break;
        }
      }
      double a = l.AsDouble();
      double b = r.AsDouble();
      switch (expr.op) {
        case BinaryOp::kAdd: return Value::Double(a + b);
        case BinaryOp::kSub: return Value::Double(a - b);
        case BinaryOp::kMul: return Value::Double(a * b);
        case BinaryOp::kDiv:
          if (b == 0) return Value::Null();
          return Value::Double(a / b);
        default: break;
      }
      break;
    }
    default:
      break;
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const EvalScope& scope,
                       const SubqueryEvaluator* subq) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kParam: {
      for (const EvalScope* s = &scope; s != nullptr; s = s->outer) {
        if (s->params == nullptr) continue;
        if (expr.param_index >= s->params->size()) break;
        return (*s->params)[expr.param_index];
      }
      return Status::Internal("parameter ?" +
                              std::to_string(expr.param_index) +
                              " not bound at execution");
    }
    case ExprKind::kColumnRef: {
      const EvalScope* s = &scope;
      for (uint32_t d = expr.scope_depth; d > 0 && s != nullptr; --d) {
        s = s->outer;
      }
      if (s == nullptr || s->row == nullptr || expr.slot >= s->row->size()) {
        return Status::NotFound("unbound column reference '" +
                                expr.ToString() + "'");
      }
      return (*s->row)[expr.slot];
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, scope, subq);
    case ExprKind::kNot: {
      RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.right, scope, subq));
      if (v.is_null()) return Value::Null();
      return Value::Int(v.AsInt() != 0 ? 0 : 1);
    }
    case ExprKind::kFuncCall:
      // Aggregates are computed by the aggregation operator; reaching here
      // means a scalar context referenced an aggregate.
      return Status::NotSupported("function '" + expr.func +
                                  "' outside aggregation context");
    case ExprKind::kExists:
    case ExprKind::kInSubquery: {
      if (subq == nullptr || !(*subq)) {
        return Status::NotSupported("subquery evaluation not available here");
      }
      if (expr.kind == ExprKind::kExists) {
        return (*subq)(*expr.subquery, scope, nullptr);
      }
      RCC_ASSIGN_OR_RETURN(Value probe, EvalExpr(*expr.left, scope, subq));
      if (probe.is_null()) return Value::Null();
      return (*subq)(*expr.subquery, scope, &probe);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalPredicate(const Expr& expr, const EvalScope& scope,
                           const SubqueryEvaluator* subq) {
  RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, scope, subq));
  if (v.is_null()) return false;
  if (v.is_numeric()) return v.AsDouble() != 0;
  return Status::InvalidArgument("predicate did not evaluate to a boolean");
}

std::vector<const Expr*> SplitConjuncts(const Expr* expr) {
  std::vector<const Expr*> out;
  if (expr == nullptr) return out;
  if (expr->kind == ExprKind::kBinary && expr->op == BinaryOp::kAnd) {
    auto l = SplitConjuncts(expr->left.get());
    auto r = SplitConjuncts(expr->right.get());
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }
  out.push_back(expr);
  return out;
}

void CollectColumnsOf(const Expr* expr, InputOperandId operand,
                      const AliasMap& aliases,
                      std::set<std::string>* columns) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kColumnRef) {
    if (!expr->table.empty()) {
      auto it = aliases.find(ToLower(expr->table));
      if (it != aliases.end() && it->second == operand) {
        columns->insert(ToLower(expr->column));
      }
    } else {
      // Bare reference: conservatively attribute to every operand (the
      // caller intersects with the operand's real schema later).
      columns->insert(ToLower(expr->column));
    }
    return;
  }
  CollectColumnsOf(expr->left.get(), operand, aliases, columns);
  CollectColumnsOf(expr->right.get(), operand, aliases, columns);
  for (const auto& a : expr->args) {
    CollectColumnsOf(a.get(), operand, aliases, columns);
  }
  // Correlated references inside subqueries also pull columns of the outer
  // operand.
  if (expr->subquery != nullptr) {
    const SelectStmt& s = *expr->subquery;
    CollectColumnsOf(s.where.get(), operand, aliases, columns);
    for (const auto& item : s.items) {
      CollectColumnsOf(item.expr.get(), operand, aliases, columns);
    }
  }
}

bool ExprCoveredByOperands(const Expr* expr,
                           const std::set<InputOperandId>& operands,
                           const AliasMap& aliases, bool allow_bare) {
  return !AnyNode(expr, [&](const Expr& n) {
    if (n.subquery != nullptr) return true;  // keep subqueries at the top
    if (n.kind != ExprKind::kColumnRef) return false;
    if (n.table.empty()) return !allow_bare;
    auto it = aliases.find(ToLower(n.table));
    return it == aliases.end() || operands.count(it->second) == 0;
  });
}

}  // namespace rcc
