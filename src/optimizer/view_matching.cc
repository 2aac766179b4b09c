#include "optimizer/view_matching.h"

#include "common/strings.h"

namespace rcc {

namespace {

/// If `e` is a column reference belonging to `op` (by alias or — bare — by
/// schema membership), returns the lower-cased column name.
std::optional<std::string> ColumnOf(const Expr* e, InputOperandId op,
                                    const AliasMap& aliases,
                                    const Schema& schema) {
  if (e == nullptr || e->kind != ExprKind::kColumnRef) return std::nullopt;
  if (!e->table.empty()) {
    auto it = aliases.find(ToLower(e->table));
    if (it == aliases.end() || it->second != op) return std::nullopt;
    return ToLower(e->column);
  }
  if (schema.FindColumn(e->column)) return ToLower(e->column);
  return std::nullopt;
}

void ApplyBound(RangeBound* b, BinaryOp op, const Value& lit,
                size_t offset = Expr::kNoOffset) {
  auto tighten_lo = [&](const Value& v, bool strict) {
    if (!b->lo || v.Compare(*b->lo) > 0 ||
        (v.Compare(*b->lo) == 0 && strict)) {
      b->lo = v;
      b->lo_strict = strict;
      b->lo_offset = offset;
    }
  };
  auto tighten_hi = [&](const Value& v, bool strict) {
    if (!b->hi || v.Compare(*b->hi) < 0 ||
        (v.Compare(*b->hi) == 0 && strict)) {
      b->hi = v;
      b->hi_strict = strict;
      b->hi_offset = offset;
    }
  };
  switch (op) {
    case BinaryOp::kEq:
      tighten_lo(lit, false);
      tighten_hi(lit, false);
      b->has_eq = true;
      break;
    case BinaryOp::kGt:
      tighten_lo(lit, true);
      break;
    case BinaryOp::kGe:
      tighten_lo(lit, false);
      break;
    case BinaryOp::kLt:
      tighten_hi(lit, true);
      break;
    case BinaryOp::kLe:
      tighten_hi(lit, false);
      break;
    default:
      break;
  }
}

BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

}  // namespace

std::map<std::string, RangeBound> ExtractBounds(
    const std::vector<const Expr*>& conjuncts, InputOperandId op,
    const AliasMap& aliases, const Schema& schema,
    const std::vector<Value>* params) {
  // The value a comparison operand pins, when it is a literal or a bound
  // parameter.
  auto value_of = [params](const Expr* e) -> const Value* {
    if (e->kind == ExprKind::kLiteral) return &e->literal;
    if (e->kind == ExprKind::kParam && params != nullptr &&
        e->param_index < params->size()) {
      return &(*params)[e->param_index];
    }
    return nullptr;
  };
  std::map<std::string, RangeBound> out;
  for (const Expr* c : conjuncts) {
    if (c == nullptr || c->kind != ExprKind::kBinary) continue;
    BinaryOp bop = c->op;
    if (bop != BinaryOp::kEq && bop != BinaryOp::kLt && bop != BinaryOp::kLe &&
        bop != BinaryOp::kGt && bop != BinaryOp::kGe) {
      continue;
    }
    const Expr* l = c->left.get();
    const Expr* r = c->right.get();
    // col <cmp> value
    const Value* v = value_of(r);
    if (auto col = ColumnOf(l, op, aliases, schema);
        col && v != nullptr && !v->is_null()) {
      ApplyBound(&out[*col], bop, *v, r->literal_offset);
      continue;
    }
    // value <cmp> col  (mirror the comparison)
    v = value_of(l);
    if (auto col = ColumnOf(r, op, aliases, schema);
        col && v != nullptr && !v->is_null()) {
      ApplyBound(&out[*col], Mirror(bop), *v, l->literal_offset);
    }
  }
  return out;
}

double BoundsSelectivity(const std::map<std::string, RangeBound>& bounds,
                         const TableStats& stats) {
  double sel = 1.0;
  for (const auto& [col, b] : bounds) {
    if (b.has_eq) {
      sel *= stats.EqSelectivity(col);
    } else {
      const Value* lo = b.lo ? &*b.lo : nullptr;
      const Value* hi = b.hi ? &*b.hi : nullptr;
      sel *= stats.RangeSelectivity(col, lo, hi);
    }
  }
  return sel;
}

bool RangeSubsumed(const ColumnRange& range,
                   const std::map<std::string, RangeBound>& bounds) {
  auto it = bounds.find(ToLower(range.column));
  if (it == bounds.end()) return false;  // query may select outside the view
  const RangeBound& b = it->second;
  if (range.lo) {
    if (!b.lo) return false;
    int c = b.lo->Compare(*range.lo);
    if (c < 0) return false;  // query admits values below the view range
  }
  if (range.hi) {
    if (!b.hi) return false;
    int c = b.hi->Compare(*range.hi);
    if (c > 0) return false;
  }
  return true;
}

std::vector<const ViewDef*> MatchViews(
    const Catalog& catalog, const std::string& table_name,
    const std::set<std::string>& needed_columns,
    const std::map<std::string, RangeBound>& bounds) {
  std::vector<const ViewDef*> out;
  for (const ViewDef* view : catalog.ViewsOnTable(table_name)) {
    bool covers = true;
    for (const std::string& col : needed_columns) {
      bool found = false;
      for (const std::string& vc : view->columns) {
        if (EqualsIgnoreCase(vc, col)) {
          found = true;
          break;
        }
      }
      if (!found) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    bool subsumed = true;
    for (const ColumnRange& range : view->predicate) {
      if (!RangeSubsumed(range, bounds)) {
        subsumed = false;
        break;
      }
    }
    if (!subsumed) continue;
    out.push_back(view);
  }
  return out;
}

}  // namespace rcc
