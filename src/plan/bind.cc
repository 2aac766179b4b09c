#include "plan/bind.h"

#include "common/strings.h"

namespace rcc {

namespace {

/// The slot of `scope`'s layout that `ref` names there, if any.
Result<std::optional<size_t>> SlotIn(const Expr& ref, const BindScope& scope) {
  if (ref.table.empty()) return scope.layout->FindUnqualified(ref.column);
  auto it = scope.aliases->find(ToLower(ref.table));
  if (it == scope.aliases->end()) return std::optional<size_t>();
  // The alias may be in scope without the column in this layout: keep
  // walking outward (shadowing is not supported).
  return scope.layout->Find(it->second, ref.column);
}

/// Walks a plan tree with the scope chain each operator's iterator builds.
class Binder {
 public:
  explicit Binder(std::map<const SelectStmt*, SubPlan>* subplans)
      : subplans_(subplans) {}

  Status Op(PhysicalOp* op, const AliasMap* aliases, const BindScope* outer) {
    // A derived-table subtree resolves names in its own block's scope.
    if (op->own_aliases != nullptr) aliases = op->own_aliases.get();
    const BindScope own{&op->layout, aliases, outer};
    auto child = [&](size_t i, const BindScope* in) {
      return Op(op->children[i].get(), aliases, in);
    };
    auto over_child = [&](size_t i) {
      return BindScope{&op->children[i]->layout, aliases, outer};
    };
    switch (op->kind) {
      case PhysOpKind::kLocalScan:
        // Seek bounds are evaluated in the scope the scan is opened in.
        RCC_RETURN_NOT_OK(All(&op->seek_lo, outer));
        RCC_RETURN_NOT_OK(All(&op->seek_hi, outer));
        return Bind(op->residual.get(), &own);
      case PhysOpKind::kRemoteQuery:
        return All(&op->remote_args, outer);
      case PhysOpKind::kFilter:
        RCC_RETURN_NOT_OK(Bind(op->residual.get(), &own));
        return child(0, outer);
      case PhysOpKind::kProject: {
        const BindScope in = over_child(0);
        RCC_RETURN_NOT_OK(All(&op->exprs, &in));
        return child(0, outer);
      }
      case PhysOpKind::kNestedLoopJoin: {
        // The inner side is re-opened per left row, in that row's scope.
        const BindScope left = over_child(0);
        RCC_RETURN_NOT_OK(Bind(op->residual.get(), &own));
        RCC_RETURN_NOT_OK(child(0, outer));
        return child(1, &left);
      }
      case PhysOpKind::kHashJoin: {
        const BindScope probe = over_child(0);
        const BindScope build = over_child(1);
        RCC_RETURN_NOT_OK(All(&op->exprs, &probe));
        RCC_RETURN_NOT_OK(All(&op->exprs2, &build));
        RCC_RETURN_NOT_OK(Bind(op->residual.get(), &own));
        RCC_RETURN_NOT_OK(child(0, outer));
        return child(1, outer);
      }
      case PhysOpKind::kSort:
        for (SortKey& k : op->sort_keys) {
          RCC_RETURN_NOT_OK(Bind(k.expr.get(), &own));
        }
        return child(0, outer);
      case PhysOpKind::kHashAggregate: {
        const BindScope in = over_child(0);
        RCC_RETURN_NOT_OK(All(&op->exprs, &in));
        for (AggItem& a : op->aggs) RCC_RETURN_NOT_OK(Bind(a.arg.get(), &in));
        return child(0, outer);
      }
      case PhysOpKind::kSwitchUnion:
        RCC_RETURN_NOT_OK(child(0, outer));
        return child(1, outer);
    }
    return Status::Internal("unknown physical operator");
  }

 private:
  /// Binds `expr` in `scope`, then the plan of each EXISTS/IN in it: the
  /// executor opens that plan in the scope the node is evaluated in.
  Status Bind(Expr* expr, const BindScope* scope) {
    RCC_RETURN_NOT_OK(BindExpr(expr, scope));
    if (subplans_ == nullptr) return Status::OK();
    Status st;
    VisitNodes(expr, [&](Expr* n) {
      if (!st.ok() || n->subquery == nullptr) return;
      auto it = subplans_->find(n->subquery.get());
      if (it == subplans_->end()) return;  // unplanned: fails when evaluated
      st = Op(it->second.root.get(), &it->second.aliases, scope);
    });
    return st;
  }

  Status All(std::vector<std::unique_ptr<Expr>>* exprs,
             const BindScope* scope) {
    for (auto& e : *exprs) RCC_RETURN_NOT_OK(Bind(e.get(), scope));
    return Status::OK();
  }

  std::map<const SelectStmt*, SubPlan>* subplans_;
};

}  // namespace

Status BindExpr(Expr* expr, const BindScope* scope) {
  Status st;
  VisitNodes(expr, [&](Expr* n) {
    if (!st.ok() || n->kind != ExprKind::kColumnRef) return;
    uint32_t depth = 0;
    for (const BindScope* s = scope; s != nullptr; s = s->outer, ++depth) {
      Result<std::optional<size_t>> slot = SlotIn(*n, *s);
      if (!slot.ok()) {
        st = slot.status();
        return;
      }
      if (slot->has_value()) {
        n->scope_depth = depth;
        n->slot = static_cast<uint32_t>(**slot);
        return;
      }
    }
    st = Status::NotFound("unresolved column reference '" + n->ToString() +
                          "'");
  });
  return st;
}

Status BindTree(PhysicalOp* root, const AliasMap& aliases,
                const BindScope* outer,
                std::map<const SelectStmt*, SubPlan>* subplans) {
  return Binder(subplans).Op(root, &aliases, outer);
}

Status BindPlan(QueryPlan* plan) {
  return BindTree(plan->root.get(), plan->aliases, nullptr, &plan->subplans);
}

}  // namespace rcc
