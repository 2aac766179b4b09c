#ifndef RCC_PLAN_BIND_H_
#define RCC_PLAN_BIND_H_

#include "plan/physical.h"

namespace rcc {

/// One level of the scope chain the executor evaluates an expression in,
/// known at plan time: the layout of the row the EvalScope at that depth
/// holds and the alias map its operator resolves names through.
struct BindScope {
  const RowLayout* layout = nullptr;
  const AliasMap* aliases = nullptr;
  const BindScope* outer = nullptr;
};

/// Stamps every column reference of `expr` (subqueries are not entered)
/// with the (scope_depth, slot) of the first scope of `scope`'s chain that
/// resolves it: a qualified name where the scope's alias map has its alias
/// and the scope's layout the (operand, column); a bare name where exactly
/// one slot has the column (two are an ambiguity error). `scope` may be
/// null (no row in scope). NotFound when no scope resolves a name.
Status BindExpr(Expr* expr, const BindScope* scope);

/// Binds every expression the executor evaluates in the plan tree rooted at
/// `root`, replaying the executor's scope chain: `aliases` is the root
/// block's alias map, `outer` the chain the root is opened in (null at the
/// top of a plan). An EXISTS/IN node whose subquery has a plan in
/// `subplans` binds that plan in the chain the node is evaluated in.
Status BindTree(PhysicalOp* root, const AliasMap& aliases,
                const BindScope* outer,
                std::map<const SelectStmt*, SubPlan>* subplans = nullptr);

/// Binds a whole plan: the root tree, and through it each subplan. Called
/// once per plan, when it is built; executions then read rows by slot.
Status BindPlan(QueryPlan* plan);

}  // namespace rcc

#endif  // RCC_PLAN_BIND_H_
