#ifndef RCC_PLAN_EXPR_H_
#define RCC_PLAN_EXPR_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "semantics/constraint.h"
#include "sql/ast.h"
#include "storage/schema.h"

namespace rcc {

/// Identifies one output slot of an operator: which input operand the value
/// came from and the column's name in that operand's base table. Computed
/// (projection) columns use operand kInvalidOperand and their output alias.
struct BoundColumn {
  InputOperandId operand = kInvalidOperand;
  std::string column;
};

/// The row shape produced by a physical operator: a schema plus the operand
/// provenance of every slot, so expressions can be resolved by
/// (alias → operand, column) lookup at any level of the plan.
class RowLayout {
 public:
  RowLayout() = default;

  void Add(InputOperandId operand, std::string column, ValueType type);

  size_t num_slots() const { return slots_.size(); }
  const std::vector<BoundColumn>& slots() const { return slots_; }
  const Schema& schema() const { return schema_; }

  /// Slot holding (operand, column); nullopt if absent.
  std::optional<size_t> Find(InputOperandId operand,
                             std::string_view column) const;
  /// Slot by bare column name; error if ambiguous, nullopt if absent.
  Result<std::optional<size_t>> FindUnqualified(std::string_view column) const;

  /// Concatenation (join output = left slots then right slots).
  static RowLayout Concat(const RowLayout& left, const RowLayout& right);

  std::string ToString() const;

 private:
  std::vector<BoundColumn> slots_;
  Schema schema_;
};

/// Name-resolution scope for one block: alias → operand id. Derived-table
/// aliases are not included (their columns surface through inner operands).
using AliasMap = std::map<std::string, InputOperandId>;  // lower-cased alias

/// Evaluation context: the current row in its layout, the block's alias map,
/// and the enclosing scope for correlated column references.
struct EvalScope {
  const RowLayout* layout = nullptr;
  const Row* row = nullptr;
  const AliasMap* aliases = nullptr;
  const EvalScope* outer = nullptr;
  /// Execution-time values for kParam nodes (plan-cache reuse); resolved by
  /// walking the scope chain outward, like column references.
  const std::vector<Value>* params = nullptr;
};

/// Callback used to evaluate nested EXISTS / IN subqueries; installed once
/// per execution by the executor, which re-opens the subquery's prebuilt
/// plan (QueryPlan::subplans) in `scope`. `probe` is the left-hand value for
/// IN, nullptr for EXISTS.
using SubqueryEvaluator =
    std::function<Result<Value>(const SelectStmt& subquery,
                                const EvalScope& scope, const Value* probe)>;

/// Evaluates an AST expression against a row. Comparison/boolean operators
/// follow SQL three-valued logic collapsed to NULL-is-unknown; EvalPredicate
/// treats unknown as false.
Result<Value> EvalExpr(const Expr& expr, const EvalScope& scope,
                       const SubqueryEvaluator* subquery_eval);

/// Predicate form: NULL/unknown evaluates to false.
Result<bool> EvalPredicate(const Expr& expr, const EvalScope& scope,
                           const SubqueryEvaluator* subquery_eval);

/// Splits a predicate into its conjuncts (flattening nested ANDs).
std::vector<const Expr*> SplitConjuncts(const Expr* expr);

/// Collects the column names of `operand` referenced anywhere in `expr`,
/// resolving qualifiers through `aliases` (bare names resolve to `operand`
/// only when unambiguous within `layout_hint` — pass nullptr to collect all
/// bare names too).
void CollectColumnsOf(const Expr* expr, InputOperandId operand,
                      const AliasMap& aliases,
                      std::set<std::string>* columns);

/// True when every column reference in `expr` resolves within `operands`
/// (via `aliases`); used to decide which conjuncts can be pushed into a
/// single-table access or a remote unit query. Bare column references are
/// accepted only if `allow_bare` is set.
bool ExprCoveredByOperands(const Expr* expr,
                           const std::set<InputOperandId>& operands,
                           const AliasMap& aliases, bool allow_bare);

}  // namespace rcc

#endif  // RCC_PLAN_EXPR_H_
