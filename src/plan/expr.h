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
/// provenance of every slot. The bind pass (plan/bind.h) resolves each
/// column reference against these once per plan, by (alias → operand,
/// column) lookup; rows are then read by slot.
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
/// aliases map to the derived table's pseudo operand, which tags its output
/// slots. Used at plan time only.
using AliasMap = std::map<std::string, InputOperandId>;  // lower-cased alias

/// Evaluation context: the current row and the enclosing scope for
/// correlated column references. A bound column reference reads slot
/// `slot` of the row `scope_depth` hops out along `outer`; the bind pass
/// replays the chain the executor builds, so no name is looked up here.
struct EvalScope {
  const Row* row = nullptr;
  const EvalScope* outer = nullptr;
  /// Execution-time values for kParam nodes (plan-cache reuse); the first
  /// non-null vector walking outward is used.
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

/// Collects the (lower-cased) column names of `operand` referenced anywhere
/// in `expr`, correlated references inside its subqueries included,
/// resolving qualifiers through `aliases`. Bare names are collected for
/// every operand; the caller keeps those its schema has.
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
