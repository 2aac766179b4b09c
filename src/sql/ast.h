#ifndef RCC_SQL_AST_H_
#define RCC_SQL_AST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"

namespace rcc {

struct SelectStmt;

/// Expression node kinds.
enum class ExprKind {
  kLiteral,
  kColumnRef,
  kBinary,
  kNot,
  kFuncCall,   // aggregate or scalar function
  kExists,      // EXISTS (subquery)
  kInSubquery,  // expr IN (subquery)
  kParam        // plan-cache parameter slot (bound at execution time)
};

/// Binary operators (comparison, boolean, arithmetic).
enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
};

/// Returns the SQL spelling of an operator ("=", "AND", ...).
std::string_view BinaryOpName(BinaryOp op);

/// AST expression. A tagged struct rather than a class hierarchy: the tree is
/// small, walked in few places, and this keeps ownership simple.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  /// Sentinel for "this literal has no recorded source position".
  static constexpr size_t kNoOffset = static_cast<size_t>(-1);

  // kLiteral
  Value literal;
  /// Byte offset of the literal's token in the original query text, recorded
  /// only when parsing with ParseOptions::record_literal_offsets (the plan
  /// cache uses it to match literals to parameter slots). kNoOffset otherwise.
  size_t literal_offset = kNoOffset;

  // kParam: index into the execution-time parameter vector.
  size_t param_index = 0;

  // kColumnRef: optional qualifier ("B" in B.isbn).
  std::string table;
  std::string column;
  /// kColumnRef, once its plan is bound (BindPlan): the value is slot
  /// `slot` of the row `scope_depth` hops out along the EvalScope chain.
  /// kUnboundSlot until then; evaluating an unbound reference fails.
  static constexpr uint32_t kUnboundSlot = 0xFFFFFFFFu;
  uint32_t scope_depth = 0;
  uint32_t slot = kUnboundSlot;

  // kBinary / kNot
  BinaryOp op = BinaryOp::kEq;
  std::unique_ptr<Expr> left;
  std::unique_ptr<Expr> right;  // also the operand of kNot

  // kFuncCall
  std::string func;                         // upper-cased name
  std::vector<std::unique_ptr<Expr>> args;  // empty + star for COUNT(*)
  bool star = false;

  // kExists / kInSubquery (left = probe expr for IN)
  std::unique_ptr<SelectStmt> subquery;

  /// Renders the expression back to SQL-ish text.
  std::string ToString() const;

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;

  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeColumn(std::string table,
                                          std::string column);
  static std::unique_ptr<Expr> MakeBinary(BinaryOp op,
                                          std::unique_ptr<Expr> l,
                                          std::unique_ptr<Expr> r);
};

/// SELECT-list item: expression with optional alias.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;
};

/// Sentinel for "not yet resolved to an input operand".
inline constexpr uint32_t kInvalidOperand = 0xFFFFFFFFu;

/// FROM-list item: base table/view reference (with alias) or derived table.
struct TableRef {
  std::string table;  // empty for derived tables
  std::string alias;  // always non-empty after parsing (defaults to table)
  std::unique_ptr<SelectStmt> subquery;  // derived table

  /// Filled by the resolver: the unique input-operand id of this base-table
  /// instance (kInvalidOperand for derived tables).
  uint32_t resolved_operand = kInvalidOperand;

  bool is_subquery() const { return subquery != nullptr; }
};

/// One triple of the paper's currency clause:
///   [BOUND] <n> <unit> ON (T1, T2, ...) [BY col, ...]
/// The targets name table instances (aliases) of the current or an outer
/// block; the BY columns partition each consistency class into consistency
/// groups (paper §2.1).
struct CurrencySpec {
  /// Currency bound in milliseconds.
  int64_t bound_ms = 0;
  /// Table aliases forming one consistency class.
  std::vector<std::string> targets;
  /// Optional grouping columns ("BY R.isbn").
  std::vector<std::string> by_columns;

  std::string ToString() const;
};

/// ORDER BY item.
struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool descending = false;
};

/// A single SFW block, possibly with nested blocks in FROM/WHERE, and with
/// the paper's currency clause in last position.
struct SelectStmt {
  bool select_star = false;
  /// SELECT DISTINCT: duplicate output rows are removed.
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> group_by;
  /// HAVING predicate over the grouped result (may reference aggregates).
  std::unique_ptr<Expr> having;
  std::vector<OrderItem> order_by;
  /// The currency clause: zero or more specs. Empty means "use the default
  /// (tightest) constraint".
  std::vector<CurrencySpec> currency;

  std::string ToString() const;
};

/// Deep copy of a SELECT statement (used when a plan needs an independent
/// remote-branch query).
std::unique_ptr<SelectStmt> CloneSelectStmt(const SelectStmt& s);

/// Calls `fn` on `e` (an Expr* or const Expr*) and every node below it,
/// parents first, without entering subqueries. `fn` may rewrite a node in
/// place.
template <typename E, typename Fn>
void VisitNodes(E* e, const Fn& fn) {
  if (e == nullptr) return;
  fn(e);
  VisitNodes<E>(e->left.get(), fn);
  VisitNodes<E>(e->right.get(), fn);
  for (auto& a : e->args) VisitNodes<E>(a.get(), fn);
}

/// True when `pred` holds for `e` or a node below it (subqueries are not
/// entered).
template <typename Pred>
bool AnyNode(const Expr* e, const Pred& pred) {
  bool found = false;
  VisitNodes(e, [&](const Expr* n) { found = found || pred(*n); });
  return found;
}

/// VisitNodes over every expression of every block of `s`: select list,
/// derived tables, WHERE, GROUP BY, HAVING, ORDER BY and the EXISTS/IN
/// subqueries inside them.
void VisitStmtNodes(SelectStmt* s, const std::function<void(Expr*)>& fn);

/// A SELECT the back end plans once and re-runs with fresh values: every
/// value site of the source statement is a kParam slot, so `key`, the
/// template's rendering, never carries a value.
struct QueryTemplate {
  std::unique_ptr<const SelectStmt> stmt;
  std::string key;
};

/// Turns `stmt` into its template. Every literal and every plan-cache
/// parameter becomes a slot, numbered in statement order; with `outer_refs`,
/// so does every correlated outer reference (a column qualified by an alias
/// that no block of `stmt` defines), numbered after them. `args` receives,
/// per slot, the node it replaced: evaluating it yields the slot's value.
QueryTemplate MakeTemplate(std::unique_ptr<SelectStmt> stmt, bool outer_refs,
                           std::vector<std::unique_ptr<Expr>>* args);

/// INSERT INTO t [(cols)] VALUES (exprs), ... — expressions must be
/// constant (literals/arithmetic); unlisted columns become NULL.
struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = schema order
  std::vector<std::vector<std::unique_ptr<Expr>>> rows;
};

/// UPDATE t SET col = expr [, ...] [WHERE pred] — assignments may reference
/// the current row's columns.
struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> assignments;
  std::unique_ptr<Expr> where;
};

/// DELETE FROM t [WHERE pred].
struct DeleteStmt {
  std::string table;
  std::unique_ptr<Expr> where;
};

/// Statement kinds accepted by Session::Execute.
enum class StatementKind {
  kSelect,
  kInsert,            // forwarded to the back-end (paper §3 item 5)
  kUpdate,
  kDelete,
  kBeginTimeOrdered,  // BEGIN TIMEORDERED (paper §2.3)
  kEndTimeOrdered,    // END TIMEORDERED
  kExplain,           // EXPLAIN [ANALYZE] <select>
};

/// A parsed statement.
struct Statement {
  StatementKind kind = StatementKind::kSelect;
  std::unique_ptr<SelectStmt> select;  // for kSelect and kExplain
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  /// kExplain: EXPLAIN ANALYZE executes the query and reports the trace and
  /// stats; plain EXPLAIN renders the plan without executing.
  bool explain_analyze = false;
};

}  // namespace rcc

#endif  // RCC_SQL_AST_H_
