#ifndef RCC_EXEC_REMOTE_H_
#define RCC_EXEC_REMOTE_H_

#include <memory>

#include "exec/exec_context.h"

namespace rcc {

/// Substitutes outer-scope column references in `stmt` with literal values
/// from `outer`, producing a self-contained statement that can be shipped to
/// the back-end (correlated remote queries / parameterized remote branches
/// of index nested-loop joins). References to the statement's own tables are
/// left untouched.
Result<std::unique_ptr<SelectStmt>> ParameterizeStmt(const SelectStmt& stmt,
                                                     const EvalScope& outer);

/// True when any expression position of `stmt` (recursively) contains a
/// kParam node — i.e. the statement came out of a plan-cache parameterized
/// plan and must have values bound before it can ship to the back-end.
bool StmtHasParams(const SelectStmt& stmt);

/// Replaces every kParam node in `stmt` with the literal value
/// `params[param_index]`. The back-end never sees parameter markers.
Status BindStmtParams(SelectStmt* stmt, const std::vector<Value>& params);

/// Executes a statement at the back-end server and streams the result. The
/// fetch happens at Open; re-opening (per outer row) re-executes, so a
/// correlated remote branch pays one remote round trip per probe — which the
/// cost model charges for.
class RemoteQueryIterator : public RowIterator {
 public:
  RemoteQueryIterator(const PhysicalOp& op, ExecContext* ctx)
      : op_(op), ctx_(ctx) {}

  Status Open(const EvalScope* outer) override;
  Result<bool> Next(Row* out) override;
  Result<bool> NextBatch(RowBatch* out, size_t max_rows) override;
  Status Close() override;
  const RowLayout& layout() const override { return op_.layout; }

 private:
  const PhysicalOp& op_;
  ExecContext* ctx_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  /// The serve is recorded once per execution: re-opens with a new outer
  /// row (a join's inner side, an EXISTS/IN subplan) re-fetch but are
  /// attributed to the first fetch (DESIGN.md §9).
  bool served_ = false;
};

}  // namespace rcc

#endif  // RCC_EXEC_REMOTE_H_
