#ifndef RCC_EXEC_REMOTE_H_
#define RCC_EXEC_REMOTE_H_

#include "exec/exec_context.h"

namespace rcc {

/// Executes the op's statement template at the back-end server and streams
/// the result. The fetch happens at Open, which only gathers the slot values;
/// re-opening (per outer row) re-executes, so a correlated remote branch
/// pays one remote round trip per probe — which the cost model charges for.
class RemoteQueryIterator : public RowIterator {
 public:
  RemoteQueryIterator(const PhysicalOp& op, ExecContext* ctx)
      : op_(op), ctx_(ctx) {}

  Status Open(const EvalScope* outer) override;
  Result<bool> Next(Row* out) override;
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
