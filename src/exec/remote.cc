#include "exec/remote.h"

#include "exec/event_stream.h"
#include "exec/read_handle.h"

namespace rcc {

Status RemoteQueryIterator::Open(const EvalScope* outer) {
  rows_.clear();
  pos_ = 0;
  // Gather the template's slot values: its literals and plan-cache
  // parameters, then the outer row's correlated values, all evaluated in
  // the scope this op is opened in.
  const EvalScope top{nullptr, nullptr, ctx_->params};
  const EvalScope& scope = outer != nullptr ? *outer : top;
  std::vector<Value> params;
  params.reserve(op_.remote_args.size());
  for (const auto& arg : op_.remote_args) {
    RCC_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, scope, nullptr));
    params.push_back(std::move(v));
  }
  Result<ExecutedQuery> result = ctx_->reader->ExecuteRemote(
      BackendCall{op_.remote_template, params}, *ctx_);
  if (!result.ok()) return result.status();
  const SimTimeMs now = ctx_->clock->Now();
  ctx_->events->Record(FetchRecord{now, result->rows.size()});
  if (result->layout.num_slots() != op_.layout.num_slots()) {
    return Status::Internal(
        "remote result shape mismatch: got " +
        std::to_string(result->layout.num_slots()) + " columns, expected " +
        std::to_string(op_.layout.num_slots()));
  }
  rows_ = std::move(result->rows);
  if (!served_) {
    served_ = true;
    ctx_->events->Record(ServeRecord{.serve = {.at = now}, .op = &op_});
  }
  return Status::OK();
}

// Open re-fetches and Close clears, so each fetched row is moved out once.
Result<bool> RemoteQueryIterator::Next(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  return true;
}

Status RemoteQueryIterator::Close() {
  rows_.clear();
  pos_ = 0;
  return Status::OK();
}

}  // namespace rcc
