#include "exec/executor.h"

#include <chrono>

#include "exec/event_stream.h"
#include "exec/iterators.h"

namespace rcc {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  auto d = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

Result<ExecutedQuery> ExecutePlan(const QueryPlan& plan, ExecContext* ctx) {
  ctx->subplans = &plan.subplans;

  // Setup phase: instantiate the executable tree and bind resources.
  auto t0 = std::chrono::steady_clock::now();
  RCC_ASSIGN_OR_RETURN(auto iter, BuildIterator(*plan.root, ctx,
                                                &plan.aliases));
  RCC_RETURN_NOT_OK(iter->Open(nullptr));
  double setup_ms = MsSince(t0);

  // Run phase: drain the tree batch-at-a-time (vectorized operators produce
  // natively; row-at-a-time operators go through the NextBatch shim). Every
  // batch boundary is a cancellation point: a statement whose real-time
  // deadline has passed stops here, frees its worker, and lets the context
  // (and with it the snapshot pin) unwind — it never runs to completion
  // just because it already started.
  constexpr size_t kDrainBatchRows = 256;
  auto t1 = std::chrono::steady_clock::now();
  ExecutedQuery out;
  out.layout = iter->layout();
  RowBatch batch;
  while (true) {
    if (ctx->deadline.expired()) {
      ctx->events->Record(DeadlineRecord{});
      ctx->events->Record(RunRecord{.run_ms = MsSince(t1)});
      (void)iter->Close();
      return Status::DeadlineExceeded(
          "statement deadline expired at executor batch boundary");
    }
    RCC_ASSIGN_OR_RETURN(bool more, iter->NextBatch(&batch, kDrainBatchRows));
    if (!more) break;
    for (Row& row : batch.rows) out.rows.push_back(std::move(row));
  }
  double run_ms = MsSince(t1);

  // Shutdown phase.
  auto t2 = std::chrono::steady_clock::now();
  RCC_RETURN_NOT_OK(iter->Close());
  iter.reset();
  double shutdown_ms = MsSince(t2);

  ctx->events->Record(RunRecord{static_cast<int64_t>(out.rows.size()),
                                setup_ms, run_ms, shutdown_ms});
  return out;
}

}  // namespace rcc
