#ifndef RCC_EXEC_EXECUTOR_H_
#define RCC_EXEC_EXECUTOR_H_

#include "exec/exec_context.h"

namespace rcc {

/// Executes an optimized plan: instantiates the iterator tree (setup phase),
/// drains it (run phase), and tears it down (shutdown phase). Phase timings
/// are recorded into ctx->events — they are what the currency-guard
/// overhead experiments (paper Tables 4.4/4.5) report.
Result<ExecutedQuery> ExecutePlan(const QueryPlan& plan, ExecContext* ctx);

}  // namespace rcc

#endif  // RCC_EXEC_EXECUTOR_H_
