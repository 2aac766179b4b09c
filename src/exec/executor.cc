#include "exec/executor.h"

#include <chrono>
#include <map>

#include "exec/event_stream.h"
#include "exec/iterators.h"

namespace rcc {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  auto d = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Each subquery's iterator tree, keyed by its AST node.
using SubplanTrees = std::map<const SelectStmt*, std::unique_ptr<RowIterator>>;

/// Answers one EXISTS (`probe` null: 1 or 0) or IN (1, 0, or NULL per SQL)
/// by re-opening the subquery's tree with the outer row's scope.
Result<Value> EvaluateSubquery(const SubplanTrees& trees,
                               const SelectStmt& subquery,
                               const EvalScope& scope, const Value* probe) {
  auto it = trees.find(&subquery);
  if (it == trees.end()) return Status::Internal("subquery plan missing");
  RowIterator* iter = it->second.get();
  RCC_RETURN_NOT_OK(iter->Open(&scope));
  Row row;
  bool found = false;
  bool saw_null = false;
  while (!found) {
    RCC_ASSIGN_OR_RETURN(bool more, iter->Next(&row));
    if (!more) break;
    if (probe == nullptr) {
      found = true;  // EXISTS: any row
    } else if (!row.empty()) {
      saw_null = saw_null || row[0].is_null();
      found = !row[0].is_null() && probe->Compare(row[0]) == 0;
    }
  }
  RCC_RETURN_NOT_OK(iter->Close());
  if (found) return Value::Int(1);
  return saw_null ? Value::Null() : Value::Int(0);
}

}  // namespace

Result<ExecutedQuery> ExecutePlan(const QueryPlan& plan, ExecContext* ctx) {
  // Setup phase: instantiate the executable trees and bind resources. Each
  // EXISTS/IN subplan is built once, here, and re-opened per evaluation with
  // the outer row's scope, as a nested-loop join re-opens its inner side: a
  // SwitchUnion in it takes one guard verdict and records one serve per
  // execution (paper §3.2.3), and a remote branch re-fetches per outer row.
  auto t0 = std::chrono::steady_clock::now();
  SubplanTrees subplans;
  for (const auto& [stmt, sub] : plan.subplans) {
    RCC_ASSIGN_OR_RETURN(subplans[stmt], BuildIterator(*sub.root, ctx));
  }
  const SubqueryEvaluator subqueries = [&subplans](const auto&... args) {
    return EvaluateSubquery(subplans, args...);
  };
  ctx->subqueries = &subqueries;
  // The evaluator lives on this frame; the context must not keep it.
  struct Uninstall {
    ExecContext* ctx;
    ~Uninstall() { ctx->subqueries = nullptr; }
  } uninstall{ctx};
  RCC_ASSIGN_OR_RETURN(auto iter, BuildIterator(*plan.root, ctx));
  RCC_RETURN_NOT_OK(iter->Open(nullptr));
  double setup_ms = MsSince(t0);

  // Run phase: drain the tree row by row. Before the first row and every
  // 256 rows the drain checks the statement's real-time deadline: a
  // statement whose deadline has passed stops here, frees its worker, and
  // lets the context (and with it the snapshot pin) unwind — it never runs
  // to completion just because it already started.
  constexpr size_t kRowsPerDeadlineCheck = 256;
  auto t1 = std::chrono::steady_clock::now();
  ExecutedQuery out;
  out.layout = iter->layout();
  Row row;
  while (true) {
    if (out.rows.size() % kRowsPerDeadlineCheck == 0 &&
        ctx->deadline.expired()) {
      ctx->events->Record(DeadlineRecord{});
      ctx->events->Record(RunRecord{.run_ms = MsSince(t1)});
      (void)iter->Close();
      return Status::DeadlineExceeded(
          "statement deadline expired during the executor's row drain");
    }
    RCC_ASSIGN_OR_RETURN(bool more, iter->Next(&row));
    if (!more) break;
    out.rows.push_back(std::move(row));
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
