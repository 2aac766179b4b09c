#include "core/system.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "core/session.h"
#include "core/statement_router.h"
#include "obs/explain.h"

namespace rcc {

RccSystem::RccSystem(SystemConfig config)
    : config_(config),
      scheduler_(&clock_),
      backend_(&clock_, config_.costs),
      cache_(&backend_, &scheduler_, config_.costs) {
  cache_.SetMetricsRegistry(&metrics_);
}

std::unique_ptr<Session> RccSystem::CreateSession() {
  return std::make_unique<Session>(this);
}

void RccSystem::SetHistorySink(HistorySink* sink) {
  cache_.SetHistorySink(sink);
  if (sink == nullptr) {
    backend_.set_commit_observer(nullptr);
    return;
  }
  backend_.set_commit_observer([this, sink](const CommittedTxn& txn) {
    sink->OnCommit(txn, clock_.Now());
  });
}

ThreadPool* RccSystem::EnsurePool(int workers) {
  if (pool_ == nullptr || pool_workers_ != workers) {
    pool_.reset();  // join the old pool before spawning the new one
    pool_ = std::make_unique<ThreadPool>(workers);
    pool_workers_ = workers;
  }
  return pool_.get();
}

namespace {

/// Raises `*cell` to at least `seen`. Raising is commutative and monotone,
/// so concurrent calls from any interleaving converge to the same maximum —
/// a plain store would let a slow query with an older snapshot regress the
/// floor behind a faster one, breaking §2.3's "never read older than
/// already seen".
void RaiseFloor(std::atomic<SimTimeMs>* cell, SimTimeMs seen) {
  SimTimeMs cur = cell->load(std::memory_order_relaxed);
  while (seen > cur &&
         !cell->compare_exchange_weak(cur, seen, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
  }
}

/// The floor a statement starts from, read when it is about to execute.
SimTimeMs FloorOf(const SelectRequest& req) {
  if (req.floor_cell == nullptr) return req.floor;
  return std::max(req.floor, req.floor_cell->load(std::memory_order_acquire));
}

}  // namespace

Result<QueryResult> RccSystem::ExecuteSelect(const SelectRequest& req) {
  const bool timeordered = req.floor_cell != nullptr || req.floor >= 0;
  std::shared_ptr<obs::QueryTrace> trace;
  if (req.trace || req.analyze) trace = std::make_shared<obs::QueryTrace>();
  EventStream events(trace.get());
  // Raises the session floor to what the statement saw and attaches the
  // trace.
  auto answer = [&](CacheQueryOutcome outcome) {
    if (req.floor_cell != nullptr) {
      RaiseFloor(req.floor_cell, outcome.stats.max_seen_heartbeat);
    }
    QueryResult result = MakeQueryResult(std::move(outcome));
    result.trace = trace;
    return result;
  };
  // Fleet routing: plain SELECTs dispatch through the router, which takes
  // each node's plan from that node's own plan cache (the anchor's entry
  // would be wrong for a peer's view set). EXPLAIN stays local: it
  // describes the anchor's plan, not a dispatch decision.
  if (req.router != nullptr && !req.explain) {
    RCC_ASSIGN_OR_RETURN(
        CacheQueryOutcome outcome,
        req.router->RouteSql(req.body, {.timeline_floor = FloorOf(req),
                                        .degrade = req.degrade,
                                        .timeordered = timeordered,
                                        .session_tag = req.session_tag,
                                        .deadline = req.deadline,
                                        .shed_hint = req.shed_hint,
                                        .events = &events}));
    return answer(std::move(outcome));
  }
  RCC_ASSIGN_OR_RETURN(CachedPlan cached,
                       cache_.LookupOrPlan(req.body, req.degrade, timeordered));
  const PlanCacheEntry& entry = *cached.entry;
  const QueryPlan& plan = *entry.plan;
  if (req.explain && !req.analyze) {
    QueryResult out;
    out.shape = plan.Shape();
    out.constraint = plan.resolved.constraint;
    out.message = obs::RenderExplain(plan, cached.hit);
    out.executed_at = Now();
    return out;
  }
  CacheDbms::PreparedExecOptions eo;
  eo.timeline_floor = FloorOf(req);
  // The query *behaves* under the mode the plan was created for and is
  // *audited* under the session's current mode. On every legitimate hit the
  // two agree — the cache key separates degrade modes — so the split is
  // invisible; under the RCC_PLANCACHE_MUTATE build (key drops the mode)
  // they diverge and the conformance oracle sees a degraded serve recorded
  // under a mode that never authorized one.
  eo.degrade = entry.created_degrade;
  eo.audit_degrade = req.degrade;
  eo.events = &events;
  eo.session_tag = req.session_tag;
  eo.params = &cached.params;
  eo.deadline = req.deadline;
  eo.shed_hint = req.shed_hint;
  RCC_ASSIGN_OR_RETURN(CacheQueryOutcome outcome,
                       cache_.ExecutePrepared(plan, eo));
  QueryResult result = answer(std::move(outcome));
  if (req.analyze) {
    result.message =
        obs::RenderExplainAnalyze(plan, result.stats, *trace, cached.hit);
  }
  return result;
}

std::vector<Result<QueryResult>> RccSystem::ExecuteConcurrent(
    const std::vector<std::string>& sqls, const ConcurrentBatchOptions& opts) {
  const int workers =
      opts.workers > 0 ? opts.workers : ThreadPool::DefaultWorkers();
  // Indexed slots instead of a shared push-back vector: each worker writes
  // only its own element, so result order is input order by construction.
  std::vector<std::optional<Result<QueryResult>>> slots(sqls.size());

  // Every item runs the SELECT pipeline from its full text; a non-SELECT
  // misses the plan cache and fails in the parser.
  auto run_one = [this, &sqls, &opts](size_t i) {
    SelectRequest req;
    req.body = sqls[i];
    req.degrade = opts.degrade;
    req.floor = opts.timeline_floor;
    req.floor_cell = opts.floor_cell;
    req.session_tag = opts.session_tag;
    req.router = opts.router;
    return ExecuteSelect(req);
  };

  cache_.BeginConcurrentBatch();
  if (opts.router != nullptr) opts.router->BeginConcurrentBatch();
  if (workers <= 1) {
    // Inline execution under the same batch contract — the equivalence
    // baseline for the pooled runs (and what tests compare against).
    for (size_t i = 0; i < sqls.size(); ++i) slots[i] = run_one(i);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(sqls.size());
    for (size_t i = 0; i < sqls.size(); ++i) {
      tasks.push_back([&run_one, &slots, i] { slots[i] = run_one(i); });
    }
    EnsurePool(workers)->Run(std::move(tasks));
  }
  if (opts.router != nullptr) opts.router->EndConcurrentBatch();
  cache_.EndConcurrentBatch();

  std::vector<Result<QueryResult>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace rcc
