#ifndef RCC_CORE_SYSTEM_H_
#define RCC_CORE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "backend/backend_server.h"
#include "cache/cache_dbms.h"
#include "common/thread_pool.h"
#include "core/query_result.h"

namespace rcc {

class Session;
class StatementRouter;

/// One SELECT, or EXPLAIN [ANALYZE] SELECT, for RccSystem::ExecuteSelect,
/// with the session state it runs under.
struct SelectRequest {
  /// Statement text from the SELECT keyword on, so parse-time literal
  /// offsets line up with the plan cache's parameter slots.
  std::string_view body;
  bool explain = false;
  bool analyze = false;
  DegradeMode degrade = DegradeMode::kNone;
  /// Timeline floor the statement starts from (< 0: none). With
  /// `floor_cell` set it also reads the cell as its floor and CAS-maxes its
  /// observed snapshot time back into it. Either one makes the statement
  /// time-ordered.
  SimTimeMs floor = -1;
  std::atomic<SimTimeMs>* floor_cell = nullptr;
  /// Attach a structured trace to the result (EXPLAIN ANALYZE always does).
  bool trace = false;
  /// Audit-history session tag (0 = anonymous).
  uint64_t session_tag = 0;
  Deadline deadline;
  bool shed_hint = false;
  /// When set, a plain SELECT dispatches through it; EXPLAIN stays local.
  StatementRouter* router = nullptr;
};

/// Options for RccSystem::ExecuteConcurrent.
struct ConcurrentBatchOptions {
  /// Worker threads for the batch; 0 picks ThreadPool::DefaultWorkers().
  /// 1 executes the batch inline on the calling thread (still under the
  /// concurrent-batch contract, so results match the pooled run exactly).
  int workers = 0;
  /// Degradation policy applied to every query of the batch.
  DegradeMode degrade = DegradeMode::kNone;
  /// Timeline floor each query starts from (< 0 disables timeline mode).
  SimTimeMs timeline_floor = -1;
  /// When set, every query additionally reads the cell as its floor and
  /// CAS-maxes its observed snapshot time back into it. Raising a floor is
  /// commutative, so the final cell value is independent of worker
  /// interleaving — this is how a time-ordered session spans a batch.
  std::atomic<SimTimeMs>* floor_cell = nullptr;
  /// Audit-history session tag stamped on every query of the batch
  /// (0 = anonymous).
  uint64_t session_tag = 0;
  /// When set, every query dispatches through it, and its execution targets
  /// are in concurrent-batch mode for the batch.
  StatementRouter* router = nullptr;
};

/// System-wide configuration.
struct SystemConfig {
  CostParams costs;
  /// Seed for anything random in the system itself (workloads carry their
  /// own seeds).
  uint64_t seed = 42;
};

/// The complete two-tier system of the paper: a back-end server plus an
/// MTCache instance, wired together with a shared virtual clock and a
/// discrete-event scheduler that drives heartbeats and distribution agents.
///
/// Typical setup:
///   RccSystem sys;
///   sys.backend()->CreateTable(...); sys.backend()->BulkLoad(...);
///   sys.cache()->CreateShadow();
///   sys.cache()->DefineRegion({.cid=1, .update_interval=15000, ...});
///   sys.cache()->CreateView(...);
///   auto session = sys.CreateSession();
///   auto result = session->Execute(
///       "SELECT ... CURRENCY BOUND 10 MIN ON (C)");
class RccSystem {
 public:
  explicit RccSystem(SystemConfig config = {});

  RccSystem(const RccSystem&) = delete;
  RccSystem& operator=(const RccSystem&) = delete;

  BackendServer* backend() { return &backend_; }
  CacheDbms* cache() { return &cache_; }
  VirtualClock* clock() { return &clock_; }
  SimulationScheduler* scheduler() { return &scheduler_; }

  /// Advances virtual time to `t`, firing heartbeats, agent wake-ups and
  /// deliveries along the way.
  void AdvanceTo(SimTimeMs t) { scheduler_.RunUntil(t); }
  void AdvanceBy(SimTimeMs delta) { AdvanceTo(clock_.Now() + delta); }
  SimTimeMs Now() const { return clock_.Now(); }

  /// Creates an application session against the cache.
  std::unique_ptr<Session> CreateSession();

  /// The SELECT pipeline every SELECT, EXPLAIN [ANALYZE] and batch item runs
  /// through: plan-cache lookup — or parse, prepare, parameterize and insert
  /// on a miss (CacheDbms::LookupOrPlan) — then bind, execute and build the
  /// answer. With a router the plain SELECT's text is dispatched through it
  /// instead, and each node's plan comes from that node's plan cache.
  Result<QueryResult> ExecuteSelect(const SelectRequest& req);

  /// Executes a batch of read-only statements concurrently on a fixed worker
  /// pool and returns one result per statement, in input order.
  ///
  /// Determinism contract (DESIGN.md §8): the virtual clock is frozen for
  /// the whole batch — the scheduler only runs between batches (AdvanceTo /
  /// AdvanceBy), never inside one. Queries take region data locks shared, so
  /// they observe exactly the view state installed by deliveries that fired
  /// before the batch. Result rows, plan choices and per-query stats are
  /// therefore identical for any worker count, including workers=1.
  ///
  /// Only SELECT statements (with optional currency clauses) are accepted;
  /// DML and session-mode statements must go through a Session serially.
  std::vector<Result<QueryResult>> ExecuteConcurrent(
      const std::vector<std::string>& sqls,
      const ConcurrentBatchOptions& opts = {});

  /// Process metrics of this system instance (per-system rather than global,
  /// so parallel tests and benches never bleed counters into each other).
  /// Serialize with metrics().ToJson(); schema documented in DESIGN.md §9.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  const SystemConfig& config() const { return config_; }

  /// Points the whole system — cache query pipeline, replication installs,
  /// and back-end commits — at an execution-audit sink (the simulation
  /// harness's history recorder). Install before defining regions so their
  /// initial population is recorded. Pass nullptr to stop recording.
  void SetHistorySink(HistorySink* sink);
  HistorySink* history_sink() const { return cache_.history_sink(); }

  /// Allocates a process-unique session id (audit-history tag). Ids start at
  /// 1; 0 means "anonymous caller" throughout the audit stream.
  uint64_t NextSessionId() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// Returns the worker pool, (re)creating it when the requested size
  /// changes. The pool is lazy: serial-only programs never spawn threads.
  ThreadPool* EnsurePool(int workers);

  SystemConfig config_;
  VirtualClock clock_;
  SimulationScheduler scheduler_;
  obs::MetricsRegistry metrics_;
  BackendServer backend_;
  CacheDbms cache_;
  std::unique_ptr<ThreadPool> pool_;
  int pool_workers_ = 0;
  std::atomic<uint64_t> next_session_id_{1};
};

}  // namespace rcc

#endif  // RCC_CORE_SYSTEM_H_
