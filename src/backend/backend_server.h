#ifndef RCC_BACKEND_BACKEND_SERVER_H_
#define RCC_BACKEND_BACKEND_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "exec/executor.h"
#include "exec/read_handle.h"
#include "optimizer/optimizer.h"
#include "plan/plan_cache.h"
#include "replication/heartbeat.h"
#include "txn/oracle.h"
#include "txn/update_log.h"

namespace rcc {

/// The back-end database server: owner of the master data, the commit
/// history (update log), and the global heartbeat table. All update
/// transactions run here; the cache forwards queries it cannot (or should
/// not) answer locally. It is its own read handle: plans scan the master
/// tables directly and carry no guards (the back-end has no regions).
class BackendServer : private ReadHandle {
 public:
  BackendServer(VirtualClock* clock, CostParams costs)
      : clock_(clock), costs_(costs) {}

  BackendServer(const BackendServer&) = delete;
  BackendServer& operator=(const BackendServer&) = delete;

  /// -- schema & loading ------------------------------------------------------

  /// Creates a base table with its clustered key and secondary indexes.
  /// This, BulkLoad and RefreshStats are the only catalog writers, and each
  /// invalidates the plan cache.
  Status CreateTable(const TableDef& def);

  /// Loads initial rows (the H0 snapshot; not logged) and computes exact
  /// statistics for the catalog.
  Status BulkLoad(const std::string& table_name, const std::vector<Row>& rows);

  /// Recomputes and stores statistics for a table (after ad-hoc loading).
  Status RefreshStats(const std::string& table_name);

  /// -- transactions -----------------------------------------------------------

  /// Applies an update transaction to the master tables at the current
  /// virtual time, assigns it a commit timestamp, and appends it to the
  /// update log for replication.
  Result<TxnTimestamp> ExecuteTransaction(std::vector<RowOp> ops);

  /// Observes every committed transaction (the formal model's xtime events),
  /// invoked after commit, before the txn is visible to replication pulls.
  /// Single slot; pass nullptr to clear. Must not call back into the server.
  using CommitObserver = std::function<void(const CommittedTxn&)>;
  void set_commit_observer(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }

  /// -- queries -----------------------------------------------------------------

  /// Executes `call.tmpl` with `call.params` bound to its slots. The plan
  /// comes from the plan cache, one entry per template and slot types; a
  /// miss binds the values as literals and plans them (back-end mode: base
  /// tables + indexes only). A scan whose access path was priced at a range
  /// keeps its path only while the chooser, run again at these values, picks
  /// the same one; when it picks another the call re-plans and replaces the
  /// entry. Rows never depend on the path: each scan's residual re-checks
  /// every conjunct.
  Result<ExecutedQuery> Execute(const BackendCall& call);

  /// The literal entry: each literal of `stmt` becomes a slot, then Execute.
  /// A caller that hands the statement over saves its copy.
  Result<ExecutedQuery> ExecuteQuery(const SelectStmt& stmt);
  Result<ExecutedQuery> ExecuteQuery(std::unique_ptr<SelectStmt> stmt);

  /// -- heartbeats ---------------------------------------------------------------

  /// Registers a currency region's heartbeat row and schedules its beats.
  void RegisterRegionHeartbeat(const RegionDef& region,
                               SimulationScheduler* scheduler);

  /// -- accessors ------------------------------------------------------------------
  const Catalog& catalog() const { return catalog_; }
  const UpdateLog& log() const { return log_; }
  const HeartbeatStore& heartbeat() const { return heartbeat_; }
  const TimestampOracle& oracle() const { return oracle_; }
  VirtualClock* clock() const { return clock_; }
  const PlanCache& plan_cache() const { return plans_; }

  /// Master storage for a table; nullptr when unknown.
  const Table* table(std::string_view name) const;

 private:
  Table* mutable_table(std::string_view name);
  /// Plans `call` on a cache miss and publishes the entry under `key`.
  Result<std::shared_ptr<const PlanCacheEntry>> Plan(const BackendCall& call,
                                                     const std::string& key,
                                                     uint64_t version);

  VirtualClock* clock_;
  CostParams costs_;
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<Table>> tables_;  // lower-case name
  TimestampOracle oracle_;
  UpdateLog log_;
  HeartbeatStore heartbeat_;
  CommitObserver commit_observer_;
  PlanCache plans_;

  const Table* ScanTable(const ScanTarget& target) override {
    return target.is_view ? nullptr : table(target.name);
  }
};

}  // namespace rcc

#endif  // RCC_BACKEND_BACKEND_SERVER_H_
