#ifndef RCC_CORE_SESSION_H_
#define RCC_CORE_SESSION_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/query_result.h"
#include "core/system.h"
#include "semantics/model.h"

namespace rcc {

/// An application session against the cache DBMS. Parses statements,
/// runs the C&C-aware pipeline, and implements timeline consistency
/// (paper §2.3): inside BEGIN TIMEORDERED ... END TIMEORDERED, a query never
/// reads data older than what the session has already seen — currency guards
/// are additionally floored at the session's high-water snapshot time.
class Session {
 public:
  explicit Session(RccSystem* system)
      : system_(system), id_(system->NextSessionId()) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Per-statement execution options the admission layer (network server)
  /// hands down with each request. The deadline base is the request's
  /// decode time, so time spent queued behind other statements counts
  /// against the statement's budget.
  struct StatementOptions {
    /// When the request entered the system (the server's frame decode for
    /// served statements; defaults to "now" for in-process callers).
    std::chrono::steady_clock::time_point enqueued_at =
        std::chrono::steady_clock::now();
    /// Per-request deadline override (wire field); 0 = not set. Highest
    /// precedence.
    int64_t deadline_ms = 0;
    /// Caller-level default (ServerOptions::default_deadline_ms); 0 = none.
    /// Lowest precedence — `SET DEADLINE <ms>` sits between the two.
    int64_t default_deadline_ms = 0;
    /// Overload-pressure hint: prefer the permitted degraded-local branch
    /// over a remote round-trip (C&C-aware shedding).
    bool shed_hint = false;
  };

  /// Executes one SQL statement: SET, SELECT with optional currency clause,
  /// EXPLAIN [ANALYZE], DML, or BEGIN/END TIMEORDERED. SELECT and EXPLAIN
  /// text runs through RccSystem::ExecuteSelect, the one SELECT pipeline.
  Result<QueryResult> Execute(const std::string& sql) {
    return Execute(sql, StatementOptions{});
  }
  Result<QueryResult> Execute(const std::string& sql,
                              const StatementOptions& opts);

  /// Executes a pre-parsed DML or BEGIN/END TIMEORDERED statement. SELECT
  /// and EXPLAIN are refused here: they run from their text through Execute,
  /// because the plan cache keys on it.
  Result<QueryResult> ExecuteStatement(const Statement& stmt);

  /// Executes a batch of SELECT statements concurrently on the system's
  /// worker pool (RccSystem::ExecuteConcurrent), applying this session's
  /// degrade mode and — in time-ordered mode — sharing its timeline floor:
  /// every query starts at the current floor and the floor ends at the
  /// maximum snapshot time any query of the batch observed, exactly as if
  /// the batch had run serially in some order. `workers` as in
  /// ConcurrentBatchOptions. With a router installed every query routes.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<std::string>& sqls, int workers = 0);

  /// Optimizes without executing: the entry point of the plan-choice
  /// experiments.
  Result<QueryPlan> Prepare(const std::string& sql) const;

  /// Independently verifies — against the appendix semantics model
  /// interpreting the back-end update log — that the data sources a plan
  /// would read *right now* satisfy the plan's C&C constraint. Returns OK or
  /// ConstraintViolation with an explanation. Used by tests and available to
  /// applications that want the "detect and report" behaviour from the
  /// paper's introduction.
  Status VerifyConstraint(const QueryPlan& plan) const;

  bool in_timeordered() const {
    return timeordered_.load(std::memory_order_acquire);
  }

  /// Process-unique session id; tags this session's queries and mode
  /// toggles in the audit history.
  uint64_t id() const { return id_; }

  /// Degradation policy for remote-branch failures in this session's
  /// queries. Settable in SQL: SET DEGRADE = NONE | BOUNDED | ALWAYS.
  /// Atomic: a network connection may apply SET DEGRADE on one thread while
  /// queries for the same session are in flight on pool workers; each query
  /// reads the mode exactly once at admission, so it runs entirely under the
  /// old or entirely under the new policy (never a mix).
  DegradeMode degrade_mode() const {
    return degrade_mode_.load(std::memory_order_acquire);
  }
  void set_degrade_mode(DegradeMode mode) {
    degrade_mode_.store(mode, std::memory_order_release);
  }

  /// Per-query structured tracing for this session's serial SELECTs.
  /// Settable in SQL: SET TRACE ON | OFF. When on, each QueryResult carries
  /// its trace. EXPLAIN ANALYZE traces its one statement regardless.
  bool trace_enabled() const {
    return trace_enabled_.load(std::memory_order_acquire);
  }
  void set_trace_enabled(bool on) {
    trace_enabled_.store(on, std::memory_order_release);
  }

  /// Session-level statement deadline in real ms; 0 = none. Settable in SQL:
  /// SET DEADLINE <ms> (0 turns it off). Overridden per request by
  /// StatementOptions::deadline_ms; overrides the caller default.
  int64_t deadline_ms() const {
    return deadline_ms_.load(std::memory_order_acquire);
  }
  void set_deadline_ms(int64_t ms) {
    deadline_ms_.store(ms, std::memory_order_release);
  }

  /// DML: builds the row operations (UPDATE and DELETE find their rows with
  /// a SELECT planned by the back-end) and forwards them as one transaction
  /// to the back-end — the cache never applies writes itself (paper §3
  /// item 5).
  Result<QueryResult> ExecuteInsert(const InsertStmt& stmt);
  Result<QueryResult> ExecuteUpdate(const UpdateStmt& stmt);
  Result<QueryResult> ExecuteDelete(const DeleteStmt& stmt);
  /// The session's snapshot high-water mark (virtual time); -1 before any
  /// query ran in time-ordered mode.
  SimTimeMs timeline_floor() const {
    return timeline_floor_.load(std::memory_order_acquire);
  }

  /// Installs a fleet router: every subsequent plain SELECT (not EXPLAIN,
  /// not DML, not session statements) dispatches through it instead of the
  /// system's single cache. Wire-up time only — set before the session
  /// serves traffic, never concurrently with Execute.
  void set_router(StatementRouter* router) { router_ = router; }
  StatementRouter* router() const { return router_; }

 private:
  /// Applies SET DEGRADE [=] NONE|BOUNDED|ALWAYS, SET TRACE [=] ON|OFF or
  /// SET DEADLINE [=] <ms> (handled before SQL parsing; a deadline of 0
  /// turns it off, values above 24 h are not a SET). nullopt when `sql` is
  /// none of them.
  std::optional<QueryResult> ApplySet(const std::string& sql);
  /// Resolves the effective deadline for one statement: per-request override
  /// > session SET DEADLINE > caller default, anchored at opts.enqueued_at.
  Deadline ResolveDeadline(const StatementOptions& opts) const;

  RccSystem* system_;
  uint64_t id_;
  // All session modes are atomics: the network front end funnels one
  // connection's control frames and queries through one Session from
  // different pool threads, so SET DEGRADE / SET TRACE / BEGIN TIMEORDERED
  // legitimately race with Execute/ExecuteBatch.
  std::atomic<bool> timeordered_{false};
  std::atomic<bool> trace_enabled_{false};
  /// Atomic because concurrent statements CAS-max their observed snapshot
  /// times into it (RccSystem::ExecuteSelect).
  std::atomic<SimTimeMs> timeline_floor_{-1};
  std::atomic<DegradeMode> degrade_mode_{DegradeMode::kNone};
  /// Session statement deadline (real ms); 0 = none. Atomic for the same
  /// reason as the modes above (SET DEADLINE races with in-flight queries).
  std::atomic<int64_t> deadline_ms_{0};
  /// Fleet dispatch target; nullptr = execute on the system's single cache.
  /// Set once at wire-up (see set_router), so a plain pointer suffices.
  StatementRouter* router_ = nullptr;
};

}  // namespace rcc

#endif  // RCC_CORE_SESSION_H_
