#ifndef RCC_EXEC_EXEC_CONTEXT_H_
#define RCC_EXEC_EXEC_CONTEXT_H_

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "plan/physical.h"
#include "replication/health.h"
#include "storage/table.h"

namespace rcc {

class EventStream;
class ReadHandle;

/// A fully materialized query result: what ExecutePlan returns, and the rows
/// of a remote (back-end) query in the remote select-list order.
struct ExecutedQuery {
  RowLayout layout;
  std::vector<Row> rows;
};

/// One call to the back end: a statement template and its slot values.
struct BackendCall {
  const QueryTemplate& tmpl;
  const std::vector<Value>& params;
};

/// How a query may degrade when its remote branch fails and the local view
/// misses (or meets) the currency bound (paper §1: "return the data but with
/// an error code" instead of failing outright).
enum class DegradeMode {
  /// Never degrade: a remote-branch failure fails the query.
  kNone,
  /// Serve the local view only if a guard re-probe shows it satisfies the
  /// currency bound (the bound may have become satisfiable while the retry
  /// policy waited out back-end failures).
  kBounded,
  /// Serve the local view even beyond the bound, annotated with how stale it
  /// is. The timeline-consistency floor is still enforced.
  kAlways,
};

std::string_view DegradeModeName(DegradeMode mode);

/// A real-time (steady-clock) statement deadline. Unlike the currency
/// machinery — which runs entirely on the virtual clock — cancellation is
/// about wall time a client has already waited, so it uses real time. The
/// default (time_point::max) means "no deadline" and costs one compare per
/// check.
struct Deadline {
  std::chrono::steady_clock::time_point at =
      std::chrono::steady_clock::time_point::max();

  static Deadline None() { return Deadline(); }
  static Deadline After(std::chrono::steady_clock::time_point start,
                        int64_t ms) {
    Deadline d;
    d.at = start + std::chrono::milliseconds(ms);
    return d;
  }

  /// True once the deadline has passed. Cancellation points (the executor's
  /// drain, every 256 rows; remote retry-loop iterations) poll this; without
  /// a deadline it is one compare.
  bool expired() const {
    return at != std::chrono::steady_clock::time_point::max() &&
           std::chrono::steady_clock::now() >= at;
  }
};

/// Per-query execution counters, derived: EventStream::Record folds every
/// decision record into them, and nothing else writes them. Phase timings
/// are real (steady-clock) time because the currency-guard overhead
/// experiments (paper Tables 4.4/4.5) measure actual executor work;
/// everything currency-related runs on the virtual clock instead.
struct ExecStats {
  int64_t rows_returned = 0;
  int64_t remote_queries = 0;
  int64_t guard_evaluations = 0;
  /// SwitchUnion serving branches, counted by where the rows actually came
  /// from: a query that chose remote but degraded to its local view counts
  /// in switch_local (plus degraded_serves), not switch_remote.
  int64_t switch_local = 0;
  int64_t switch_remote = 0;
  /// Guard decisions that directed the query at the remote branch, whether or
  /// not the remote branch ended up serving (the pre-degradation decision).
  int64_t switch_remote_attempted = 0;
  /// Resilience-policy events on the cache↔back-end link.
  int64_t remote_retries = 0;
  int64_t remote_timeouts = 0;
  int64_t breaker_opens = 0;
  /// Queries answered from a local view after the remote branch failed.
  int64_t degraded_serves = 0;
  /// Degraded serves taken *pre-emptively* under overload pressure: the
  /// guard chose remote, but the shed hint redirected the statement down the
  /// degraded-local branch (only when the degrade mode and timeline floor
  /// permit — see SwitchUnionIterator). A subset of degraded_serves.
  int64_t shed_serves = 0;
  /// Statements cancelled in the executor's drain or a retry-loop iteration
  /// because their real-time deadline expired.
  int64_t deadline_timeouts = 0;
  /// Guard probes against a region with no known local heartbeat (region
  /// undefined, or defined mid-run and never synced): the guard fails
  /// explicitly instead of treating the region as stale-since-time-0.
  int64_t guard_unknown_region = 0;
  /// Guard probes that found the region quarantined or resyncing (its
  /// replication pipeline invalidated the heartbeat). A subset of
  /// guard_unknown_region — broken out so operators can tell "never synced"
  /// from "taken out of service".
  int64_t guard_quarantined_region = 0;
  /// Largest staleness (virtual ms) among this object's degraded serves;
  /// 0 when none happened.
  SimTimeMs degraded_staleness_ms = 0;
  /// Executor phases, milliseconds of real time.
  double setup_ms = 0;
  double run_ms = 0;
  double shutdown_ms = 0;
  /// Highest snapshot timestamp (virtual time) among the data sources the
  /// query actually read: local branches contribute their region's local
  /// heartbeat, remote fetches the current virtual time. Drives timeline
  /// consistency (paper §2.3). -1 when no source was touched.
  SimTimeMs max_seen_heartbeat = -1;
};

/// Everything an iterator tree needs at run time. The engine layer (cache /
/// back-end) supplies the read handle; exec stays independent of it.
struct ExecContext {
  /// Where the plan's scans, guard probes and remote fetches read (see
  /// ReadHandle). `reader`, `clock` and `events` must be set before the
  /// plan runs.
  ReadHandle* reader = nullptr;
  const VirtualClock* clock = nullptr;
  /// The statement's decision stream: every guard probe, branch, serve and
  /// link event is recorded here, and stats, trace and history follow.
  EventStream* events = nullptr;

  /// Degradation policy for remote-branch failures (see DegradeMode).
  DegradeMode degrade = DegradeMode::kNone;

  /// Real-time deadline for this statement; default = none. Checked by the
  /// executor before the first row and every 256 rows, and inside the remote
  /// retry loop, so a timed-out statement frees its worker (and snapshot
  /// pin) within 256 rows instead of running to completion.
  Deadline deadline;

  /// Overload-shedding hint from the admission layer: when true, a
  /// SwitchUnion whose guard chose the remote branch first *tries* the
  /// degraded-local ladder (same permission checks as a remote failure —
  /// degrade mode, quarantine, timeline floor, currency bound) and serves
  /// local if allowed, falling back to normal remote execution if not.
  /// Never weakens guard semantics; it only re-orders which permitted
  /// branch is preferred under pressure.
  bool shed_hint = false;

  /// Evaluates the plan's nested EXISTS/IN subqueries. ExecutePlan installs
  /// it for the duration of the execution; outside one it is null, and a
  /// subquery fails as not supported.
  const SubqueryEvaluator* subqueries = nullptr;

  /// Timeline-consistency floor (paper §2.3): when >= 0, currency guards
  /// additionally require the region's heartbeat to be at least this value,
  /// so a session never reads data older than what it has already seen.
  SimTimeMs timeline_floor_ms = -1;

  /// Bind values for kParam nodes in the plan (plan-cache reuse); null when
  /// the plan was built fresh from literals.
  const std::vector<Value>* params = nullptr;
};

/// Volcano-style iterator. Open may be called again after Close: the inner
/// side of a nested-loop join and an EXISTS/IN subplan are built once per
/// execution and re-opened per outer row, with the outer row's scope. Open
/// resets every piece of per-open state.
class RowIterator {
 public:
  virtual ~RowIterator() = default;

  /// `outer` supplies bindings for correlated/parameterized references; may
  /// be nullptr at the plan root.
  virtual Status Open(const EvalScope* outer) = 0;
  /// Produces the next row; returns false at end of stream.
  virtual Result<bool> Next(Row* out) = 0;
  virtual Status Close() = 0;

  /// Row shape produced by this iterator.
  virtual const RowLayout& layout() const = 0;
};

}  // namespace rcc

#endif  // RCC_EXEC_EXEC_CONTEXT_H_
