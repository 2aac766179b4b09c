#ifndef RCC_CORE_STATEMENT_ROUTER_H_
#define RCC_CORE_STATEMENT_ROUTER_H_

#include <cstdint>
#include <string_view>

#include "cache/cache_dbms.h"

namespace rcc {

/// Session-level options a routed statement carries: the same knobs
/// RccSystem::ExecuteSelect would hand to the local CacheDbms, plus the
/// plan-cache context (degrade mode and time-ordered flag key every node's
/// cache).
struct RoutedStatementOptions {
  SimTimeMs timeline_floor = -1;
  DegradeMode degrade = DegradeMode::kNone;
  /// The session is time-ordered (part of each node's plan-cache key; the
  /// floor may still be unset).
  bool timeordered = false;
  uint64_t session_tag = 0;
  Deadline deadline;
  bool shed_hint = false;
  /// The statement's decision stream; null = a private, untraced one. Each
  /// dispatch attempt records its route here, then executes on it.
  EventStream* events = nullptr;
};

/// Dispatches a SELECT to whichever execution target can satisfy its C&C
/// constraint — the seam between Session (which owns SQL surface and
/// session state) and the fleet layer (which owns topology). A Session with
/// no router executes against the system's single cache exactly as before;
/// a Session handed a router forwards every plain SELECT and keeps
/// EXPLAIN/DML/session statements local. Implementations must be
/// thread-safe: the network front end runs each statement on the event-loop
/// thread that owns its connection, with several loops running at once.
class StatementRouter {
 public:
  virtual ~StatementRouter() = default;

  /// SQL text (SELECT keyword on): every target's plan comes from its own
  /// plan cache. The path sessions take.
  virtual Result<CacheQueryOutcome> RouteSql(
      std::string_view sql, const RoutedStatementOptions& opts) = 0;

  /// A parsed statement: every target prepares it afresh, outside any plan
  /// cache (tests and benches that hold an AST).
  virtual Result<CacheQueryOutcome> RouteSelect(
      const SelectStmt& stmt, const RoutedStatementOptions& opts) = 0;

  /// Counted concurrent-batch mode on every execution target
  /// (CacheDbms::BeginConcurrentBatch), for batches that route.
  virtual void BeginConcurrentBatch() = 0;
  virtual void EndConcurrentBatch() = 0;
};

}  // namespace rcc

#endif  // RCC_CORE_STATEMENT_ROUTER_H_
