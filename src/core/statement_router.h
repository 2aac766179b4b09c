#ifndef RCC_CORE_STATEMENT_ROUTER_H_
#define RCC_CORE_STATEMENT_ROUTER_H_

#include <cstdint>

#include "cache/cache_dbms.h"

namespace rcc {

/// Session-level options a routed statement carries: the same knobs
/// RccSystem::ExecuteSelect would hand to the local CacheDbms, minus the
/// plan-cache machinery (plans are per-node, so the router's nodes cache
/// independently).
struct RoutedStatementOptions {
  SimTimeMs timeline_floor = -1;
  DegradeMode degrade = DegradeMode::kNone;
  uint64_t session_tag = 0;
  Deadline deadline;
  bool shed_hint = false;
};

/// Dispatches a parsed SELECT to whichever execution target can satisfy its
/// C&C constraint — the seam between Session (which owns SQL surface and
/// session state) and the fleet layer (which owns topology). A Session with
/// no router executes against the system's single cache exactly as before;
/// a Session handed a router forwards every plain SELECT and keeps
/// EXPLAIN/DML/session statements local. Implementations must be
/// thread-safe: the network front end funnels statements from pool threads.
class StatementRouter {
 public:
  virtual ~StatementRouter() = default;

  virtual Result<CacheQueryOutcome> RouteSelect(
      const SelectStmt& stmt, const RoutedStatementOptions& opts) = 0;
};

}  // namespace rcc

#endif  // RCC_CORE_STATEMENT_ROUTER_H_
