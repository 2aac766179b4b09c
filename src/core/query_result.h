#ifndef RCC_CORE_QUERY_RESULT_H_
#define RCC_CORE_QUERY_RESULT_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_dbms.h"
#include "obs/trace.h"

namespace rcc {

/// What a session returns for one statement. For BEGIN/END TIMEORDERED the
/// row set is empty and `message` describes the mode change.
struct QueryResult {
  RowLayout layout;
  std::vector<Row> rows;
  /// Coarse plan shape (paper Fig. 4.1 classes).
  PlanShape shape = PlanShape::kRemoteOnly;
  ExecStats stats;
  /// The normalized C&C constraint the plan was required to satisfy.
  NormalizedConstraint constraint;
  SimTimeMs executed_at = 0;
  std::string message;
  /// Rows touched by a DML statement (INSERT/UPDATE/DELETE).
  int64_t rows_affected = 0;
  /// True when some branch was answered from a local view after its remote
  /// branch failed (see DegradeMode). The rows are correct data, just
  /// possibly staler than the query's bound.
  bool degraded = false;
  /// Staleness (virtual ms) of the most stale degraded serve; 0 when not
  /// degraded.
  SimTimeMs staleness_ms = 0;
  /// StaleOk advisory describing the degradation, Status::OK() otherwise —
  /// the paper §1 "return the data but with an error code" behaviour.
  Status advisory = Status::OK();
  /// The query's structured event trace; null unless the session had
  /// SET TRACE ON (or the statement was EXPLAIN ANALYZE). Shared so results
  /// stay cheaply copyable.
  std::shared_ptr<const obs::QueryTrace> trace;

  /// Pretty ASCII table of the result rows (used by the examples).
  std::string ToTable(size_t max_rows = 20) const;
};

/// Converts a cache execution outcome into the session-level result shape,
/// including the degraded-serve advisory. Shared by the serial session path
/// and the concurrent batch executor so both report identically.
QueryResult MakeQueryResult(CacheQueryOutcome outcome);

}  // namespace rcc

#endif  // RCC_CORE_QUERY_RESULT_H_
