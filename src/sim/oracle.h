#ifndef RCC_SIM_ORACLE_H_
#define RCC_SIM_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/history.h"

namespace rcc {
namespace sim {

/// One conformance violation: a recorded behaviour the formal C&C model
/// (src/semantics/) does not permit.
struct Violation {
  /// Which rule fired: "guard-verdict", "heartbeat-divergence",
  /// "currency-bound", "consistency-class", "snapshot-epoch",
  /// "timeline-floor", "timeline-tracking", "degrade-refusal", "shed-shape",
  /// "operand-served-once", "node-region-binding", "route-heartbeat",
  /// "route-verdict", "route-choice", "route-serve-node".
  std::string rule;
  uint64_t query_id = 0;
  /// Sequence number of the event the violation anchors to.
  uint64_t seq = 0;
  std::string detail;

  std::string ToString() const;
};

/// What the oracle checked and what it found. `ok()` is the pass criterion
/// of every simulation seed.
struct OracleReport {
  int64_t answers_checked = 0;
  int64_t guards_checked = 0;
  int64_t serves_checked = 0;
  /// Fleet-router dispatch decisions re-derived (0 on single-node runs).
  int64_t routes_checked = 0;
  /// Answered operands with no serve record (unguarded scans, zero-table
  /// statements): skipped, not violated — reported so a vacuously green run
  /// is visible as such.
  int64_t operands_uncovered = 0;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Replays a recorded history against the paper's formal semantics,
/// independently of the engine code that produced it. The oracle derives
/// every input from the event stream itself — region snapshots from install
/// events, the update history from commit events, session floors from
/// answers — and re-checks, per query:
///
///  R1 guard-verdict: the guard's routing decision matches the model's
///     `heartbeat > now − bound` rule (plus the timeline floor) applied to
///     the recorded inputs. Catches a skewed or inverted guard comparison
///     even when the data served happens to be fresh.
///  R2 heartbeat-divergence: the heartbeat a guard or serve claims to have
///     read equals the heartbeat the install stream last published for that
///     region — withdrawn while the derived health is quarantined/resyncing.
///  R3 currency-bound: per served operand, staleness under
///     semantics::CurrencyOf at serve time is within the constraint's bound,
///     unless the serve was explicitly degraded under SET DEGRADE ALWAYS.
///  R4 consistency-class: every multi-operand consistency class is
///     attributable to a single snapshot (semantics::MutuallyConsistent); a
///     local serve may take any snapshot its region installed between serve
///     and answer (mid-query deliveries landing during policy waits).
///  R5 timeline: per time-ordered session, query floors track the session's
///     high-water snapshot exactly and no local serve reads below the floor.
///  operand-served-once: within one query id, each input operand is served
///     once. Every serving operator decides once per execution and keeps
///     its decision across re-opens (a join's inner side, an EXISTS/IN
///     subplan per outer row), so a second serve means a mid-query
///     re-decision. A polynomial per-query check in the sense of *On the
///     Complexity of Checking Transactional Consistency*.
///
/// Multi-node (fleet) histories get four more rules. R1–R7 already hold
/// per-node for free: region ids are fleet-unique, so per-region state never
/// mixes nodes. The cross-node rules pin the topology and the router:
///
///  node-region-binding: a region has exactly one owning node — every
///     install/health/guard/local-serve event (and every route probe) naming
///     a region carries the node that first installed it. Catches
///     misattributed events before any per-region rule silently blends two
///     nodes' streams.
///  route-heartbeat: the certified heartbeat a route probe claims equals the
///     one derived from the probed region's install + health streams at
///     route time — withdrawn (unknown) while quarantined/resyncing. Unlike
///     the guard-side R2 there is no pinned-claim allowance: the router
///     reads the *current* certified state, never an MVCC pin. This is the
///     rule that catches RCC_FLEET_MUTATE (a router trusting a withdrawn
///     heartbeat).
///  route-verdict: each probe's eligibility bit recomputes from its recorded
///     inputs — heartbeat known, not below the timeline floor, and within
///     bound (or any staleness under DEGRADE ALWAYS, where the node may
///     serve stale-flagged).
///  route-choice: a cache-tier dispatch went to a node all of whose probes
///     were eligible.
///  route-serve-node: every guard/serve/answer event of a routed query
///     carries the routed node, and a backend-tier dispatch serves no local
///     branch.
///
/// The oracle assumes answers of a time-ordered session are serial (the
/// harness never runs a time-ordered session on a multi-worker batch).
OracleReport CheckHistory(const History& history);

}  // namespace sim
}  // namespace rcc

#endif  // RCC_SIM_ORACLE_H_
