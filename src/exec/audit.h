#ifndef RCC_EXEC_AUDIT_H_
#define RCC_EXEC_AUDIT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "replication/health.h"
#include "semantics/constraint.h"
#include "txn/update_log.h"

namespace rcc {

/// Execution-audit observations. The engine reports, through a HistorySink,
/// every externally meaningful event of a run: back-end commits, replication
/// installs, health transitions, currency-guard probes, the branch that
/// actually served each query, and the final answer. The simulation
/// harness's HistoryRecorder (src/sim/history.h) implements the sink and
/// turns the stream into a replayable history that the conformance oracle
/// checks against the formal C&C model — independently of the guard and
/// optimizer code that produced the events. Everything recorded is virtual
/// time or logical state, never wall-clock, so a recorded run is
/// bit-reproducible from its seed.

/// One currency-guard probe: the inputs the guard saw and the verdict it
/// reached. The oracle re-derives the verdict from the inputs (and the
/// inputs from the install stream), so a skewed guard comparison is caught
/// even when the served data happens to be fresh.
struct GuardObservation {
  uint64_t query_id = 0;
  /// Cache node the probe ran on (fleet topology); 0 = the only node of a
  /// single-cache system. Stamped by NodeTaggingSink, never by the engine —
  /// a CacheDbms has no idea it is part of a fleet.
  int node = 0;
  RegionId region = kBackendRegion;
  SimTimeMs at = 0;
  /// The certified heartbeat the guard read; heartbeat_known = false when
  /// the region was unknown or its pipeline withdrew the heartbeat.
  bool heartbeat_known = false;
  SimTimeMs heartbeat = -1;
  SimTimeMs bound_ms = 0;
  /// Session timeline floor in effect (< 0 = timeline mode off).
  SimTimeMs floor_ms = -1;
  /// true = the guard routed the query at the local branch.
  bool verdict_local = false;
  /// Pipeline health of the probed snapshot (kHealthy for an unknown
  /// region). Trace text only: the oracle derives health from the health
  /// stream, never from this field.
  RegionHealth health = RegionHealth::kHealthy;
  /// Publication epoch of the region snapshot the probe read (0 when the
  /// engine layer doesn't version reads).
  uint64_t epoch = 0;
};

/// One serving decision: a set of input operands was answered from a local
/// region replica or from a back-end fetch. Recorded once per serving
/// operator per execution: a re-opened inner side (nested-loop join, or an
/// EXISTS/IN subplan per outer row) keeps its decision, and its remote
/// re-fetches are attributed to the first fetch (DESIGN.md §9). The oracle
/// flags a second serve of one operand (operand-served-once).
struct ServeObservation {
  uint64_t query_id = 0;
  /// Serving cache node (see GuardObservation::node).
  int node = 0;
  SimTimeMs at = 0;
  /// true = local view branch; false = remote (back-end) fetch.
  bool local = false;
  /// true = served past a failed remote branch under SET DEGRADE.
  bool degraded = false;
  /// true = this degraded serve was a pre-emptive overload shed: the guard
  /// chose remote, but admission-layer pressure redirected the statement
  /// down the (permitted) degraded-local branch before any remote attempt.
  /// Always implies `degraded`; the oracle treats shed serves under exactly
  /// the same currency rules as failure-driven degraded serves.
  bool shed = false;
  /// Serving currency region; kBackendRegion for remote fetches.
  RegionId region = kBackendRegion;
  /// The region heartbeat claimed at serve time (local serves only).
  bool heartbeat_known = false;
  SimTimeMs heartbeat = -1;
  /// Publication epoch of the pinned region snapshot the rows came from
  /// (local serves only; 0 = unversioned). All local serves of one region
  /// within one query must carry the same epoch — the MVCC pin makes the
  /// paper's one-snapshot-per-consistency-class property structural, and the
  /// oracle checks it.
  uint64_t epoch = 0;
  /// Input operands whose rows this serve produced.
  std::vector<InputOperandId> operands = {};
};

/// One completed query (successful or failed), carrying everything the
/// oracle needs to evaluate the query's C&C constraint against the serve
/// events recorded under the same query_id.
struct AnswerObservation {
  uint64_t query_id = 0;
  /// Cache node that produced the answer (see GuardObservation::node).
  int node = 0;
  /// Issuing session tag (0 = anonymous caller).
  uint64_t session = 0;
  SimTimeMs at = 0;
  bool ok = false;
  /// DegradeMode the query ran under, as its enum integer.
  int degrade_mode = 0;
  /// Timeline floor the query started from (< 0 = timeline mode off).
  SimTimeMs floor_before = -1;
  /// Highest source snapshot time the query observed (-1 = none).
  SimTimeMs max_seen_heartbeat = -1;
  /// true when at least one branch served degraded (stale-flagged).
  bool degraded = false;
  SimTimeMs degraded_staleness_ms = 0;
  int64_t rows = 0;
  /// Base-table name per InputOperandId (index = operand id).
  std::vector<std::string> operand_tables;
  /// The normalized constraint, flattened: (bound_ms, consistency class).
  std::vector<std::pair<SimTimeMs, std::vector<InputOperandId>>> tuples;
  /// Failure text when !ok.
  std::string error;
};

/// One replication install: the region's data was atomically replaced or
/// extended to reflect back-end snapshot `as_of`, and `heartbeat` was
/// published. Initial region definition, delivery batches and resyncs all
/// install; the oracle derives every region's state timeline from these.
struct InstallObservation {
  enum class Kind { kInitial, kDelivery, kResync };
  Kind kind = Kind::kDelivery;
  /// Cache node owning the region (see GuardObservation::node).
  int node = 0;
  RegionId region = kBackendRegion;
  SimTimeMs at = 0;
  /// Back-end snapshot (last applied transaction id) after the install.
  TxnTimestamp as_of = 0;
  /// Local heartbeat value after the install.
  SimTimeMs heartbeat = 0;
  /// Row ops applied by the batch (0 for initial population / resync).
  int64_t ops = 0;
};

/// One fleet-router eligibility probe: what the router saw when it asked
/// whether `node` could satisfy a constraint tuple over `region` at route
/// time. The oracle re-derives the certified heartbeat from the install and
/// health streams and recomputes the eligibility verdict, so a router that
/// trusts a withdrawn heartbeat (the RCC_FLEET_MUTATE planted bug) is caught
/// even when the node's own guards later refuse to serve.
struct RouteProbe {
  int node = 0;
  /// Region the probed view lives in; kBackendRegion when the probe failed
  /// on view coverage (the node materializes no view over a constrained
  /// operand, so there is no region to certify).
  RegionId region = kBackendRegion;
  SimTimeMs bound_ms = 0;
  /// Session timeline floor at route time (< 0 = timeline mode off).
  SimTimeMs floor_ms = -1;
  /// The certified heartbeat the router read (LocalHeartbeat semantics:
  /// known = false when the region is unknown, never synced, or its
  /// replication pipeline withdrew certification).
  bool heartbeat_known = false;
  SimTimeMs heartbeat = -1;
  /// The router's verdict for this probe. A node is eligible for the query
  /// only if every one of its probes is.
  bool eligible = false;
};

/// One routing decision of the fleet front end: the chosen node (or the
/// backend tier), the degrade mode the attempt runs under, and every
/// per-node probe that fed the choice. A query that falls through records a
/// fresh route observation per attempt, each under its own query id.
struct RouteObservation {
  uint64_t query_id = 0;
  SimTimeMs at = 0;
  /// Node the statement was dispatched to.
  int node = 0;
  /// true = no cache node was eligible (or all eligible ones failed) and the
  /// statement ran as an all-remote plan against the backend.
  bool backend_tier = false;
  /// DegradeMode of the attempt, as its enum integer.
  int degrade_mode = 0;
  std::vector<RouteProbe> probes;
};

/// Receiver of the audit stream. Implementations must be thread-safe:
/// queries of a concurrent batch report from worker threads (commits,
/// installs and health transitions only ever arrive from the simulation
/// thread). All hooks are no-ops in spirit — they must not affect engine
/// behaviour.
class HistorySink {
 public:
  virtual ~HistorySink() = default;

  /// Allocates a query id; every subsequent observation of that query
  /// carries it.
  virtual uint64_t BeginQuery(SimTimeMs at) = 0;

  virtual void OnGuardProbe(const GuardObservation& obs) = 0;
  virtual void OnServe(const ServeObservation& obs) = 0;
  virtual void OnAnswer(const AnswerObservation& obs) = 0;

  /// A back-end commit (the formal model's xtime source).
  virtual void OnCommit(const CommittedTxn& txn, SimTimeMs at) = 0;
  virtual void OnInstall(const InstallObservation& obs) = 0;
  /// `node` identifies the cache node owning the region (0 = single-cache
  /// system); the default keeps single-node call sites unchanged.
  virtual void OnHealth(RegionId region, RegionHealth from, RegionHealth to,
                        SimTimeMs at, int node = 0) = 0;

  /// A fleet-router dispatch decision. Default no-op: single-node systems
  /// never route, and pre-fleet sinks need no override.
  virtual void OnRoute(const RouteObservation& obs) { (void)obs; }

  /// A session toggled timeline mode; `timeordered` = the new state. Entering
  /// timeline mode resets the session's floor, so the oracle restarts its
  /// monotonicity tracking here.
  virtual void OnSessionMode(uint64_t session, bool timeordered,
                             SimTimeMs at) = 0;
};

/// Stamps a fixed node id onto every observation before forwarding to an
/// inner sink. The fleet wraps each CacheDbms's sink in one of these, so
/// node identity flows into histories without the engine knowing about
/// fleets: a CacheDbms records exactly as it always did, and the wrapper
/// owns the topology fact. BeginQuery forwards untouched — query ids are
/// fleet-global so one routed statement's guard/serve/answer events
/// correlate across nodes. Thread-safety is inherited from the inner sink
/// (the wrapper itself is stateless beyond the immutable node id).
class NodeTaggingSink : public HistorySink {
 public:
  NodeTaggingSink(HistorySink* inner, int node) : inner_(inner), node_(node) {}

  uint64_t BeginQuery(SimTimeMs at) override { return inner_->BeginQuery(at); }

  void OnGuardProbe(const GuardObservation& obs) override {
    inner_->OnGuardProbe(Tagged(obs));
  }
  void OnServe(const ServeObservation& obs) override {
    inner_->OnServe(Tagged(obs));
  }
  void OnAnswer(const AnswerObservation& obs) override {
    inner_->OnAnswer(Tagged(obs));
  }
  void OnCommit(const CommittedTxn& txn, SimTimeMs at) override {
    inner_->OnCommit(txn, at);  // commits are backend-global, not per-node
  }
  void OnInstall(const InstallObservation& obs) override {
    inner_->OnInstall(Tagged(obs));
  }
  void OnHealth(RegionId region, RegionHealth from, RegionHealth to,
                SimTimeMs at, int node = 0) override {
    (void)node;
    inner_->OnHealth(region, from, to, at, node_);
  }
  void OnRoute(const RouteObservation& obs) override {
    inner_->OnRoute(obs);  // routes carry their own node (the chosen one)
  }
  void OnSessionMode(uint64_t session, bool timeordered,
                     SimTimeMs at) override {
    inner_->OnSessionMode(session, timeordered, at);
  }

 private:
  template <typename Observation>
  Observation Tagged(Observation obs) const {
    obs.node = node_;
    return obs;
  }

  HistorySink* inner_;
  int node_;
};

}  // namespace rcc

#endif  // RCC_EXEC_AUDIT_H_
