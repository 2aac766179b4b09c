#ifndef RCC_CACHE_CACHE_DBMS_H_
#define RCC_CACHE_CACHE_DBMS_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend_server.h"
#include "backend/fault_injector.h"
#include "exec/event_stream.h"
#include "exec/read_handle.h"
#include "exec/remote_policy.h"
#include "plan/plan_cache.h"
#include "replication/agent.h"
#include "replication/region.h"

namespace rcc {

/// Outcome of one query executed through the cache: the rows plus everything
/// an application (or a test) may want to inspect about how the C&C
/// constraints were handled.
struct CacheQueryOutcome {
  ExecutedQuery result;
  ExecStats stats;
  PlanShape shape = PlanShape::kRemoteOnly;
  NormalizedConstraint constraint;
  SimTimeMs executed_at = 0;
};

/// One statement text's plan from a cache's PlanCache: the shared immutable
/// entry plus the values to bind for this text's literals.
struct CachedPlan {
  std::shared_ptr<const PlanCacheEntry> entry;
  std::vector<Value> params;
  /// True when the entry came out of the plan cache rather than the planner.
  bool hit = false;
};

/// Everything CacheDbms::ExecutePrepared needs.
struct PreparedExecOptions {
  /// Timeline floor; < 0 disables timeline mode.
  SimTimeMs timeline_floor = -1;
  /// Mode the query *behaves* under — refusal ladder, degraded serves.
  /// For a cached plan this is the mode the plan was created under.
  DegradeMode degrade = DegradeMode::kNone;
  /// Mode recorded in the audit history (defaults to `degrade`). The
  /// session's *current* mode: under a correct cache key the two always
  /// agree, so any divergence (a plan created under ALWAYS served while
  /// the session is at NONE — the RCC_PLANCACHE_MUTATE planted bug) shows
  /// up as a degraded serve recorded under a mode that never authorized
  /// one, which the conformance oracle's R3 rule rejects.
  std::optional<DegradeMode> audit_degrade;
  /// The statement's decision stream (see EventStream); null = a private,
  /// untraced one. A traced stream also receives, in serial mode, the
  /// replication deliveries and health transitions landing mid-query.
  EventStream* events = nullptr;
  /// Issuing session in the audit history (0 = anonymous caller).
  uint64_t session_tag = 0;
  /// Execution-time parameter values for kParam slots of a cached plan.
  const std::vector<Value>* params = nullptr;
  /// Real-time cancellation deadline (default: none). Checked by the
  /// executor before the first row and every 256 rows, and in the remote
  /// retry loop; an expired statement answers DeadlineExceeded and releases
  /// its snapshot pin immediately.
  Deadline deadline;
  /// Overload-shedding hint from the admission layer: prefer the permitted
  /// degraded-local branch over a remote round-trip (see
  /// SwitchUnionIterator::ServeDegraded — guard semantics are never
  /// weakened).
  bool shed_hint = false;
  /// Audit query id pre-allocated by the caller (the fleet router opens
  /// the query with BeginQuery so its route observation and this
  /// execution's guard/serve/answer events correlate). 0 = allocate here,
  /// as every non-routed caller does.
  uint64_t history_query_id = 0;
};

/// MTCache: the mid-tier database cache (paper §3). It holds a shadow
/// catalog (back-end schema + statistics, empty tables), materialized views
/// maintained by transactional replication, currency regions with local
/// heartbeats, and a cost-based optimizer extended with consistency
/// properties and currency guards.
class CacheDbms {
 public:
  /// `backend` and `scheduler` must outlive the cache.
  CacheDbms(BackendServer* backend, SimulationScheduler* scheduler,
            CostParams costs)
      : backend_(backend), scheduler_(scheduler), costs_(costs) {}

  CacheDbms(const CacheDbms&) = delete;
  CacheDbms& operator=(const CacheDbms&) = delete;

  /// Stops every distribution agent before the regions they reference are
  /// torn down: scheduler events outliving the cache are cancelled, not
  /// left to dereference freed regions.
  ~CacheDbms() {
    for (auto& agent : agents_) agent->Stop();
  }

  /// -- setup -----------------------------------------------------------------

  /// Builds the shadow database: copies every back-end table definition and
  /// its statistics into the local catalog (tables stay empty; paper §3
  /// item 1). Call after the back-end schema is loaded.
  Status CreateShadow();

  /// Defines a currency region: catalog entry, runtime state, distribution
  /// agent (started at its first update_interval), and the back-end
  /// heartbeat row.
  Status DefineRegion(const RegionDef& def);

  /// Creates a materialized view, populates it from the current master data
  /// (the replication subscription's initial snapshot), and attaches it to
  /// its currency region. Views should be created before update traffic
  /// starts (matching the prototype's static cache configuration).
  Status CreateView(const ViewDef& def);

  /// Registers a logical (non-materialized) view usable in queries.
  Status CreateLogicalView(const std::string& name, const std::string& sql);

  /// Replaces a table's optimizer statistics (the periodic statistics
  /// refresh) and invalidates the plan cache: a row-count change can flip
  /// the Eq. 1 local-vs-remote winner, so plans priced under the old stats
  /// must not be served again.
  Status UpdateStatistics(const std::string& table, TableStats stats);

  /// -- cache↔back-end link resilience -----------------------------------------

  /// Installs a fault injector on the remote-query channel (latency spikes,
  /// transient errors, outage windows; see FaultInjectorConfig). Replaces
  /// any previous injector. Replication is unaffected: the injector models
  /// the query channel only.
  void SetFaultInjector(FaultInjectorConfig config);
  void ClearFaultInjector();
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// Installs the resilient remote-execution policy (timeout, retries with
  /// backoff, circuit breaker). Without it, remote queries are one bare
  /// attempt — any failure surfaces immediately ("vanilla" behaviour).
  /// While the policy waits (attempt latency, backoff) the simulation
  /// scheduler advances, so heartbeats and replication deliveries land
  /// during the wait.
  void SetRemotePolicy(RemotePolicy policy);
  void ClearRemotePolicy();
  ResilientRemoteExecutor* remote_policy() { return remote_policy_.get(); }

  /// -- replication-pipeline resilience ----------------------------------------

  /// Installs a replication fault injector on every distribution agent
  /// (drops, delays, duplicates, stalls, poisoned ops; see
  /// ReplicationFaultConfig). Each agent gets its own injector seeded with
  /// `config.seed + region id`, so regions fault independently but the whole
  /// schedule is reproducible. Regions defined later inherit the config.
  void SetReplicationFaults(ReplicationFaultConfig config);
  void ClearReplicationFaults();

  /// -- query pipeline -----------------------------------------------------------

  /// Parses nothing: takes an AST. Resolves, optimizes (cache mode) and
  /// returns the plan without executing — the optimizer-experiment entry.
  Result<QueryPlan> Prepare(const SelectStmt& stmt) const;
  Result<QueryPlan> Prepare(const SelectStmt& stmt,
                            const OptimizerOptions& opts) const;

  /// The plan for SQL text `sql` (SELECT keyword on) under a session's
  /// degrade mode and timeline flag: a plan-cache lookup, or on a miss lex,
  /// parse, Prepare, ParameterizePlan and Insert. Every plain SELECT of the
  /// system and the fleet router's anchor plan come from here.
  Result<CachedPlan> LookupOrPlan(std::string_view sql, DegradeMode degrade,
                                  bool timeordered);

  /// The plan for `sql` looked up by its normalized form alone: `tmpl` (the
  /// fleet router's anchor entry's template_text) and `params` (this text's
  /// slot values), at the template level only (PlanCache::LookupTemplate).
  /// A hit never lexes and never touches L1; a miss plans and publishes
  /// under `tmpl` alone. The router's peers and its backend tier
  /// (`match_views` false: every operand fetched remotely) come from here.
  ///
  /// `priced_like` (the anchor's entry) keeps the returned plan's est_cost
  /// comparable with it: a value-generic entry built from other literals is
  /// a miss, and a miss plans `priced_like->creation_sql` rather than `sql`
  /// (unless that plan comes out bound to literals other than `params`).
  Result<CachedPlan> LookupOrPlan(std::string_view sql, std::string_view tmpl,
                                  const std::vector<Value>& params,
                                  DegradeMode degrade, bool timeordered,
                                  bool match_views,
                                  const PlanCacheEntry* priced_like);

  /// A fresh, unpublished entry for a parsed statement behaving under
  /// `degrade`, with no bind parameters: the fleet router's AST entry
  /// (RouteSelect), on every node and, with `match_views` false, for its
  /// backend tier.
  Result<std::shared_ptr<PlanCacheEntry>> NewEntry(const SelectStmt& stmt,
                                                   DegradeMode degrade,
                                                   bool match_views) const;

  /// Declared at namespace scope so it can default the argument below.
  using PreparedExecOptions = rcc::PreparedExecOptions;
  /// Executes a prepared plan.
  Result<CacheQueryOutcome> ExecutePrepared(
      const QueryPlan& plan, const PreparedExecOptions& opts = {});

  /// -- concurrent batch mode ---------------------------------------------------

  /// Enters concurrent-batch mode (`RccSystem::ExecuteConcurrent`). While
  /// active: (a) the remote channel is serialized behind a mutex
  /// (policy/injector state is single-threaded); (b) resilience-policy waits
  /// stop advancing the simulation scheduler, freezing the virtual clock so
  /// every query in the batch observes the same instant. Queries need no
  /// region locks at all: each pins an epoch and reads immutable published
  /// snapshots (DESIGN.md §13). The scheduler must only be run between
  /// batches (the determinism contract; see DESIGN.md §8).
  ///
  /// Begin/End are *counted*, not a flag: the network server holds
  /// concurrent-batch mode for its whole lifetime while a connection's
  /// Session::ExecuteBatch opens a nested batch inside it — with a bool,
  /// the inner End would have switched the still-running server back to
  /// serial mode (unlocked remote channel, clock allowed to advance).
  void BeginConcurrentBatch() {
    concurrent_batch_depth_.fetch_add(1, std::memory_order_acq_rel);
  }
  void EndConcurrentBatch() {
    concurrent_batch_depth_.fetch_sub(1, std::memory_order_acq_rel);
  }
  bool in_concurrent_batch() const {
    return concurrent_batch_depth_.load(std::memory_order_acquire) > 0;
  }

  /// The shared epoch manager (read-only use: leak checks assert
  /// `MinPinnedEpoch() == current_epoch()` once all readers finished).
  const SnapshotEpochManager& epoch_manager() const { return *epochs_; }

  /// -- accessors -------------------------------------------------------------------
  const Catalog& catalog() const { return catalog_; }
  BackendServer* backend() const { return backend_; }
  CurrencyRegion* region(RegionId cid);
  const CurrencyRegion* region(RegionId cid) const;
  /// The named view in its region's *current* snapshot; the shared_ptr keeps
  /// it alive across subsequent publishes. nullptr when unknown.
  std::shared_ptr<const MaterializedView> view(std::string_view name) const;
  const std::vector<std::unique_ptr<DistributionAgent>>& agents() const {
    return agents_;
  }
  /// Local heartbeat value for a region (the currency-guard input); nullopt
  /// when the region is unknown — guards must treat that as "freshness not
  /// certifiable", not as stale-since-simulation-start — or when the region
  /// is quarantined/resyncing: a quarantine withdraws the certified
  /// heartbeat, so guards refuse and SET DEGRADE refuses too.
  std::optional<SimTimeMs> LocalHeartbeat(RegionId cid) const;

  /// Replication-pipeline health of a region; kHealthy for unknown regions
  /// (the unknown-ness already surfaces through LocalHeartbeat).
  RegionHealth RegionHealthOf(RegionId cid) const;

  const CostParams& costs() const { return costs_; }
  OptimizerOptions default_options() const;

  /// The parameterized plan cache sessions consult before parsing. Owned
  /// here (not per session) so all sessions share plans and one invalidation
  /// covers everyone.
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// The cache's read handle: one per statement execution (not
  /// thread-safe), built on the stack with no allocation. Every region the
  /// statement touches is read through one SnapshotPin, so the guard probe,
  /// every scan and the audit epoch of a region see one published version;
  /// the pinned epoch is released when the reader dies. ExecutePrepared
  /// makes one per statement; benches and tests that drive the executor
  /// directly make their own.
  class Reader final : public ReadHandle {
   public:
    explicit Reader(const CacheDbms* cache)
        : cache_(cache), pin_(cache->epochs_.get()) {}

    const Table* ScanTable(const ScanTarget& target) override;
    const RegionSnapshot* Snapshot(RegionId region) override;
    void RefreshUnlessServed(RegionId region) override;
    void MarkServed(RegionId region) override { pin_.MarkServed(region); }
    /// One remote execution through the configured stack: policy (if any)
    /// over injector (if any) over BackendServer::Execute.
    Result<ExecutedQuery> ExecuteRemote(const BackendCall& call,
                                        const ExecContext& ctx) override;

   private:
    const CacheDbms* cache_;
    SnapshotPin pin_;
  };

  /// -- observability -----------------------------------------------------------

  /// Points the cache at a metrics registry (usually the owning system's).
  /// Instrument pointers are resolved once here, so per-query recording never
  /// takes the registry lock. Pass nullptr to stop recording. See DESIGN.md
  /// §9 for the metric name vocabulary.
  void SetMetricsRegistry(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics_registry() const { return metrics_; }

  /// Points the cache at an execution-audit sink (the simulation harness's
  /// history recorder). While set, every query, serve decision, guard probe,
  /// replication install, and health transition is reported. Install before
  /// defining regions so their initial population is part of the history;
  /// regions already defined are reported retroactively at their current
  /// state. Pass nullptr to stop recording.
  void SetHistorySink(HistorySink* sink);
  HistorySink* history_sink() const { return sink_; }

 private:
  /// Registry-resolved instruments, null when no registry is installed. All
  /// are atomically updatable, so concurrent-batch workers record directly.
  struct Instruments {
    obs::Counter* queries = nullptr;
    /// One per kStatCounters entry (cache_dbms.cc), in its order.
    std::array<obs::Counter*, 9> stat_counters{};
    obs::Counter* replication_deliveries = nullptr;
    obs::Counter* replication_quarantines = nullptr;
    obs::Counter* replication_resyncs = nullptr;
    obs::Histogram* query_run_ms = nullptr;
    obs::Histogram* served_staleness_ms = nullptr;
  };

  /// LookupOrPlan's miss path for one text: parse (with literal offsets),
  /// Prepare (view matching per `match_views`) and parameterize against
  /// `norm`'s slots; not yet published.
  Result<std::shared_ptr<PlanCacheEntry>> PlanText(
      std::string_view sql, const NormalizedSql& norm, DegradeMode degrade,
      bool timeordered, bool match_views) const;

  /// Folds one finished query's stats into the registry instruments.
  void RecordQueryMetrics(const ExecStats& stats, SimTimeMs now) const;

  /// Reports `region`'s current snapshot to the sink as its initial install.
  void ReportInitialInstall(RegionId cid, const CurrencyRegion& region) const;

  /// Sets `rcc.replication.region_health.<cid>` (no-op without a registry).
  void SetHealthGauge(RegionId cid, RegionHealth health) const;

  /// DistributionAgent callback: counts the delivery and records it into
  /// the traced serial-mode statement in flight, if any.
  void OnDelivery(RegionId region, SimTimeMs at, int64_t ops,
                  std::optional<SimTimeMs> heartbeat);

  /// DistributionAgent health callback: updates the per-region health gauge
  /// (`rcc.replication.region_health.<cid>`), the quarantine/resync
  /// counters, and records the transition like OnDelivery.
  void OnHealthChange(RegionId region, RegionHealth from, RegionHealth to,
                      SimTimeMs at);

  /// The attempt function feeding the policy layer (injector-wrapped or
  /// plain back-end).
  RemoteAttemptFn MakeAttemptFn() const;
  BackendServer* backend_;
  SimulationScheduler* scheduler_;
  CostParams costs_;
  Catalog catalog_;
  /// Lower-cased view name → owning region. The views themselves live inside
  /// the regions' published snapshots.
  std::map<std::string, RegionId> view_regions_;
  std::map<RegionId, std::unique_ptr<CurrencyRegion>> regions_;
  /// Shared by every region, so one query pin covers all regions it reads.
  std::shared_ptr<SnapshotEpochManager> epochs_ =
      std::make_shared<SnapshotEpochManager>();
  std::vector<std::unique_ptr<DistributionAgent>> agents_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<ResilientRemoteExecutor> remote_policy_;
  /// Replication fault config applied to every agent (present regions and
  /// ones defined later); nullopt = fault-free replication.
  std::optional<ReplicationFaultConfig> replication_faults_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments inst_;
  PlanCache plan_cache_;
  HistorySink* sink_ = nullptr;
  /// Stream of the traced serial-mode statement currently executing;
  /// deliveries and health transitions landing while the policy waits are
  /// recorded into it. Never set in concurrent-batch mode (the frozen clock
  /// means no deliveries fire mid-batch, and workers would race on one
  /// pointer).
  EventStream* active_events_ = nullptr;
  /// Serializes the remote channel (policy retries/breaker, injector RNG,
  /// back-end executor stats are all single-threaded state).
  mutable std::mutex remote_mutex_;
  /// Nesting depth of BeginConcurrentBatch (see its comment).
  std::atomic<int> concurrent_batch_depth_{0};
};

}  // namespace rcc

#endif  // RCC_CACHE_CACHE_DBMS_H_
