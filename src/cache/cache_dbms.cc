#include "cache/cache_dbms.h"

#include <utility>

#include "common/strings.h"
#include "semantics/resolver.h"
#include "sql/parser.h"

namespace rcc {

namespace {

/// The ExecStats counters every query adds to the registry.
constexpr std::pair<const char*, int64_t ExecStats::*> kStatCounters[] = {
    {"rcc.switch.local", &ExecStats::switch_local},
    {"rcc.switch.remote", &ExecStats::switch_remote},
    {"rcc.switch.remote_attempted", &ExecStats::switch_remote_attempted},
    {"rcc.remote.retries", &ExecStats::remote_retries},
    {"rcc.remote.timeouts", &ExecStats::remote_timeouts},
    {"rcc.remote.breaker_opens", &ExecStats::breaker_opens},
    {"rcc.degrade.serves", &ExecStats::degraded_serves},
    {"rcc.degrade.shed_serves", &ExecStats::shed_serves},
    {"rcc.cache.deadline_timeouts", &ExecStats::deadline_timeouts}};

}  // namespace

Status CacheDbms::CreateShadow() {
  for (const std::string& name : backend_->catalog().TableNames()) {
    const TableDef* def = backend_->catalog().FindTable(name);
    RCC_RETURN_NOT_OK(catalog_.AddTable(*def));
    catalog_.SetStats(name, backend_->catalog().GetStats(name));
  }
  plan_cache_.Invalidate();
  return Status::OK();
}

Status CacheDbms::DefineRegion(const RegionDef& def) {
  RCC_RETURN_NOT_OK(catalog_.AddRegion(def));
  auto region = std::make_unique<CurrencyRegion>(def, epochs_);
  // The initial population reflects the back-end as of "now".
  region->set_local_heartbeat(backend_->clock()->Now());
  region->set_as_of(backend_->oracle().last_committed());
  region->set_applied_log_pos(backend_->log().size());
  auto agent = std::make_unique<DistributionAgent>(
      region.get(), &backend_->log(), &backend_->heartbeat(), scheduler_);
  agent->set_delivery_observer(
      [this](RegionId cid, SimTimeMs at, int64_t ops,
             std::optional<SimTimeMs> hb) { OnDelivery(cid, at, ops, hb); });
  agent->set_health_observer(
      [this](RegionId cid, RegionHealth from, RegionHealth to,
             SimTimeMs at) { OnHealthChange(cid, from, to, at); });
  // Resync snapshots come straight from the back-end masters — the same
  // source the initial view population used.
  agent->set_master_table_provider(
      [this](const std::string& table) { return backend_->table(table); });
  // Wired unconditionally (the lambda no-ops without a sink), so a sink
  // installed later still sees deliveries of regions defined earlier.
  agent->set_install_observer(
      [this](RegionId cid, SimTimeMs at, TxnTimestamp as_of, SimTimeMs hb,
             int64_t ops, bool resync) {
        if (sink_ == nullptr) return;
        sink_->OnInstall({.kind = resync ? InstallObservation::Kind::kResync
                                         : InstallObservation::Kind::kDelivery,
                          .region = cid,
                          .at = at,
                          .as_of = as_of,
                          .heartbeat = hb,
                          .ops = ops});
      });
  if (replication_faults_.has_value()) {
    ReplicationFaultConfig cfg = *replication_faults_;
    cfg.seed += static_cast<uint64_t>(def.cid);
    agent->SetFaultConfig(cfg);
  }
  agent->Start(backend_->clock()->Now() + def.update_interval);
  backend_->RegisterRegionHeartbeat(def, scheduler_);
  SetHealthGauge(def.cid, region->health());
  if (sink_ != nullptr) ReportInitialInstall(def.cid, *region);
  regions_[def.cid] = std::move(region);
  agents_.push_back(std::move(agent));
  plan_cache_.Invalidate();
  return Status::OK();
}

Status CacheDbms::CreateView(const ViewDef& def) {
  RCC_RETURN_NOT_OK(catalog_.AddView(def));
  const TableDef* source = catalog_.FindTable(def.source_table);
  RCC_ASSIGN_OR_RETURN(auto view, MaterializedView::Create(def, *source));
  const Table* master = backend_->table(def.source_table);
  if (master == nullptr) {
    return Status::NotFound("master table " + def.source_table + " missing");
  }
  view->PopulateFrom(*master);
  // Secondary indexes declared on the view.
  for (const IndexDef& idx : def.secondary_indexes) {
    std::vector<size_t> cols =
        Catalog::ResolveColumns(view->schema(), idx.columns);
    RCC_RETURN_NOT_OK(
        view->mutable_data().CreateSecondaryIndex(idx.name, std::move(cols)));
  }
  auto rit = regions_.find(def.region);
  if (rit == regions_.end()) {
    return Status::NotFound("region " + std::to_string(def.region) +
                            " not defined");
  }
  // The view is fully built (populated + indexed) before it enters the
  // region's published snapshot; from here on it is immutable and only
  // replaced wholesale by delivery/resync clones.
  rit->second->AddView(std::shared_ptr<MaterializedView>(std::move(view)));
  view_regions_[ToLower(def.name)] = def.region;
  plan_cache_.Invalidate();
  return Status::OK();
}

Status CacheDbms::CreateLogicalView(const std::string& name,
                                    const std::string& sql) {
  RCC_RETURN_NOT_OK(catalog_.AddLogicalView(name, sql));
  plan_cache_.Invalidate();
  return Status::OK();
}

Status CacheDbms::UpdateStatistics(const std::string& table,
                                   TableStats stats) {
  if (catalog_.FindTable(table) == nullptr) {
    return Status::NotFound("table " + table + " not in catalog");
  }
  catalog_.SetStats(table, stats);
  // The Eq. 1 local-vs-remote decision is priced off these statistics; any
  // plan chosen under the old numbers may no longer be the winner (or worse,
  // may seek an index whose selectivity estimate changed shape).
  plan_cache_.Invalidate();
  return Status::OK();
}

RemoteAttemptFn CacheDbms::MakeAttemptFn() const {
  auto inner = [this](const BackendCall& call) {
    return backend_->Execute(call);
  };
  if (fault_injector_ != nullptr) return fault_injector_->Wrap(inner);
  // Healthy link: an attempt is just the back-end call, zero latency.
  return [inner](const BackendCall& call) {
    RemoteAttempt attempt;
    Result<ExecutedQuery> r = inner(call);
    attempt.status = r.ok() ? Status::OK() : r.status();
    if (r.ok()) attempt.data = std::move(r).value();
    return attempt;
  };
}

void CacheDbms::SetFaultInjector(FaultInjectorConfig config) {
  fault_injector_ =
      std::make_unique<FaultInjector>(std::move(config), backend_->clock());
  if (remote_policy_ != nullptr) remote_policy_->set_attempt(MakeAttemptFn());
}

void CacheDbms::ClearFaultInjector() {
  fault_injector_.reset();
  if (remote_policy_ != nullptr) remote_policy_->set_attempt(MakeAttemptFn());
}

void CacheDbms::SetRemotePolicy(RemotePolicy policy) {
  // Waiting (attempt latency, retry backoff) runs the simulation forward, so
  // heartbeats and replication deliveries land while the policy waits. In
  // concurrent-batch mode the wait is a no-op instead: the scheduler is not
  // thread-safe and the virtual clock stays frozen for the whole batch, so
  // retries collapse to one instant of virtual time (the documented
  // null-WaitFn behaviour of ResilientRemoteExecutor).
  remote_policy_ = std::make_unique<ResilientRemoteExecutor>(
      policy, MakeAttemptFn(), backend_->clock(), [this](SimTimeMs delta) {
        if (in_concurrent_batch()) return;
        scheduler_->RunUntil(scheduler_->clock()->Now() + delta);
      });
}

void CacheDbms::ClearRemotePolicy() { remote_policy_.reset(); }

void CacheDbms::SetReplicationFaults(ReplicationFaultConfig config) {
  replication_faults_ = config;
  for (auto& agent : agents_) {
    // Per-region seed offset: the regions draw independent fault schedules
    // while one top-level seed still reproduces the whole run.
    ReplicationFaultConfig cfg = config;
    cfg.seed += static_cast<uint64_t>(agent->region()->id());
    agent->SetFaultConfig(cfg);
  }
}

void CacheDbms::ClearReplicationFaults() {
  replication_faults_.reset();
  for (auto& agent : agents_) agent->ClearFaultConfig();
}

OptimizerOptions CacheDbms::default_options() const {
  OptimizerOptions opts;
  opts.mode = PlanMode::kCache;
  opts.costs = costs_;
  // Plan against live pipeline health: a quarantined region is priced
  // remote-only instead of betting on a guard that cannot pass.
  opts.region_health = [this](RegionId cid) { return RegionHealthOf(cid); };
  return opts;
}

Result<QueryPlan> CacheDbms::Prepare(const SelectStmt& stmt) const {
  return Prepare(stmt, default_options());
}

Result<QueryPlan> CacheDbms::Prepare(const SelectStmt& stmt,
                                     const OptimizerOptions& opts) const {
  RCC_ASSIGN_OR_RETURN(ResolvedQuery resolved, ResolveQuery(stmt, catalog_));
  return Optimize(std::move(resolved), catalog_, opts);
}

Result<std::shared_ptr<PlanCacheEntry>> CacheDbms::NewEntry(
    const SelectStmt& stmt, DegradeMode degrade, bool match_views) const {
  OptimizerOptions opts = default_options();
  opts.enable_view_matching = match_views;
  RCC_ASSIGN_OR_RETURN(QueryPlan plan, Prepare(stmt, opts));
  auto entry = std::make_shared<PlanCacheEntry>();
  entry->plan = std::make_shared<QueryPlan>(std::move(plan));
  entry->created_degrade = degrade;
  return entry;
}

Result<std::shared_ptr<PlanCacheEntry>> CacheDbms::PlanText(
    std::string_view sql, const NormalizedSql& norm, DegradeMode degrade,
    bool timeordered, bool match_views) const {
  ParseOptions popts;
  popts.record_literal_offsets = true;
  RCC_ASSIGN_OR_RETURN(auto select, ParseSelect(sql, popts));
  OptimizerOptions opts = default_options();
  opts.enable_view_matching = match_views;
  RCC_ASSIGN_OR_RETURN(QueryPlan plan, Prepare(*select, opts));
  auto entry = std::make_shared<PlanCacheEntry>();
  if (norm.ok) {
    entry->parameterized = ParameterizePlan(&plan, norm.slots, catalog_);
    for (const ParamSlot& slot : norm.slots) {
      entry->creation_values.push_back(slot.value);
    }
    entry->template_text = norm.text;
  }
  entry->plan = std::make_shared<QueryPlan>(std::move(plan));
  entry->created_degrade = degrade;
  entry->creation_sql = std::string(sql);
  entry->created_timeordered = timeordered;
  return entry;
}

Result<CachedPlan> CacheDbms::LookupOrPlan(std::string_view sql,
                                           DegradeMode degrade,
                                           bool timeordered) {
  PlanCache::LookupResult looked =
      plan_cache_.Lookup(sql, degrade, timeordered);
  if (looked.hit.has_value()) {
    return CachedPlan{std::move(looked.hit->entry),
                      std::move(looked.hit->params), /*hit=*/true};
  }
  RCC_ASSIGN_OR_RETURN(
      std::shared_ptr<PlanCacheEntry> entry,
      PlanText(sql, looked.norm, degrade, timeordered, /*match_views=*/true));
  plan_cache_.Insert(looked.norm, sql, degrade, timeordered, entry,
                     looked.version_at_lookup);
  std::vector<Value> params;
  for (const ParamSlot& slot : looked.norm.slots) params.push_back(slot.value);
  return CachedPlan{std::move(entry), std::move(params), /*hit=*/false};
}

Result<CachedPlan> CacheDbms::LookupOrPlan(std::string_view sql,
                                           std::string_view tmpl,
                                           const std::vector<Value>& params,
                                           DegradeMode degrade,
                                           bool timeordered, bool match_views,
                                           const PlanCacheEntry* priced_like) {
  const std::string key =
      PlanCache::ContextKey(tmpl, degrade, timeordered, match_views);
  // A value-generic entry priced at other literals than `priced_like`'s is
  // a miss: a caller comparing costs across caches needs one set.
  PlanCache::LookupResult looked = plan_cache_.LookupTemplate(
      key, params, [priced_like](const PlanCacheEntry& e) {
        return priced_like == nullptr || !e.parameterized ||
               e.creation_values == priced_like->creation_values;
      });
  if (looked.hit.has_value()) {
    return CachedPlan{std::move(looked.hit->entry), params, /*hit=*/true};
  }
  std::shared_ptr<PlanCacheEntry> entry;
  if (priced_like != nullptr) {
    const std::string& text = priced_like->creation_sql;
    RCC_ASSIGN_OR_RETURN(entry, PlanText(text, NormalizeSql(text), degrade,
                                         timeordered, match_views));
    // Bound to the reference's literals, the plan cannot run this text's.
    if (!entry->parameterized && entry->creation_values != params) {
      entry = nullptr;
    }
  }
  if (entry == nullptr) {
    RCC_ASSIGN_OR_RETURN(entry, PlanText(sql, NormalizeSql(sql), degrade,
                                         timeordered, match_views));
  }
  plan_cache_.InsertTemplate(key, entry, looked.version_at_lookup);
  return CachedPlan{std::move(entry), params, /*hit=*/false};
}

const Table* CacheDbms::Reader::ScanTable(const ScanTarget& target) {
  if (!target.is_view) return nullptr;  // no base tables on the cache
  std::string lower = ToLower(target.name);
  auto it = cache_->view_regions_.find(lower);
  if (it == cache_->view_regions_.end()) return nullptr;
  const CurrencyRegion* r = cache_->region(it->second);
  if (r == nullptr) return nullptr;
  const MaterializedView* v = pin_.Acquire(r)->FindView(lower);
  return v == nullptr ? nullptr : &v->data();
}

const RegionSnapshot* CacheDbms::Reader::Snapshot(RegionId region) {
  const CurrencyRegion* r = cache_->region(region);
  return r == nullptr ? nullptr : pin_.Acquire(r);
}

void CacheDbms::Reader::RefreshUnlessServed(RegionId region) {
  const CurrencyRegion* r = cache_->region(region);
  if (r != nullptr) pin_.Refresh(r);
}

Result<ExecutedQuery> CacheDbms::Reader::ExecuteRemote(
    const BackendCall& call, const ExecContext& ctx) {
  // The whole remote stack (breaker state, injector RNG, back-end executor
  // counters) is single-threaded; workers of a concurrent batch take turns.
  // Serial mode skips the lock: it is single-threaded by contract, and the
  // policy's wait pumps the scheduler (replication deliveries take region
  // data locks exclusively), so holding the channel mutex across the pump
  // would order channel-before-region — the reverse of a concurrent worker,
  // which opens its remote branch while holding region locks shared. The
  // modes never overlap, but the lock-order cycle is real enough for tsan.
  std::unique_lock<std::mutex> channel_guard(cache_->remote_mutex_,
                                             std::defer_lock);
  if (cache_->in_concurrent_batch()) channel_guard.lock();
  if (cache_->remote_policy_ != nullptr) {
    return cache_->remote_policy_->Execute(call, ctx.events, ctx.deadline);
  }
  // No policy: one bare attempt over the injector, if any. Its latency is
  // not waited on, and a failure surfaces immediately.
  RemoteAttempt attempt = cache_->MakeAttemptFn()(call);
  if (!attempt.status.ok()) return attempt.status;
  return std::move(attempt.data);
}

Result<CacheQueryOutcome> CacheDbms::ExecutePrepared(
    const QueryPlan& plan, const PreparedExecOptions& opts) {
  CacheQueryOutcome out;
  EventStream own;
  EventStream& events = opts.events != nullptr ? *opts.events : own;
  uint64_t query_id = 0;
  if (sink_ != nullptr) {
    query_id = opts.history_query_id != 0
                   ? opts.history_query_id
                   : sink_->BeginQuery(backend_->clock()->Now());
  }
  events.BeginExecution(sink_, query_id);
  ExecContext ctx;
  ctx.clock = backend_->clock();
  ctx.events = &events;
  ctx.degrade = opts.degrade;
  ctx.deadline = opts.deadline;
  ctx.shed_hint = opts.shed_hint;
  ctx.timeline_floor_ms = opts.timeline_floor;
  ctx.params = opts.params;
  // Serial mode only: expose a traced stream to the delivery and health
  // observers, so replication events landing while the policy waits show up
  // in the trace. A concurrent batch freezes the virtual clock (no
  // deliveries fire), and one shared pointer would race across workers.
  const bool expose = events.traced() && !in_concurrent_batch();
  if (expose) active_events_ = &events;
  Result<ExecutedQuery> executed = ExecutedQuery();
  {
    // No region locks in either mode: the reader's SnapshotPin gives every
    // scan an immutable published snapshot, so a delivery can never mutate a
    // view mid-scan — and a delivery to any region proceeds while this plan
    // runs, merely deferring reclamation of versions the pin still covers.
    // The pin dies with this scope, before the answer bookkeeping below: a
    // cancelled or failed statement must not hold its pinned epoch (and
    // thereby defer snapshot reclamation) a moment longer — the epoch-leak
    // invariant (MinPinnedEpoch == current_epoch once idle) holds the moment
    // the statement stops executing.
    Reader reader(this);
    ctx.reader = &reader;
    executed = ExecutePlan(plan, &ctx);
    ctx.reader = nullptr;
  }
  if (expose) active_events_ = nullptr;
  out.stats = events.stats();
  // Failed queries still spent retries / tripped the breaker; the registry
  // counts them too.
  RecordQueryMetrics(out.stats, backend_->clock()->Now());
  if (sink_ != nullptr) {
    AnswerObservation ans;
    ans.query_id = query_id;
    ans.session = opts.session_tag;
    ans.at = backend_->clock()->Now();
    ans.ok = executed.ok();
    // Audited under the session's *current* mode, not the mode the plan
    // behaves under: the two only diverge when a stale cached plan is
    // served across a SET DEGRADE change, which is exactly what the
    // conformance oracle must see (DESIGN.md §12).
    ans.degrade_mode =
        static_cast<int>(opts.audit_degrade.value_or(opts.degrade));
    ans.floor_before = opts.timeline_floor;
    ans.max_seen_heartbeat = out.stats.max_seen_heartbeat;
    ans.degraded = out.stats.degraded_serves > 0;
    ans.degraded_staleness_ms = out.stats.degraded_staleness_ms;
    ans.rows = out.stats.rows_returned;
    for (const ResolvedOperand& op : plan.resolved.operands) {
      ans.operand_tables.push_back(op.table != nullptr ? op.table->name
                                                       : std::string());
    }
    for (const CcTuple& t : plan.resolved.constraint.tuples) {
      ans.tuples.emplace_back(
          t.bound_ms,
          std::vector<InputOperandId>(t.operands.begin(), t.operands.end()));
    }
    if (!executed.ok()) ans.error = executed.status().ToString();
    sink_->OnAnswer(ans);
  }
  if (!executed.ok()) return executed.status();
  out.result = std::move(executed).value();
  out.shape = plan.Shape();
  out.constraint = plan.resolved.constraint;
  out.executed_at = backend_->clock()->Now();
  return out;
}

void CacheDbms::SetMetricsRegistry(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    inst_ = Instruments();
    plan_cache_.SetInstruments(nullptr, nullptr, nullptr, nullptr);
    return;
  }
  inst_.queries = registry->counter("rcc.cache.queries");
  static_assert(std::size(kStatCounters) ==
                std::tuple_size_v<decltype(inst_.stat_counters)>);
  for (size_t i = 0; i < std::size(kStatCounters); ++i) {
    inst_.stat_counters[i] = registry->counter(kStatCounters[i].first);
  }
  inst_.replication_deliveries =
      registry->counter("rcc.replication.deliveries");
  inst_.replication_quarantines =
      registry->counter("rcc.replication.quarantines");
  inst_.replication_resyncs = registry->counter("rcc.replication.resyncs");
  // Per-region health gauges exist from installation on (value = the
  // RegionHealth enum), so a dump shows healthy regions explicitly instead
  // of omitting them.
  for (const auto& [cid, region] : regions_) {
    SetHealthGauge(cid, region->health());
  }
  inst_.query_run_ms = registry->histogram("rcc.cache.query_run_ms");
  inst_.served_staleness_ms =
      registry->histogram("rcc.cache.served_staleness_ms");
  plan_cache_.SetInstruments(
      registry->counter("rcc.plancache.hits"),
      registry->counter("rcc.plancache.misses"),
      registry->counter("rcc.plancache.invalidations"),
      registry->histogram("rcc.plancache.lookup_ms"));
}

void CacheDbms::RecordQueryMetrics(const ExecStats& stats,
                                   SimTimeMs now) const {
  if (inst_.queries == nullptr) return;
  inst_.queries->Add(1);
  for (size_t i = 0; i < std::size(kStatCounters); ++i) {
    inst_.stat_counters[i]->Add(stats.*kStatCounters[i].second);
  }
  inst_.query_run_ms->Observe(stats.run_ms);
  // Staleness of what the query served: virtual now minus the highest source
  // snapshot it read. Remote-served queries land in the 0 bucket.
  if (stats.max_seen_heartbeat >= 0) {
    inst_.served_staleness_ms->Observe(
        static_cast<double>(now - stats.max_seen_heartbeat));
  }
}

void CacheDbms::OnDelivery(RegionId region, SimTimeMs at, int64_t ops,
                           std::optional<SimTimeMs> heartbeat) {
  if (inst_.replication_deliveries != nullptr) {
    inst_.replication_deliveries->Add(1);
  }
  // Deliveries run on the scheduler, which in serial mode is driven from the
  // executing query's thread (policy waits) — so the pointer read is safe.
  if (active_events_ != nullptr) {
    active_events_->Record(DeliveryRecord{region, at, ops, heartbeat});
  }
}

CurrencyRegion* CacheDbms::region(RegionId cid) {
  auto it = regions_.find(cid);
  return it == regions_.end() ? nullptr : it->second.get();
}

const CurrencyRegion* CacheDbms::region(RegionId cid) const {
  auto it = regions_.find(cid);
  return it == regions_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const MaterializedView> CacheDbms::view(
    std::string_view name) const {
  std::string lower = ToLower(name);
  auto it = view_regions_.find(lower);
  if (it == view_regions_.end()) return nullptr;
  const CurrencyRegion* r = region(it->second);
  return r == nullptr ? nullptr : r->view(lower);
}

std::optional<SimTimeMs> CacheDbms::LocalHeartbeat(RegionId cid) const {
  const CurrencyRegion* r = region(cid);
  if (r == nullptr) return std::nullopt;
  // The *certified* heartbeat: nullopt while the region is quarantined or
  // resyncing, so guards refuse instead of certifying freshness off a
  // heartbeat the replication pipeline withdrew.
  return r->certified_heartbeat();
}

RegionHealth CacheDbms::RegionHealthOf(RegionId cid) const {
  const CurrencyRegion* r = region(cid);
  return r == nullptr ? RegionHealth::kHealthy : r->health();
}

void CacheDbms::OnHealthChange(RegionId region, RegionHealth from,
                               RegionHealth to, SimTimeMs at) {
  // The optimizer prices quarantined regions remote-only
  // (OptimizerOptions::region_health), so a health transition can flip the
  // plan choice: drop cached plans. Guards still protect any in-flight
  // executions of the old plans — invalidation is about plan *quality*, the
  // refusal ladder is about correctness.
  plan_cache_.Invalidate();
  SetHealthGauge(region, to);
  if (to == RegionHealth::kQuarantined &&
      inst_.replication_quarantines != nullptr) {
    inst_.replication_quarantines->Add(1);
  }
  if (from == RegionHealth::kResyncing && to == RegionHealth::kHealthy &&
      inst_.replication_resyncs != nullptr) {
    inst_.replication_resyncs->Add(1);
  }
  // Transitions run on the scheduler thread, same as deliveries; see
  // OnDelivery for why the serial-mode stream pointer is safe to read here.
  if (active_events_ != nullptr) {
    active_events_->Record(HealthRecord{region, from, to, at});
  }
  if (sink_ != nullptr) sink_->OnHealth(region, from, to, at);
}

void CacheDbms::SetHistorySink(HistorySink* sink) {
  sink_ = sink;
  if (sink == nullptr) return;
  // Regions defined before the sink was installed: report their current
  // state as the initial install, so the oracle's per-region timeline starts
  // from known ground instead of an unexplained first delivery.
  for (const auto& [cid, region] : regions_) ReportInitialInstall(cid, *region);
}

void CacheDbms::ReportInitialInstall(RegionId cid,
                                     const CurrencyRegion& region) const {
  std::shared_ptr<const RegionSnapshot> snap = region.Snapshot();
  sink_->OnInstall({.kind = InstallObservation::Kind::kInitial,
                    .region = cid,
                    .at = backend_->clock()->Now(),
                    .as_of = snap->as_of,
                    .heartbeat = snap->heartbeat});
}

void CacheDbms::SetHealthGauge(RegionId cid, RegionHealth health) const {
  if (metrics_ == nullptr) return;
  metrics_
      ->gauge(StrPrintf("rcc.replication.region_health.%d",
                        static_cast<int>(cid)))
      ->Set(static_cast<double>(static_cast<int>(health)));
}

}  // namespace rcc
