// Replication-pipeline fault injection and the agent's defenses: duplicate /
// out-of-order / dropped / stalled / poisoned deliveries, the region health
// state machine (HEALTHY → SUSPECT → QUARANTINED → RESYNCING → HEALTHY),
// quarantine invalidating the certified heartbeat, and automatic resync from
// a back-end master snapshot. Registered with the `repl` and `tsan` ctest
// labels: the tsan preset runs the pooled-reader tests under ThreadSanitizer.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "replication/agent.h"
#include "replication/fault_injector.h"
#include "replication/heartbeat.h"
#include "replication/region.h"
#include "test_util.h"

namespace rcc {
namespace {

using testing_util::BookstoreFixture;
using testing_util::MustExecute;

TableDef ItemsDef() {
  TableDef def;
  def.name = "Items";
  def.schema = Schema({{"id", ValueType::kInt64},
                       {"cat", ValueType::kInt64},
                       {"price", ValueType::kDouble}});
  def.clustered_key = {"id"};
  return def;
}

ViewDef FullView(RegionId region = 1, const std::string& name = "items_copy") {
  ViewDef v;
  v.name = name;
  v.source_table = "Items";
  v.columns = {"id", "cat", "price"};
  v.region = region;
  return v;
}

Row ItemRow(int64_t id, int64_t cat, double price) {
  return {Value::Int(id), Value::Int(cat), Value::Double(price)};
}

// -- ReplicationFaultInjector -------------------------------------------------

TEST(ReplicationFaultInjectorTest, SameSeedSameFaultSchedule) {
  ReplicationFaultConfig config;
  config.seed = 77;
  config.drop_probability = 0.3;
  config.delay_probability = 0.3;
  config.delay_ms = 500;
  config.duplicate_probability = 0.3;
  ReplicationFaultInjector a(config);
  ReplicationFaultInjector b(config);
  for (int i = 0; i < 200; ++i) {
    DeliveryFate fa = a.DrawDeliveryFate(i * 100);
    DeliveryFate fb = b.DrawDeliveryFate(i * 100);
    EXPECT_EQ(fa.drop, fb.drop) << "draw " << i;
    EXPECT_EQ(fa.extra_delay_ms, fb.extra_delay_ms) << "draw " << i;
    EXPECT_EQ(fa.duplicate, fb.duplicate) << "draw " << i;
  }
  EXPECT_EQ(a.batches_dropped(), b.batches_dropped());
  EXPECT_EQ(a.batches_delayed(), b.batches_delayed());
  EXPECT_EQ(a.batches_duplicated(), b.batches_duplicated());
  EXPECT_GT(a.batches_dropped(), 0);
  EXPECT_GT(a.batches_delayed(), 0);
  EXPECT_GT(a.batches_duplicated(), 0);
}

TEST(ReplicationFaultInjectorTest, OutageWindowDropsEveryBatch) {
  ReplicationFaultConfig config;
  config.outages = {{1000, 2000}};
  ReplicationFaultInjector inj(config);
  EXPECT_FALSE(inj.DrawDeliveryFate(999).drop);
  EXPECT_TRUE(inj.DrawDeliveryFate(1000).drop);
  EXPECT_TRUE(inj.DrawDeliveryFate(1999).drop);
  EXPECT_FALSE(inj.DrawDeliveryFate(2000).drop);
  EXPECT_EQ(inj.outage_drops(), 2);
  EXPECT_EQ(inj.batches_dropped(), 2);
}

TEST(ReplicationFaultInjectorTest, PoisonPicksAnOpInsideTheBatch) {
  ReplicationFaultConfig config;
  config.poison_probability = 1.0;
  ReplicationFaultInjector inj(config);
  EXPECT_FALSE(inj.DrawPoisonedOp(0).has_value());  // empty batch: no poison
  for (int i = 0; i < 50; ++i) {
    auto at = inj.DrawPoisonedOp(7);
    ASSERT_TRUE(at.has_value());
    EXPECT_LT(*at, 7u);
  }
}

// -- DistributionAgent under faults ------------------------------------------

/// Mirrors AgentTest in replication_test.cpp, plus a master table that stays
/// the ground truth for every commit (for resync and bit-identity checks).
class FaultAgentTest : public ::testing::Test {
 protected:
  FaultAgentTest()
      : sched_(&clock_), items_(ItemsDef()), master_("Items", items_.schema,
                                                     {0}) {}

  void Setup(SimTimeMs f, SimTimeMs d, SimTimeMs hb_interval = 1000) {
    RegionDef def;
    def.cid = 1;
    def.update_interval = f;
    def.update_delay = d;
    def.heartbeat_interval = hb_interval;
    region_ = std::make_unique<CurrencyRegion>(def);
    auto view = MaterializedView::Create(FullView(), items_);
    ASSERT_TRUE(view.ok());
    region_->AddView(std::move(*view));
    agent_ = std::make_unique<DistributionAgent>(region_.get(), &log_,
                                                 &heartbeat_, &sched_);
    agent_->set_master_table_provider(
        [this](const std::string& name) -> const Table* {
          return ToLower(name) == "items" ? &master_ : nullptr;
        });
    agent_->set_health_observer([this](RegionId, RegionHealth from,
                                       RegionHealth to, SimTimeMs) {
      transitions_.push_back({from, to});
    });
    agent_->Start(f);
    sched_.SchedulePeriodic(hb_interval, hb_interval, [this](SimTimeMs now) {
      heartbeat_.Beat(1, now);
    });
  }

  /// Commits one random-ish mutation against the master and the log.
  void CommitRandom(Rng* rng) {
    SimTimeMs at = clock_.Now() + rng->Uniform(100, 3000);
    sched_.RunUntil(at);
    int64_t id = rng->Uniform(1, 30);
    Row row = ItemRow(id, rng->Uniform(0, 5),
                      static_cast<double>(rng->Uniform(1, 1000)));
    CommittedTxn txn;
    txn.id = ++last_ts_;
    txn.commit_time = clock_.Now();
    RowOp op;
    op.table = "Items";
    if (master_.Get({Value::Int(id)}) == nullptr) {
      op.kind = RowOp::Kind::kInsert;
      op.row = row;
      ASSERT_TRUE(master_.Insert(row).ok());
    } else if (rng->Uniform(0, 3) == 0) {
      op.kind = RowOp::Kind::kDelete;
      op.key = {Value::Int(id)};
      ASSERT_TRUE(master_.Delete({Value::Int(id)}).ok());
    } else {
      op.kind = RowOp::Kind::kUpdate;
      op.row = row;
      ASSERT_TRUE(master_.Update(row).ok());
    }
    txn.ops.push_back(std::move(op));
    log_.Append(std::move(txn));
  }

  void Commit(SimTimeMs at, int64_t id, double price) {
    sched_.RunUntil(at);
    Row row = ItemRow(id, 0, price);
    CommittedTxn txn;
    txn.id = ++last_ts_;
    txn.commit_time = at;
    RowOp op;
    op.table = "Items";
    if (master_.Get({Value::Int(id)}) == nullptr) {
      op.kind = RowOp::Kind::kInsert;
      ASSERT_TRUE(master_.Insert(row).ok());
    } else {
      op.kind = RowOp::Kind::kUpdate;
      ASSERT_TRUE(master_.Update(row).ok());
    }
    op.row = std::move(row);
    txn.ops.push_back(std::move(op));
    log_.Append(std::move(txn));
  }

  /// The invariant under every fault mix: a certified heartbeat T promises
  /// that everything committed at or before T has been applied — so the log
  /// position implied by T can never exceed the region's applied position.
  void CheckHeartbeatInvariant() {
    std::optional<SimTimeMs> hb = region_->certified_heartbeat();
    if (!hb.has_value()) return;  // quarantined: nothing is promised
    EXPECT_LE(log_.UpperBoundByCommitTime(*hb), region_->applied_log_pos())
        << "published heartbeat " << *hb << " promises data the region "
        << "never applied";
  }

  /// The region's *current* published view (delivery and resync publish
  /// fresh clones, so the originally added object goes stale).
  std::shared_ptr<const MaterializedView> View() const {
    return region_->view("items_copy");
  }

  void ExpectViewMatchesMaster() {
    auto view = View();
    EXPECT_EQ(view->data().num_rows(), master_.num_rows());
    master_.Scan([&](const Row& row) {
      const Row* replica = view->data().Get({row[0]});
      EXPECT_NE(replica, nullptr);
      if (replica != nullptr) {
        EXPECT_EQ(RowToString(*replica), RowToString(row));
      }
      return true;
    });
  }

  VirtualClock clock_;
  SimulationScheduler sched_;
  TableDef items_;
  Table master_;
  UpdateLog log_;
  HeartbeatStore heartbeat_;
  std::unique_ptr<CurrencyRegion> region_;
  std::unique_ptr<DistributionAgent> agent_;
  std::vector<std::pair<RegionHealth, RegionHealth>> transitions_;
  TxnTimestamp last_ts_ = 0;
};

TEST_F(FaultAgentTest, DuplicateDeliveriesAreIdempotent) {
  Setup(10000, 2000);
  ReplicationFaultConfig faults;
  faults.duplicate_probability = 1.0;
  agent_->SetFaultConfig(faults);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) CommitRandom(&rng);
  sched_.RunUntil(clock_.Now() + 30000);
  // Every batch arrived twice; the second copy's log range is already
  // applied, so it is a no-op — never a double-apply, never an anomaly.
  ExpectViewMatchesMaster();
  EXPECT_EQ(region_->health(), RegionHealth::kHealthy);
  EXPECT_GT(agent_->fault_injector()->batches_duplicated(), 0);
  CheckHeartbeatInvariant();
}

TEST_F(FaultAgentTest, OutOfOrderDeliveryIsRejectedNotApplied) {
  Setup(5000, 1000);
  // Half the batches arrive a full interval late, i.e. *after* the next
  // wakeup's batch: classic reordering.
  ReplicationFaultConfig faults;
  faults.seed = 11;
  faults.delay_probability = 0.5;
  faults.delay_ms = 7000;
  agent_->SetFaultConfig(faults);
  // Reordering alone must never quarantine a region into a full resync;
  // raise the threshold so this test exercises the monotonicity check only.
  agent_->set_quarantine_after(1 << 20);
  Rng rng(6);
  SimTimeMs prev_hb = 0;
  for (int i = 0; i < 60; ++i) {
    CommitRandom(&rng);
    CheckHeartbeatInvariant();
    // The published heartbeat is monotone even when arrivals are not.
    SimTimeMs hb = region_->local_heartbeat();
    EXPECT_GE(hb, prev_hb);
    prev_hb = hb;
  }
  sched_.RunUntil(clock_.Now() + 30000);
  // A late batch arriving behind the applied position was rejected whole;
  // the log-position check (not arrival order) kept application in commit
  // order, so the final state is exact.
  EXPECT_GT(agent_->stale_batches_rejected(), 0);
  ExpectViewMatchesMaster();
  CheckHeartbeatInvariant();
}

TEST_F(FaultAgentTest, DroppedBatchesSelfHealFromTheLog) {
  Setup(5000, 1000);
  ReplicationFaultConfig faults;
  faults.seed = 12;
  faults.drop_probability = 0.4;
  agent_->SetFaultConfig(faults);
  agent_->set_quarantine_after(1 << 20);
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    CommitRandom(&rng);
    CheckHeartbeatInvariant();
  }
  ASSERT_GT(agent_->fault_injector()->batches_dropped(), 0);
  // Stop dropping; the next delivery applies the whole gap from the log.
  agent_->ClearFaultConfig();
  sched_.RunUntil(clock_.Now() + 30000);
  ExpectViewMatchesMaster();
  EXPECT_EQ(region_->applied_log_pos(), log_.size());
  CheckHeartbeatInvariant();
}

TEST_F(FaultAgentTest, PoisonedBatchQuarantinesBeforeAnythingIsVisible) {
  Setup(10000, 2000);
  ReplicationFaultConfig faults;
  faults.poison_probability = 1.0;
  agent_->SetFaultConfig(faults);
  Commit(1000, 1, 9.9);
  Commit(2000, 2, 8.8);
  // Wakeup at 10000, poisoned delivery at 12000.
  sched_.RunUntil(12000);
  EXPECT_EQ(region_->health(), RegionHealth::kQuarantined);
  EXPECT_EQ(agent_->quarantines(), 1);
  // Nothing of the half-applied batch was published: position, snapshot and
  // heartbeat still describe the pre-batch state, and the certified
  // heartbeat is withdrawn so no guard can trust the region at all.
  EXPECT_EQ(region_->applied_log_pos(), 0u);
  EXPECT_FALSE(region_->certified_heartbeat().has_value());
  // Recovery: next wakeup (20000) enters RESYNCING, the snapshot lands
  // update_delay later, and the region is HEALTHY again with exact data —
  // bounded wakeups, not best-effort.
  agent_->ClearFaultConfig();
  sched_.RunUntil(22000);
  EXPECT_EQ(region_->health(), RegionHealth::kHealthy);
  EXPECT_EQ(agent_->resyncs(), 1);
  EXPECT_GT(agent_->resync_latency_total_ms(), 0);
  EXPECT_TRUE(region_->certified_heartbeat().has_value());
  EXPECT_EQ(region_->applied_log_pos(), log_.size());
  ExpectViewMatchesMaster();
  // The observer saw the full state machine walk.
  ASSERT_GE(transitions_.size(), 3u);
  EXPECT_EQ(transitions_.front().second, RegionHealth::kQuarantined);
  EXPECT_EQ(transitions_.back().first, RegionHealth::kResyncing);
  EXPECT_EQ(transitions_.back().second, RegionHealth::kHealthy);
}

TEST_F(FaultAgentTest, RepeatedAnomaliesEscalateThroughSuspect) {
  Setup(5000, 1000);
  ReplicationFaultConfig faults;
  faults.drop_probability = 1.0;
  agent_->SetFaultConfig(faults);
  agent_->set_quarantine_after(3);
  Commit(1000, 1, 1.0);
  // First two dropped wakeups: SUSPECT (heartbeat still certified — the
  // data is merely aging, not suspect of being wrong).
  sched_.RunUntil(10000);
  EXPECT_EQ(region_->health(), RegionHealth::kSuspect);
  EXPECT_TRUE(region_->certified_heartbeat().has_value());
  // Third consecutive anomaly crosses the threshold.
  sched_.RunUntil(15000);
  EXPECT_EQ(region_->health(), RegionHealth::kQuarantined);
  EXPECT_FALSE(region_->certified_heartbeat().has_value());
  // Drops keep happening, but recovery outranks the injector: wakeup 20000
  // enters RESYNCING, resync lands at 21000.
  sched_.RunUntil(21000);
  EXPECT_EQ(region_->health(), RegionHealth::kHealthy);
  ExpectViewMatchesMaster();
}

TEST_F(FaultAgentTest, StallStopsDeliveriesThenHeals) {
  Setup(5000, 1000);
  ReplicationFaultConfig faults;
  faults.stall_probability = 1.0;
  faults.stall_wakeups = 3;
  agent_->SetFaultConfig(faults);
  agent_->set_quarantine_after(3);
  Commit(1000, 1, 1.0);
  // Wakeups at 5000/10000/15000 all stall; the third anomaly quarantines.
  sched_.RunUntil(15000);
  EXPECT_EQ(agent_->fault_injector()->stalls(), 1);
  EXPECT_EQ(region_->health(), RegionHealth::kQuarantined);
  EXPECT_EQ(View()->data().num_rows(), 0u);
  // Recovery happens even though the injector would stall every wakeup:
  // quarantine checks recovery before drawing new stalls. Wakeup 20000
  // enters RESYNCING and the rebuilt snapshot lands at 21000.
  sched_.RunUntil(21500);
  EXPECT_EQ(region_->health(), RegionHealth::kHealthy);
  EXPECT_EQ(agent_->resyncs(), 1);
  ExpectViewMatchesMaster();
}

TEST_F(FaultAgentTest, InvariantHoldsUnderFullFaultMix) {
  Setup(5000, 1000, 500);
  ReplicationFaultConfig faults;
  faults.seed = 0xBADF00D;
  faults.drop_probability = 0.15;
  faults.delay_probability = 0.25;
  faults.delay_ms = 8000;  // > interval: reordering
  faults.duplicate_probability = 0.25;
  faults.stall_probability = 0.05;
  faults.stall_wakeups = 2;
  faults.poison_probability = 0.05;
  agent_->SetFaultConfig(faults);
  agent_->set_quarantine_after(3);
  Rng rng(8);
  for (int i = 0; i < 150; ++i) {
    CommitRandom(&rng);
    // The acceptance invariant: no certified heartbeat ever promises data
    // the region has not applied, under any interleaving of faults.
    CheckHeartbeatInvariant();
  }
  // Quiesce fault-free: every quarantine must resolve via resync and the
  // final state must be exact.
  agent_->ClearFaultConfig();
  sched_.RunUntil(clock_.Now() + 60000);
  EXPECT_EQ(region_->health(), RegionHealth::kHealthy);
  ExpectViewMatchesMaster();
  CheckHeartbeatInvariant();
}

TEST_F(FaultAgentTest, ResyncedRegionIsBitIdenticalToNeverFaultedTwin) {
  // Twin region 2 over the same log, fault-free, same schedule.
  Setup(5000, 1000);
  RegionDef def2;
  def2.cid = 2;
  def2.update_interval = 5000;
  def2.update_delay = 1000;
  def2.heartbeat_interval = 1000;
  auto region2 = std::make_unique<CurrencyRegion>(def2);
  auto view2_or = MaterializedView::Create(FullView(2, "items_copy2"), items_);
  ASSERT_TRUE(view2_or.ok());
  region2->AddView(std::move(*view2_or));
  DistributionAgent agent2(region2.get(), &log_, &heartbeat_, &sched_);
  agent2.Start(5000);

  ReplicationFaultConfig faults;
  faults.seed = 21;
  faults.drop_probability = 0.2;
  faults.poison_probability = 0.3;
  agent_->SetFaultConfig(faults);
  agent_->set_quarantine_after(2);
  Rng rng(9);
  for (int i = 0; i < 80; ++i) CommitRandom(&rng);
  EXPECT_GT(agent_->quarantines(), 0);
  // Quiesce: region 1 finishes its resync, region 2 just drains the log.
  agent_->ClearFaultConfig();
  sched_.RunUntil(clock_.Now() + 60000);
  ASSERT_EQ(region_->health(), RegionHealth::kHealthy);
  // Row-for-row identical replicas.
  auto mine_view = View();
  auto view2 = region2->view("items_copy2");
  EXPECT_EQ(mine_view->data().num_rows(), view2->data().num_rows());
  view2->data().Scan([&](const Row& row) {
    const Row* mine = mine_view->data().Get({row[0]});
    EXPECT_NE(mine, nullptr);
    if (mine != nullptr) {
      EXPECT_EQ(RowToString(*mine), RowToString(row));
    }
    return true;
  });
  ExpectViewMatchesMaster();
  agent2.Stop();
}

TEST_F(FaultAgentTest, StopCancelsInFlightEventsBeforeDestruction) {
  Setup(5000, 1000);
  Commit(1000, 1, 1.0);
  // A wakeup has fired and a delivery event sits in the queue for t=6000.
  sched_.RunUntil(5500);
  // Destroying the agent (dtor calls Stop) must cancel the queued delivery
  // and the periodic series: running the scheduler afterwards would
  // otherwise call into freed memory (asan-visible use-after-free).
  agent_.reset();
  region_.reset();
  sched_.RunUntil(60000);  // queued events are skipped, not dispatched
  SUCCEED();
}

// -- system level -------------------------------------------------------------

using testing_util::MustPrepare;

constexpr char kGuardedQuery[] =
    "SELECT title, price FROM Books WHERE isbn = 7 "
    "CURRENCY BOUND 60 SEC ON (Books)";

/// Drives bookstore update traffic through a session so the back-end log
/// grows while replication faults are active.
void CommitPriceUpdates(BookstoreFixture* fx, int n, SimTimeMs gap_ms) {
  for (int i = 0; i < n; ++i) {
    fx->sys.AdvanceBy(gap_ms);
    auto r = fx->session->Execute(
        "UPDATE Books SET price = " + std::to_string(10 + i % 7) +
        " WHERE isbn = " + std::to_string(1 + i % 50));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

/// Poisons region 1's next delivery and advances past it, asserting the
/// region ends up quarantined with its certified heartbeat withdrawn.
void ForceQuarantine(BookstoreFixture* fx) {
  ReplicationFaultConfig faults;
  faults.poison_probability = 1.0;
  fx->sys.cache()->SetReplicationFaults(faults);
  CommitPriceUpdates(fx, 3, 500);
  // Past the next wakeup + delivery of the 10s/2s region schedule.
  fx->sys.AdvanceBy(13000);
  ASSERT_EQ(fx->sys.cache()->RegionHealthOf(1), RegionHealth::kQuarantined);
  ASSERT_FALSE(fx->sys.cache()->LocalHeartbeat(1).has_value());
}

TEST(ReplicationFaultSystemTest, QuarantineWithdrawsHeartbeatAndGuardsRefuse) {
  BookstoreFixture fx(/*interval_ms=*/10000, /*delay_ms=*/2000);
  fx.sys.AdvanceTo(13000);  // first delivery landed; heartbeat certified
  QueryPlan plan = MustPrepare(fx.session.get(), kGuardedQuery);
  EXPECT_NE(plan.Shape(), PlanShape::kRemoteOnly);

  // Healthy: the guard passes and the local view serves.
  auto healthy = fx.sys.cache()->ExecutePrepared(plan);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->stats.switch_local, 1);
  EXPECT_EQ(healthy->stats.guard_quarantined_region, 0);

  ForceQuarantine(&fx);

  // Quarantined: the same plan's guard now sees an unknown heartbeat and
  // routes remote — the half-applied region is never served.
  obs::QueryTrace trace;
  EventStream events(&trace);
  PreparedExecOptions traced;
  traced.events = &events;
  auto outcome = fx.sys.cache()->ExecutePrepared(plan, traced);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.switch_local, 0);
  EXPECT_EQ(outcome->stats.switch_remote, 1);
  EXPECT_GE(outcome->stats.guard_unknown_region, 1);
  EXPECT_GE(outcome->stats.guard_quarantined_region, 1);
  // The guard probe records the pipeline health it saw.
  const obs::TraceEvent* probe =
      trace.FirstOf(obs::TraceEventKind::kGuardProbe);
  ASSERT_NE(probe, nullptr);
  EXPECT_NE(probe->detail.find("health=quarantined"), std::string::npos);

  // Even SET DEGRADE ALWAYS refuses a quarantined region when remote fails:
  // there is no staleness bound to annotate the answer with.
  FaultInjectorConfig outage;
  outage.outages = {{0, 1000000000}};
  fx.sys.cache()->SetFaultInjector(outage);
  PreparedExecOptions always;
  always.degrade = DegradeMode::kAlways;
  auto degraded = fx.sys.cache()->ExecutePrepared(plan, always);
  ASSERT_FALSE(degraded.ok());
  EXPECT_NE(degraded.status().ToString().find("quarantined"),
            std::string::npos);
  fx.sys.cache()->ClearFaultInjector();

  // Automatic recovery: next wakeup resyncs from the back-end masters and
  // the guard serves locally again.
  fx.sys.cache()->ClearReplicationFaults();
  fx.sys.AdvanceBy(15000);
  EXPECT_EQ(fx.sys.cache()->RegionHealthOf(1), RegionHealth::kHealthy);
  ASSERT_TRUE(fx.sys.cache()->LocalHeartbeat(1).has_value());
  auto recovered = fx.sys.cache()->ExecutePrepared(plan);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->stats.switch_local, 1);
}

TEST(ReplicationFaultSystemTest, OptimizerPricesQuarantinedRegionRemoteOnly) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(13000);
  QueryPlan before = MustPrepare(fx.session.get(), kGuardedQuery);
  EXPECT_NE(before.Shape(), PlanShape::kRemoteOnly);

  ForceQuarantine(&fx);
  // Re-planning now prices the region remote-only: the local placement is
  // discarded because its guard cannot pass until the resync completes.
  QueryPlan during = MustPrepare(fx.session.get(), kGuardedQuery);
  EXPECT_EQ(during.Shape(), PlanShape::kRemoteOnly);

  fx.sys.cache()->ClearReplicationFaults();
  fx.sys.AdvanceBy(15000);
  ASSERT_EQ(fx.sys.cache()->RegionHealthOf(1), RegionHealth::kHealthy);
  QueryPlan after = MustPrepare(fx.session.get(), kGuardedQuery);
  EXPECT_NE(after.Shape(), PlanShape::kRemoteOnly);
}

TEST(ReplicationFaultSystemTest, ExplainAnalyzeShowsRegionHealthAtGuardTime) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(13000);
  QueryResult r = MustExecute(fx.session.get(),
                              std::string("EXPLAIN ANALYZE ") + kGuardedQuery);
  EXPECT_NE(r.message.find("health=healthy"), std::string::npos);
  // The guard's decision line carries the health its probe saw.
  EXPECT_NE(r.message.find("actual: local health=healthy\n"),
            std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("quarantined_region="), std::string::npos);
}

TEST(ReplicationFaultSystemTest, MetricsExportHealthGaugeAndCounters) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(13000);
  ForceQuarantine(&fx);
  fx.sys.cache()->ClearReplicationFaults();
  fx.sys.AdvanceBy(15000);
  ASSERT_EQ(fx.sys.cache()->RegionHealthOf(1), RegionHealth::kHealthy);
  EXPECT_GE(fx.sys.metrics().counter("rcc.replication.quarantines")->value(),
            1);
  EXPECT_GE(fx.sys.metrics().counter("rcc.replication.resyncs")->value(), 1);
  // Gauge reflects the final state (healthy = 0); the fault-free region 2
  // has a gauge too.
  std::string json = fx.sys.metrics().ToJson();
  EXPECT_NE(json.find("rcc.replication.region_health.1"), std::string::npos);
  EXPECT_NE(json.find("rcc.replication.region_health.2"), std::string::npos);
}

TEST(ReplicationFaultSystemTest, PooledReadersNeverSeeDataBehindHeartbeat) {
  // Concurrent batches interleaved with faulty replication: whatever the
  // fault mix does to deliveries, a query that served locally must have read
  // data at least as new as the heartbeat published for its region — data
  // and heartbeat travel in one immutable snapshot, so the guarantee holds
  // even while batches drop, reorder and poison. Runs under tsan via the
  // `repl` label.
  BookstoreFixture fx(5000, 1000);
  ReplicationFaultConfig faults;
  faults.seed = 99;
  faults.drop_probability = 0.2;
  faults.delay_probability = 0.2;
  faults.delay_ms = 8000;
  faults.duplicate_probability = 0.2;
  faults.poison_probability = 0.1;
  fx.sys.cache()->SetReplicationFaults(faults);

  std::vector<std::string> sqls;
  for (int i = 0; i < 8; ++i) {
    sqls.push_back("SELECT title, price FROM Books WHERE isbn = " +
                   std::to_string(3 + i) + " CURRENCY BOUND 60 SEC ON (Books)");
  }
  ConcurrentBatchOptions opts;
  opts.workers = 4;
  for (int round = 0; round < 20; ++round) {
    CommitPriceUpdates(&fx, 2, 700);
    fx.sys.AdvanceBy(2500);
    std::optional<SimTimeMs> hb = fx.sys.cache()->LocalHeartbeat(1);
    auto results = fx.sys.ExecuteConcurrent(sqls, opts);
    for (auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (r->stats.switch_local == 1) {
        // Local serve: only possible with a certified heartbeat, and the
        // data scanned is at least that new.
        ASSERT_TRUE(hb.has_value());
        EXPECT_GE(r->stats.max_seen_heartbeat, *hb);
      }
    }
  }
  // Drain: the system always converges back to HEALTHY regions.
  fx.sys.cache()->ClearReplicationFaults();
  fx.sys.AdvanceBy(60000);
  EXPECT_EQ(fx.sys.cache()->RegionHealthOf(1), RegionHealth::kHealthy);
  EXPECT_EQ(fx.sys.cache()->RegionHealthOf(2), RegionHealth::kHealthy);
}

}  // namespace
}  // namespace rcc
