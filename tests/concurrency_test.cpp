// Concurrent execution engine: the worker pool, the region reader–writer
// locks, the deterministic batch API (serial == pooled), the shared timeline
// floor, and the unknown-heartbeat guard semantics. Registered with the
// `tsan` ctest label: the tsan preset runs exactly these tests under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/read_handle.h"
#include "plan/plan_cache.h"
#include "replication/fault_injector.h"
#include "replication/health.h"
#include "test_util.h"

namespace rcc {
namespace {

using testing_util::BookstoreFixture;
using testing_util::MustExecute;

// -- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskAndBlocksUntilDone) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.Run(std::move(tasks));
  // Run is a barrier: by the time it returns, every task has executed.
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.Run(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmittedWorkDrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // The destructor joins after draining the queue.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DefaultWorkersIsPositive) {
  EXPECT_GE(ThreadPool::DefaultWorkers(), 1);
  ThreadPool degenerate(0);  // clamped to one worker, still functional
  std::atomic<int> counter{0};
  degenerate.Run({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 1);
}

// -- deterministic batch execution -------------------------------------------

/// The mixed workload used by the equivalence tests: guarded point lookups
/// (guards pass -> local), a guarded range scan, and tight-bound queries
/// that must go remote.
std::vector<std::string> MixedBatch() {
  std::vector<std::string> sqls;
  for (int i = 1; i <= 12; ++i) {
    sqls.push_back("SELECT price FROM Books B WHERE B.isbn = " +
                   std::to_string(i) + " CURRENCY BOUND 10 MIN ON (B)");
  }
  sqls.push_back(
      "SELECT isbn FROM Books B WHERE B.isbn <= 40 "
      "CURRENCY BOUND 10 MIN ON (B)");
  sqls.push_back(
      "SELECT rating FROM Reviews R WHERE R.isbn = 3 "
      "CURRENCY BOUND 10 MIN ON (R)");
  // Current reads: the guard cannot pass, the back-end serves them.
  sqls.push_back("SELECT price FROM Books B WHERE B.isbn = 5");
  sqls.push_back("SELECT stock FROM Books B WHERE B.isbn = 8");
  return sqls;
}

void ExpectSameResults(const std::vector<Result<QueryResult>>& a,
                       const std::vector<Result<QueryResult>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << i << ": " << a[i].status().ToString();
    ASSERT_TRUE(b[i].ok()) << i << ": " << b[i].status().ToString();
    EXPECT_EQ(a[i]->rows, b[i]->rows) << "row mismatch at query " << i;
    EXPECT_EQ(a[i]->shape, b[i]->shape) << "plan shape at query " << i;
    EXPECT_EQ(a[i]->stats.switch_local, b[i]->stats.switch_local) << i;
    EXPECT_EQ(a[i]->stats.switch_remote, b[i]->stats.switch_remote) << i;
    EXPECT_EQ(a[i]->stats.rows_returned, b[i]->stats.rows_returned) << i;
    EXPECT_EQ(a[i]->executed_at, b[i]->executed_at) << i;
  }
}

TEST(ConcurrentBatchTest, PooledMatchesSerialExactly) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  std::vector<std::string> sqls = MixedBatch();

  ConcurrentBatchOptions serial;
  serial.workers = 1;
  auto baseline = fx.sys.ExecuteConcurrent(sqls, serial);

  ConcurrentBatchOptions pooled;
  pooled.workers = 4;
  auto concurrent = fx.sys.ExecuteConcurrent(sqls, pooled);
  ExpectSameResults(baseline, concurrent);

  pooled.workers = 8;
  auto wide = fx.sys.ExecuteConcurrent(sqls, pooled);
  ExpectSameResults(baseline, wide);
}

TEST(ConcurrentBatchTest, BatchMatchesPlainSessionLoop) {
  // The batch API must agree with the ordinary serial Session on a system
  // advanced to the same instant (no remote policy installed, so the serial
  // path does not move the clock either).
  BookstoreFixture serial_fx;
  serial_fx.sys.AdvanceTo(30000);
  BookstoreFixture batch_fx;
  batch_fx.sys.AdvanceTo(30000);

  std::vector<std::string> sqls = MixedBatch();
  auto batched = batch_fx.sys.ExecuteConcurrent(
      sqls, ConcurrentBatchOptions{.workers = 4});
  ASSERT_EQ(batched.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    QueryResult expected = MustExecute(serial_fx.session.get(), sqls[i]);
    ASSERT_TRUE(batched[i].ok()) << sqls[i];
    EXPECT_EQ(batched[i]->rows, expected.rows) << sqls[i];
    EXPECT_EQ(batched[i]->shape, expected.shape) << sqls[i];
  }
}

TEST(ConcurrentBatchTest, RepeatedPooledRunsAreDeterministic) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  std::vector<std::string> sqls = MixedBatch();
  ConcurrentBatchOptions opts;
  opts.workers = 4;
  auto first = fx.sys.ExecuteConcurrent(sqls, opts);
  for (int round = 0; round < 3; ++round) {
    auto again = fx.sys.ExecuteConcurrent(sqls, opts);
    ExpectSameResults(first, again);
  }
}

TEST(ConcurrentBatchTest, ParseAndPlanErrorsLandInTheirSlot) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  std::vector<std::string> sqls = {
      "SELECT price FROM Books B WHERE B.isbn = 1",
      "SELECT FROM nonsense !!",
      "SELECT price FROM NoSuchTable T WHERE T.x = 1",
      "SELECT price FROM Books B WHERE B.isbn = 2",
  };
  auto results =
      fx.sys.ExecuteConcurrent(sqls, ConcurrentBatchOptions{.workers = 4});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
}

TEST(ConcurrentBatchTest, InterleavedBatchesAndDeliveries) {
  // The intended usage loop: advance the simulation (deliveries fire, on the
  // driving thread), then run a pooled batch at the frozen instant. Under
  // TSan this exercises the full guard-probe / view-scan / delivery surface.
  BookstoreFixture fx(/*interval_ms=*/4000, /*delay_ms=*/1000);
  std::vector<std::string> sqls = MixedBatch();
  ConcurrentBatchOptions opts;
  opts.workers = 4;
  for (int tick = 0; tick < 6; ++tick) {
    fx.sys.AdvanceBy(3000);
    MustExecute(fx.session.get(),
                "UPDATE Books SET price = price + 1 WHERE isbn <= 6");
    auto results = fx.sys.ExecuteConcurrent(sqls, opts);
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].ok())
          << "tick " << tick << " query " << i << ": "
          << results[i].status().ToString();
    }
  }
}

// -- session batch + timeline floor -------------------------------------------

TEST(ConcurrentBatchTest, SessionBatchSharesTimelineFloor) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  ASSERT_TRUE(fx.session->Execute("BEGIN TIMEORDERED").ok());
  EXPECT_EQ(fx.session->timeline_floor(), -1);

  std::vector<std::string> relaxed;
  for (int i = 1; i <= 8; ++i) {
    relaxed.push_back("SELECT price FROM Books B WHERE B.isbn = " +
                      std::to_string(i) + " CURRENCY BOUND 10 MIN ON (B)");
  }
  auto results = fx.session->ExecuteBatch(relaxed, /*workers=*/4);
  SimTimeMs max_seen = -1;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    if (r->stats.max_seen_heartbeat > max_seen) {
      max_seen = r->stats.max_seen_heartbeat;
    }
  }
  // The floor ends at the maximum snapshot any query of the batch observed —
  // the same value a serial run in any order would produce.
  EXPECT_GT(max_seen, 0);
  EXPECT_EQ(fx.session->timeline_floor(), max_seen);

  // A current read raises the floor to "now"; afterwards the same relaxed
  // batch must refuse the (older) local replicas and serve remotely.
  MustExecute(fx.session.get(), "SELECT price FROM Books B WHERE B.isbn = 1");
  EXPECT_EQ(fx.session->timeline_floor(), 30000);
  auto pinned = fx.session->ExecuteBatch(relaxed, /*workers=*/4);
  for (const auto& r : pinned) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.switch_local, 0);
    EXPECT_GE(r->stats.switch_remote, 1);
  }
  EXPECT_EQ(fx.session->timeline_floor(), 30000);
}

// -- unknown-heartbeat guard semantics ---------------------------------------

/// The cache's read handle with every region's heartbeat unknown — as for a
/// region whose heartbeat was never installed — and, when `link_down`, a
/// back-end link that refuses every statement.
class UnknownHeartbeatReader : public ReadHandle {
 public:
  explicit UnknownHeartbeatReader(const CacheDbms* cache) : cache_(cache) {}
  const Table* ScanTable(const ScanTarget& target) override {
    return cache_.ScanTable(target);
  }
  Result<ExecutedQuery> ExecuteRemote(const BackendCall& call,
                                      const ExecContext& ctx) override {
    if (link_down) return Status::Unavailable("link down");
    return cache_.ExecuteRemote(call, ctx);
  }

  bool link_down = false;

 private:
  CacheDbms::Reader cache_;
};

TEST(ConcurrencyTest, GuardFailsExplicitlyOnUnknownHeartbeat) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  QueryPlan plan = testing_util::MustPrepare(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 10 MIN ON (B)");

  EventStream events;
  // Simulate a region whose heartbeat was never installed: the guard must
  // fail explicitly (counted) and route to the remote branch, not treat the
  // region as "synced at time 0" or as maximally stale by accident.
  UnknownHeartbeatReader reader(fx.sys.cache());
  ExecContext ctx;
  ctx.reader = &reader;
  ctx.clock = fx.sys.backend()->clock();
  ctx.events = &events;
  auto executed = ExecutePlan(plan, &ctx);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  const ExecStats& stats = events.stats();
  EXPECT_GE(stats.guard_unknown_region, 1);
  EXPECT_EQ(stats.switch_local, 0);
  EXPECT_GE(stats.switch_remote, 1);
}

TEST(ConcurrencyTest, DegradeRefusesUnknownStaleness) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  QueryPlan plan = testing_util::MustPrepare(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 10 MIN ON (B)");

  EventStream events;
  UnknownHeartbeatReader reader(fx.sys.cache());
  reader.link_down = true;
  ExecContext ctx;
  ctx.reader = &reader;
  ctx.clock = fx.sys.backend()->clock();
  ctx.events = &events;
  ctx.degrade = DegradeMode::kAlways;
  // Remote fails and the replica's staleness is unknown: even ALWAYS mode
  // has nothing safe to serve — the query must fail, not hand out data of
  // unknowable currency.
  auto executed = ExecutePlan(plan, &ctx);
  ASSERT_FALSE(executed.ok());
  EXPECT_NE(executed.status().ToString().find("no local heartbeat"),
            std::string::npos)
      << executed.status().ToString();
}

// -- raw lock/heartbeat contention (TSan surface) -----------------------------

TEST(ConcurrencyTest, RegionPublishAndPinContentionSmoke) {
  // Readers pin an epoch and scan the current snapshot lock-free while a
  // writer clones the view, applies ops and publishes successor snapshots —
  // the exact interleaving the MVCC engine produces, in miniature. The
  // assertions are minimal; the point is a clean TSan/ASan report.
  TableDef items;
  items.name = "Items";
  items.schema = Schema({{"id", ValueType::kInt64},
                         {"cat", ValueType::kInt64},
                         {"price", ValueType::kDouble}});
  items.clustered_key = {"id"};
  ViewDef def;
  def.name = "items_copy";
  def.source_table = "Items";
  def.columns = {"id", "cat", "price"};
  def.region = 1;
  auto view_or = MaterializedView::Create(def, items);
  ASSERT_TRUE(view_or.ok());
  RegionDef region_def;
  region_def.cid = 1;
  CurrencyRegion region(region_def);
  region.AddView(std::move(*view_or));

  constexpr int kWriterOps = 400;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kWriterOps; ++i) {
      region.PublishUpdate(
          [&](const RegionSnapshot& cur, RegionSnapshot* next) {
            auto clone = cur.views[0]->Clone();
            RowOp op;
            op.kind = RowOp::Kind::kInsert;
            op.table = "Items";
            op.row = {Value::Int(i), Value::Int(i % 4),
                      Value::Double(i * 1.0)};
            clone->ApplyOp(op);
            if (i % 3 == 0 && i > 0) {
              RowOp upd;
              upd.kind = RowOp::Kind::kUpdate;
              upd.table = "Items";
              upd.key = {Value::Int(i - 1)};
              upd.row = {Value::Int(i + kWriterOps), Value::Int(1),
                         Value::Double(0.5)};
              clone->ApplyOp(upd);
            }
            next->views[0] = std::move(clone);
            next->heartbeat = i * 10;
            return true;
          });
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      SimTimeMs last_hb = 0;
      while (!done.load()) {
        SnapshotPin pin(region.epochs());
        const RegionSnapshot* snap = pin.Acquire(&region);
        size_t rows = 0;
        snap->views[0]->data().Scan([&rows](const Row&) {
          ++rows;
          return true;
        });
        // A snapshot is internally coherent and publication is monotonic.
        EXPECT_LE(rows, 2u * kWriterOps);
        EXPECT_GE(snap->epoch, last_epoch);
        EXPECT_GE(snap->heartbeat, last_hb);
        last_epoch = snap->epoch;
        last_hb = snap->heartbeat;
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  // AddView published epoch 1; every writer iteration published once more.
  EXPECT_EQ(region.delivery_epoch(), static_cast<uint64_t>(kWriterOps) + 1);
}

// -- plan cache under contention ----------------------------------------------

TEST(ConcurrencyTest, PlanCacheHammerDuringInvalidations) {
  // N session-like threads look up and insert plans over a small template
  // pool with rotating degrade modes while an invalidator thread plays the
  // role of Deliver/quarantine health transitions (OnHealthChange bumps the
  // cache version). Two properties under TSan:
  //  - no torn reads: every hit's entry is internally consistent — its
  //    created_degrade tag equals the mode the key was looked up under;
  //  - entries published around an invalidation never resurface (the
  //    version guard), so a hit's entry version always matches a version
  //    the cache actually had.
  PlanCache cache;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  const DegradeMode kModes[] = {DegradeMode::kNone, DegradeMode::kBounded,
                                DegradeMode::kAlways};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};

  std::thread invalidator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cache.Invalidate();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> sessions;
  for (int t = 0; t < kThreads; ++t) {
    sessions.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        DegradeMode mode = kModes[(t + i) % 3];
        std::string sql = "SELECT a FROM t" + std::to_string(i % 7) +
                          " WHERE a = " + std::to_string(i % 13);
        auto looked = cache.Lookup(sql, mode, false);
        if (looked.hit.has_value()) {
#ifndef RCC_PLANCACHE_MUTATE
          if (looked.hit->entry->created_degrade != mode) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
#endif
        } else if (looked.norm.ok) {
          auto entry = std::make_shared<PlanCacheEntry>();
          entry->parameterized = true;
          entry->created_degrade = mode;
          cache.Insert(looked.norm, sql, mode, false, std::move(entry),
                       looked.version_at_lookup);
        }
      }
    });
  }
  for (std::thread& s : sessions) s.join();
  stop.store(true, std::memory_order_release);
  invalidator.join();

  EXPECT_EQ(torn.load(), 0)
      << "a lookup under one degrade mode returned a plan created under "
         "another";
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<int64_t>(kThreads) * kIters);
  EXPECT_GT(cache.invalidations(), 0);
}

TEST(ConcurrencyTest, ConcurrentSessionsShareCacheAcrossHealthTransitions) {
  // Whole-engine version: concurrent batches execute a fixed query pool (the
  // plan-cache sweet spot) while deliveries land between batches and a
  // poisoned batch quarantines region 1 mid-run. Quarantined regions must
  // refuse local serves even when the query text is cached; after resync the
  // pool serves locally again. Runs under TSan via the `tsan` label.
  BookstoreFixture fx(5000, 1000);
  fx.sys.AdvanceTo(12000);

  std::vector<std::string> sqls;
  for (int i = 0; i < 6; ++i) {
    sqls.push_back("SELECT isbn, price FROM Books WHERE isbn = " +
                   std::to_string(1 + i) +
                   " CURRENCY BOUND 60 SEC ON (Books)");
  }
  ConcurrentBatchOptions opts;
  opts.workers = 4;

  auto run_pool = [&](bool expect_local) {
    auto results = fx.sys.ExecuteConcurrent(sqls, opts);
    for (auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (expect_local) {
        EXPECT_EQ(r->stats.switch_local, 1);
      } else {
        EXPECT_EQ(r->stats.switch_local, 0)
            << "local serve from a quarantined region";
      }
    }
  };

  run_pool(/*expect_local=*/true);

  // Poison the next delivery: region 1 quarantines, its certified heartbeat
  // is withdrawn, and the health transition invalidates cached plans.
  ReplicationFaultConfig faults;
  faults.poison_probability = 1.0;
  fx.sys.cache()->SetReplicationFaults(faults);
  MustExecute(fx.session.get(), "UPDATE Books SET price = 12 WHERE isbn = 1");
  fx.sys.AdvanceBy(7000);
  ASSERT_EQ(fx.sys.cache()->RegionHealthOf(1), RegionHealth::kQuarantined);
  run_pool(/*expect_local=*/false);

  // Resync heals the region; the pool goes local again.
  fx.sys.cache()->ClearReplicationFaults();
  fx.sys.AdvanceBy(20000);
  ASSERT_EQ(fx.sys.cache()->RegionHealthOf(1), RegionHealth::kHealthy);
  run_pool(/*expect_local=*/true);
}

TEST(ConcurrencyTest, SetDegradeRacesExecuteBatchWithoutTearing) {
  // Regression for the network front end's interleaving: one connection's
  // SET DEGRADE / SET TRACE control frames are applied on the server's event
  // loop while the same Session's queries run on pool workers. The session
  // mode fields are atomics; each query must observe exactly one mode, and
  // the timeline floor must only ever ratchet upward. Runs under TSan via
  // the `tsan` label — a plain-field Session makes this a data race.
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  Session* session = fx.session.get();

  std::vector<std::string> sqls;
  for (int i = 1; i <= 6; ++i) {
    sqls.push_back("SELECT price FROM Books B WHERE B.isbn = " +
                   std::to_string(i) + " CURRENCY BOUND 10 MIN ON (B)");
  }

  std::atomic<bool> stop{false};
  std::atomic<int> batch_failures{0};
  std::thread executor([&] {
    for (int round = 0; round < 30 && !stop.load(); ++round) {
      auto results = session->ExecuteBatch(sqls, 4);
      for (auto& r : results) {
        if (!r.ok()) batch_failures.fetch_add(1);
      }
    }
    stop.store(true);
  });
  std::thread degrade_toggler([&] {
    bool bounded = false;
    while (!stop.load()) {
      auto r = session->Execute(bounded ? "SET DEGRADE BOUNDED"
                                        : "SET DEGRADE NONE");
      EXPECT_TRUE(r.ok());
      bounded = !bounded;
    }
  });
  std::thread trace_toggler([&] {
    bool on = false;
    while (!stop.load()) {
      auto r = session->Execute(on ? "SET TRACE ON" : "SET TRACE OFF");
      EXPECT_TRUE(r.ok());
      on = !on;
      // Concurrent readers of the mode accessors (what the server's status
      // paths do) must also be race-free.
      (void)session->degrade_mode();
      (void)session->trace_enabled();
      (void)session->timeline_floor();
    }
  });
  executor.join();
  degrade_toggler.join();
  trace_toggler.join();
  EXPECT_EQ(batch_failures.load(), 0);
}

TEST(ConcurrencyTest, TimelineFloorNeverRegressesUnderConcurrentRaises) {
  // The floor update is a CAS-max: a slow worker publishing an *older*
  // snapshot time after a faster one must not drag the floor backwards.
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  Session* session = fx.session.get();
  ASSERT_TRUE(session->Execute("BEGIN TIMEORDERED").ok());

  std::vector<std::string> sqls;
  for (int i = 1; i <= 8; ++i) {
    sqls.push_back("SELECT price FROM Books B WHERE B.isbn = " +
                   std::to_string(i) + " CURRENCY BOUND 10 MIN ON (B)");
  }
  SimTimeMs last_floor = -1;
  for (int round = 0; round < 5; ++round) {
    auto results = session->ExecuteBatch(sqls, 4);
    for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
    SimTimeMs floor = session->timeline_floor();
    EXPECT_GE(floor, last_floor) << "timeline floor regressed";
    last_floor = floor;
    fx.sys.AdvanceBy(5000);  // deliveries land; later batches see newer data
  }
  EXPECT_GT(last_floor, -1);
  ASSERT_TRUE(session->Execute("END TIMEORDERED").ok());
}

TEST(ConcurrencyTest, NestedConcurrentBatchKeepsOuterModeCounted) {
  // The server holds concurrent-batch mode for its lifetime; a nested
  // Begin/End pair (Session::ExecuteBatch does one internally) must not
  // switch the engine back to serial mode underneath it. Counted semantics:
  // only the outermost End leaves the mode.
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  CacheDbms* cache = fx.sys.cache();

  cache->BeginConcurrentBatch();  // the "server" enters for its lifetime
  EXPECT_TRUE(cache->in_concurrent_batch());
  auto results = fx.session->ExecuteBatch(
      {"SELECT price FROM Books B WHERE B.isbn = 1",
       "SELECT price FROM Books B WHERE B.isbn = 2"},
      2);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  // With a bool flag the nested End above would already have cleared it.
  EXPECT_TRUE(cache->in_concurrent_batch());
  cache->EndConcurrentBatch();
  EXPECT_FALSE(cache->in_concurrent_batch());
}

}  // namespace
}  // namespace rcc
