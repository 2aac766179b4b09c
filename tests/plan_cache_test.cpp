// Parameterized plan cache (src/plan/plan_cache.*) and its session wiring:
// key anatomy (degrade mode and timeordered flag are part of the key, typed
// literal slots), two-level L1/L2 lookup, versioned invalidation, LRU
// eviction, value-bound entries, and the session fast path (hit skips the
// front end, EXPLAIN shows "plan: cached", parameterized reuse binds fresh
// literals); and the back end's own plan cache, entered at its template
// level by remote fetches and DML target-row SELECTs.
//
// The stale-plan-across-degrade regression lives here. Under the
// RCC_PLANCACHE_MUTATE build the cache key drops the degrade mode, so a plan
// created under SET DEGRADE NONE is served under ALWAYS and vice versa; the
// strict assertions below invert to prove the planted bug actually manifests
// through this exact surface (and sim_seeds_test proves the conformance
// oracle catches its behavioural consequences).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/fault_injector.h"
#include "common/strings.h"
#include "optimizer/optimizer.h"
#include "plan/plan_cache.h"
#include "replication/fault_injector.h"
#include "replication/health.h"
#include "test_util.h"

namespace rcc {
namespace {

using testing_util::BookstoreFixture;
using testing_util::IntColumn;
using testing_util::MustExecute;

// ---------------------------------------------------------------------------
// PlanCache unit tests (no engine: entries with null plans are fine, the
// cache never dereferences them).
// ---------------------------------------------------------------------------

std::shared_ptr<PlanCacheEntry> DummyEntry(
    DegradeMode mode = DegradeMode::kNone, bool parameterized = true) {
  auto e = std::make_shared<PlanCacheEntry>();
  e->parameterized = parameterized;
  e->created_degrade = mode;
  return e;
}

TEST(PlanCacheUnitTest, ExactTextHitThenNormalizedHit) {
  PlanCache cache;
  auto miss = cache.Lookup("SELECT a FROM t WHERE a = 1",
                           DegradeMode::kNone, false);
  EXPECT_FALSE(miss.hit.has_value());
  ASSERT_TRUE(miss.norm.ok);
  ASSERT_EQ(miss.norm.slots.size(), 1u);
  cache.Insert(miss.norm, "SELECT a FROM t WHERE a = 1", DegradeMode::kNone,
               false, DummyEntry(), miss.version_at_lookup);

  // L1: byte-identical text, captured params returned without lexing.
  auto l1 = cache.Lookup("SELECT a FROM t WHERE a = 1",
                         DegradeMode::kNone, false);
  ASSERT_TRUE(l1.hit.has_value());
  ASSERT_EQ(l1.hit->params.size(), 1u);
  EXPECT_EQ(l1.hit->params[0], Value::Int(1));

  // L2: same template, different literal and spelling; the new literal
  // becomes the bind parameter.
  auto l2 = cache.Lookup("select a from t where a = 42",
                         DegradeMode::kNone, false);
  ASSERT_TRUE(l2.hit.has_value());
  ASSERT_EQ(l2.hit->params.size(), 1u);
  EXPECT_EQ(l2.hit->params[0], Value::Int(42));

  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
}

// The bugfix regression at the key level: a plan created under one degrade
// mode must never surface under another.
TEST(PlanCacheUnitTest, DegradeModeIsPartOfTheKey) {
  PlanCache cache;
  auto miss = cache.Lookup("SELECT a FROM t", DegradeMode::kNone, false);
  cache.Insert(miss.norm, "SELECT a FROM t", DegradeMode::kNone, false,
               DummyEntry(DegradeMode::kNone), miss.version_at_lookup);
  ASSERT_TRUE(cache.Lookup("SELECT a FROM t", DegradeMode::kNone, false)
                  .hit.has_value());

  auto other = cache.Lookup("SELECT a FROM t", DegradeMode::kAlways, false);
  auto bounded = cache.Lookup("SELECT a FROM t", DegradeMode::kBounded, false);
#ifdef RCC_PLANCACHE_MUTATE
  // Planted-bug build: the key drops the mode, so the NONE-created plan IS
  // served under ALWAYS/BOUNDED. This inversion proves the mutation is live.
  ASSERT_TRUE(other.hit.has_value());
  ASSERT_TRUE(bounded.hit.has_value());
  EXPECT_EQ(other.hit->entry->created_degrade, DegradeMode::kNone);
#else
  EXPECT_FALSE(other.hit.has_value())
      << "a plan cached under SET DEGRADE NONE must not be served under "
         "ALWAYS: degrade mode changes run-time behaviour";
  EXPECT_FALSE(bounded.hit.has_value());
#endif
}

TEST(PlanCacheUnitTest, TimeorderedFlagIsPartOfTheKey) {
  PlanCache cache;
  auto miss = cache.Lookup("SELECT a FROM t", DegradeMode::kNone, false);
  cache.Insert(miss.norm, "SELECT a FROM t", DegradeMode::kNone, false,
               DummyEntry(), miss.version_at_lookup);
  ASSERT_TRUE(cache.Lookup("SELECT a FROM t", DegradeMode::kNone, false)
                  .hit.has_value());
  // Same text inside BEGIN TIMEORDERED is a different key: timeline floors
  // change what the guard accepts.
  EXPECT_FALSE(cache.Lookup("SELECT a FROM t", DegradeMode::kNone, true)
                   .hit.has_value());
}

TEST(PlanCacheUnitTest, InvalidateDropsEntriesLazily) {
  PlanCache cache;
  auto miss = cache.Lookup("SELECT a FROM t WHERE a = 1",
                           DegradeMode::kNone, false);
  cache.Insert(miss.norm, "SELECT a FROM t WHERE a = 1", DegradeMode::kNone,
               false, DummyEntry(), miss.version_at_lookup);
  EXPECT_EQ(cache.size(), 2u);  // one L1 + one L2 entry

  uint64_t v = cache.version();
  cache.Invalidate();
  EXPECT_GT(cache.version(), v);
  EXPECT_EQ(cache.invalidations(), 1);

  // Stale entries are detected (and erased) on the next lookup.
  auto after = cache.Lookup("SELECT a FROM t WHERE a = 1",
                            DegradeMode::kNone, false);
  EXPECT_FALSE(after.hit.has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheUnitTest, InsertRefusedWhenVersionMovedDuringOptimization) {
  PlanCache cache;
  auto miss = cache.Lookup("SELECT a FROM t", DegradeMode::kNone, false);
  // A catalog / statistics change lands while the caller is optimizing...
  cache.Invalidate();
  // ...so the plan built against the old world must not be published.
  cache.Insert(miss.norm, "SELECT a FROM t", DegradeMode::kNone, false,
               DummyEntry(), miss.version_at_lookup);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("SELECT a FROM t", DegradeMode::kNone, false)
                   .hit.has_value());
}

TEST(PlanCacheUnitTest, ValueBoundEntryOnlyMatchesIdenticalValues) {
  PlanCache cache;
  auto miss = cache.Lookup("SELECT a FROM t WHERE a = 7",
                           DegradeMode::kNone, false);
  auto entry = DummyEntry(DegradeMode::kNone, /*parameterized=*/false);
  entry->creation_values = {Value::Int(7)};
  cache.Insert(miss.norm, "SELECT a FROM t WHERE a = 7", DegradeMode::kNone,
               false, std::move(entry), miss.version_at_lookup);

  // Identical value: hit (binding 7 is identical to the literal the plan was
  // optimized with).
  ASSERT_TRUE(cache.Lookup("SELECT a FROM t WHERE a = 7",
                           DegradeMode::kNone, false)
                  .hit.has_value());
  // Same template, different value: the value-bound plan must not be reused.
  EXPECT_FALSE(cache.Lookup("SELECT a FROM t WHERE a = 8",
                            DegradeMode::kNone, false)
                   .hit.has_value());
}

TEST(PlanCacheUnitTest, LruEvictsLeastRecentlyUsedTemplate) {
  PlanCache::Config cfg;
  cfg.shards = 1;
  cfg.capacity_per_shard = 2;
  PlanCache cache(cfg);
  // Lookups use a fresh literal each time so they always miss L1 and
  // exercise the L2 (template) level, whose LRU this test pins down.
  auto text = [](int t, int lit) {
    return "SELECT a FROM t" + std::to_string(t) +
           " WHERE a = " + std::to_string(lit);
  };
  for (int t : {1, 2}) {
    auto m = cache.Lookup(text(t, 1), DegradeMode::kNone, false);
    cache.Insert(m.norm, text(t, 1), DegradeMode::kNone, false, DummyEntry(),
                 m.version_at_lookup);
  }
  // Touch template 1 so template 2 is the LRU victim.
  ASSERT_TRUE(
      cache.Lookup(text(1, 9), DegradeMode::kNone, false).hit.has_value());
  auto m3 = cache.Lookup(text(3, 1), DegradeMode::kNone, false);
  cache.Insert(m3.norm, text(3, 1), DegradeMode::kNone, false, DummyEntry(),
               m3.version_at_lookup);
  EXPECT_TRUE(
      cache.Lookup(text(1, 8), DegradeMode::kNone, false).hit.has_value());
  EXPECT_TRUE(
      cache.Lookup(text(3, 8), DegradeMode::kNone, false).hit.has_value());
  EXPECT_FALSE(
      cache.Lookup(text(2, 8), DegradeMode::kNone, false).hit.has_value());
}

// ---------------------------------------------------------------------------
// Session fast-path behaviour.
// ---------------------------------------------------------------------------

TEST(PlanCacheSessionTest, SecondExecutionHitsCacheWithSameRows) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  PlanCache& pc = fx.sys.cache()->plan_cache();
  const std::string q =
      "SELECT isbn, price FROM Books B WHERE B.isbn = 2 "
      "CURRENCY BOUND 10 MIN ON (B)";

  int64_t hits0 = pc.hits(), misses0 = pc.misses();
  QueryResult first = MustExecute(fx.session.get(), q);
  EXPECT_EQ(pc.misses(), misses0 + 1);
  EXPECT_EQ(pc.hits(), hits0);

  QueryResult second = MustExecute(fx.session.get(), q);
  EXPECT_EQ(pc.hits(), hits0 + 1);
  EXPECT_EQ(pc.misses(), misses0 + 1);
  ASSERT_EQ(first.rows.size(), second.rows.size());
  EXPECT_EQ(IntColumn(first), IntColumn(second));
  EXPECT_EQ(first.shape, second.shape);
}

TEST(PlanCacheSessionTest, ParameterizedReuseBindsFreshLiterals) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  PlanCache& pc = fx.sys.cache()->plan_cache();
  auto query = [](int isbn) {
    return "SELECT isbn FROM Books B WHERE B.isbn = " + std::to_string(isbn) +
           " CURRENCY BOUND 10 MIN ON (B)";
  };

  QueryResult r1 = MustExecute(fx.session.get(), query(1));
  EXPECT_EQ(IntColumn(r1), std::vector<int64_t>{1});

  // Different literal, same template: an L2 hit must bind the new value and
  // return the row for isbn 2, not a stale re-run of isbn 1.
  int64_t hits0 = pc.hits();
  QueryResult r2 = MustExecute(fx.session.get(), query(2));
  EXPECT_EQ(pc.hits(), hits0 + 1);
  EXPECT_EQ(IntColumn(r2), std::vector<int64_t>{2});

  QueryResult r3 = MustExecute(fx.session.get(), query(3));
  EXPECT_EQ(IntColumn(r3), std::vector<int64_t>{3});
}

TEST(PlanCacheSessionTest, ExplainMarksCachedPlans) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  const std::string q =
      "EXPLAIN SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 10 MIN ON (B)";
  QueryResult first = MustExecute(fx.session.get(), q);
  EXPECT_EQ(first.message.find("plan: cached"), std::string::npos);
  QueryResult second = MustExecute(fx.session.get(), q);
  EXPECT_NE(second.message.find("plan: cached"), std::string::npos)
      << second.message;
}

// A leading `--` comment is skipped exactly as the lexer skips it, so
// commented SELECT and EXPLAIN text enters the same pipeline — and the same
// plan cache — as the bare text.
TEST(PlanCacheSessionTest, LeadingCommentTakesThePlanCachePath) {
  const std::string q =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)";
  {
    BookstoreFixture fx;
    fx.sys.AdvanceTo(30000);
    PlanCache& pc = fx.sys.cache()->plan_cache();
    const std::string commented = "-- hi\n" + q;
    int64_t hits0 = pc.hits(), misses0 = pc.misses();
    QueryResult first = MustExecute(fx.session.get(), commented);
    EXPECT_EQ(pc.misses(), misses0 + 1);
    QueryResult second = MustExecute(fx.session.get(), commented);
    EXPECT_EQ(pc.hits(), hits0 + 1);
    EXPECT_EQ(IntColumn(first), std::vector<int64_t>{1});
    EXPECT_EQ(IntColumn(second), std::vector<int64_t>{1});
  }
  // Each text on a fresh system, twice: the miss and the hit render alike
  // with and without comments.
  auto explain_twice = [](const std::string& text) {
    BookstoreFixture fx;
    fx.sys.AdvanceTo(30000);
    std::vector<std::string> out;
    for (int i = 0; i < 2; ++i) {
      out.push_back(MustExecute(fx.session.get(), text).message);
    }
    return out;
  };
  const std::vector<std::string> bare = explain_twice("EXPLAIN " + q);
  EXPECT_NE(bare[0].find("?0"), std::string::npos) << bare[0];
  EXPECT_NE(bare[1].find("plan: cached"), std::string::npos) << bare[1];
  EXPECT_EQ(explain_twice("-- hi\nEXPLAIN " + q), bare);
  EXPECT_EQ(explain_twice("  -- a\n-- b\nEXPLAIN -- c\n" + q), bare);
}

TEST(PlanCacheSessionTest, ViewSetChangeInvalidatesCachedPlans) {
  BookstoreFixture fx;
  fx.sys.AdvanceTo(30000);
  PlanCache& pc = fx.sys.cache()->plan_cache();
  const std::string q =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 CURRENCY BOUND 10 MIN ON (B)";
  MustExecute(fx.session.get(), q);
  MustExecute(fx.session.get(), q);
  int64_t inval0 = pc.invalidations();

  // Any view-set change bumps the cache version; the cached plan for q is
  // stale (it may now have a better — or no longer valid — local option).
  ViewDef extra;
  extra.name = "BooksCopy2";
  extra.source_table = "Books";
  extra.columns = {"isbn", "title", "price", "stock"};
  extra.region = 1;
  ASSERT_TRUE(fx.sys.cache()->CreateView(extra).ok());
  EXPECT_GT(pc.invalidations(), inval0);

  int64_t misses0 = pc.misses();
  MustExecute(fx.session.get(), q);  // must re-optimize, not reuse
  EXPECT_EQ(pc.misses(), misses0 + 1);
}

// ---------------------------------------------------------------------------
// The stale-plan-across-degrade regression (behavioural, through the
// session). Fixture mirrors fault_test's DegradeTest: f = 10s, d = 2s,
// deliveries at k*10000 + 2000; a permanent back-end outage forces every
// guard failure into the degrade policy instead of remote execution.
// ---------------------------------------------------------------------------

class PlanCacheDegradeTest : public ::testing::Test {
 protected:
  PlanCacheDegradeTest() : fx_(10000, 2000) {
    fx_.sys.AdvanceTo(35000);
    FaultInjectorConfig outage;
    outage.outages = {{0, 1000000000}};
    fx_.sys.cache()->SetFaultInjector(outage);
  }

  /// Moves virtual time to where the Books replica is exactly `staleness_ms`
  /// stale (see fault_test.cpp).
  SimTimeMs AdvanceToStaleness(SimTimeMs staleness_ms) {
    CurrencyRegion* region = fx_.sys.cache()->region(1);
    SimTimeMs hb = region->local_heartbeat();
    SimTimeMs target = hb + staleness_ms;
    while (target < fx_.sys.Now()) {
      fx_.sys.AdvanceTo(fx_.sys.Now() + 1000);
      SimTimeMs refreshed = region->local_heartbeat();
      if (refreshed != hb) {
        hb = refreshed;
        target = hb + staleness_ms;
      }
    }
    fx_.sys.AdvanceTo(target);
    EXPECT_EQ(region->local_heartbeat(), hb);
    return hb;
  }

  static constexpr const char* kBoundedQuery =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 6 SECONDS ON (B)";

  BookstoreFixture fx_;
};

// Direction 1: a plan cached under ALWAYS (degraded serve authorized) must
// not be served after SET DEGRADE NONE — NONE must refuse the stale replica.
TEST_F(PlanCacheDegradeTest, AlwaysPlanIsNotServedUnderNone) {
  Session* s = fx_.session.get();
  MustExecute(s, "SET DEGRADE ALWAYS");
  AdvanceToStaleness(8000);  // 8s > the 6s bound; remote is down

  QueryResult degraded = MustExecute(s, kBoundedQuery);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.staleness_ms, 8000);
  // Warm the cache under ALWAYS with a second (hit) execution.
  QueryResult again = MustExecute(s, kBoundedQuery);
  EXPECT_TRUE(again.degraded);

  MustExecute(s, "SET DEGRADE NONE");
  auto refused = s->Execute(kBoundedQuery);
#ifdef RCC_PLANCACHE_MUTATE
  // Planted bug: the degrade-blind key serves the ALWAYS-created plan, so the
  // out-of-bound answer sails through a session that forbade degradation.
  ASSERT_TRUE(refused.ok());
  EXPECT_TRUE(refused->degraded);
#else
  ASSERT_FALSE(refused.ok())
      << "NONE session was served a degraded answer from an ALWAYS-cached "
         "plan";
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
#endif
}

// Direction 2: a plan cached under NONE must not pin ALWAYS to refusal.
TEST_F(PlanCacheDegradeTest, NonePlanIsNotServedUnderAlways) {
  Session* s = fx_.session.get();
  AdvanceToStaleness(8000);

  auto refused = s->Execute(kBoundedQuery);  // NONE: refuse, but plan caches
  ASSERT_FALSE(refused.ok());

  MustExecute(s, "SET DEGRADE ALWAYS");
  auto served = s->Execute(kBoundedQuery);
#ifdef RCC_PLANCACHE_MUTATE
  // Planted bug: the NONE-created plan is found under ALWAYS and still
  // behaves as NONE — the session authorized degradation and is refused.
  ASSERT_FALSE(served.ok());
#else
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->degraded);
  EXPECT_EQ(served->staleness_ms, 8000);
#endif
}

TEST_F(PlanCacheDegradeTest, BoundedAndAlwaysAreDistinctKeys) {
  Session* s = fx_.session.get();
  AdvanceToStaleness(8000);
  PlanCache& pc = fx_.sys.cache()->plan_cache();

  MustExecute(s, "SET DEGRADE ALWAYS");
  QueryResult r = MustExecute(s, kBoundedQuery);
  EXPECT_TRUE(r.degraded);

  // BOUNDED at 8s over a 6s bound: out of bound, must refuse — even though
  // the ALWAYS plan for the identical text is cached.
  MustExecute(s, "SET DEGRADE BOUNDED");
  [[maybe_unused]] int64_t misses0 = pc.misses();
  auto bounded = s->Execute(kBoundedQuery);
#ifdef RCC_PLANCACHE_MUTATE
  ASSERT_TRUE(bounded.ok());  // bug: ALWAYS plan served under BOUNDED
#else
  EXPECT_EQ(pc.misses(), misses0 + 1);  // distinct key -> fresh optimization
  ASSERT_FALSE(bounded.ok());
  EXPECT_TRUE(bounded.status().IsUnavailable());
#endif
}

// ---------------------------------------------------------------------------
// Quarantine: a region health change invalidates cached plans, and a query
// whose text is cached still refuses to serve a quarantined region.
// ---------------------------------------------------------------------------

TEST(PlanCacheSessionTest, QuarantinedRegionRefusesUnderCachedText) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(35000);
  Session* s = fx.session.get();
  PlanCache& pc = fx.sys.cache()->plan_cache();
  const std::string q =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 CURRENCY BOUND 60 SEC ON (B)";

  // Healthy: serves locally; second run is a cache hit.
  QueryResult healthy = MustExecute(s, q);
  EXPECT_EQ(healthy.stats.switch_local, 1);
  MustExecute(s, q);
  EXPECT_GE(pc.hits(), 1);

  // Poison the next delivery into region 1 and cut the back-end off so a
  // remote fallback cannot mask a wrongly-served local branch.
  ReplicationFaultConfig faults;
  faults.poison_probability = 1.0;
  fx.sys.cache()->SetReplicationFaults(faults);
  QueryResult upd =
      MustExecute(s, "UPDATE Books SET price = 11 WHERE isbn = 1");
  EXPECT_EQ(upd.rows_affected, 1);
  int64_t inval0 = pc.invalidations();
  fx.sys.AdvanceBy(13000);
  ASSERT_EQ(fx.sys.cache()->RegionHealthOf(1), RegionHealth::kQuarantined);
  // The HEALTHY -> QUARANTINED transition invalidated cached plans (the
  // optimizer must now price region 1 remote-only).
  EXPECT_GT(pc.invalidations(), inval0);

  FaultInjectorConfig outage;
  outage.outages = {{0, 1000000000}};
  fx.sys.cache()->SetFaultInjector(outage);
  auto refused = s->Execute(q);
  ASSERT_FALSE(refused.ok())
      << "cached text served a quarantined region: "
      << refused.status().ToString();
  fx.sys.cache()->ClearFaultInjector();

  // With the back end up again the same text answers remotely.
  QueryResult remote = MustExecute(s, q);
  EXPECT_EQ(remote.stats.switch_local, 0);
  EXPECT_EQ(IntColumn(remote), std::vector<int64_t>{1});
}

// ---------------------------------------------------------------------------
// The back end's plan cache: one entry per statement template, planned on a
// miss and re-run with fresh slot values on every hit.
// ---------------------------------------------------------------------------

/// Runs `sql` through the back end's literal entry.
ExecutedQuery BackendRun(BackendServer* backend, const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  if (!stmt.ok()) return {};
  auto result = backend->ExecuteQuery(**stmt);
  EXPECT_TRUE(result.ok()) << sql << "\n  -> " << result.status().ToString();
  return result.ok() ? std::move(*result) : ExecutedQuery{};
}

/// The back end's plan for `sql`, planned afresh.
QueryPlan BackendPlan(const BackendServer& backend, const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok());
  auto resolved = ResolveQuery(**stmt, backend.catalog());
  EXPECT_TRUE(resolved.ok());
  OptimizerOptions opts;
  opts.mode = PlanMode::kBackend;
  auto plan = Optimize(std::move(*resolved), backend.catalog(), opts);
  EXPECT_TRUE(plan.ok());
  return std::move(*plan);
}

/// The index the back end's optimizer seeks for `sql`'s scan; "" for a
/// clustered-key seek or a full scan of the table.
std::string BackendAccessPath(const BackendServer& backend,
                              const std::string& sql) {
  QueryPlan plan = BackendPlan(backend, sql);
  const PhysicalOp* op = plan.root.get();
  while (op->kind != PhysOpKind::kLocalScan) op = op->children[0].get();
  return op->index_name;
}

/// Books rows on the master whose column `col` passes `keep`.
size_t CountBooks(const BackendServer& backend, size_t col,
                  const std::function<bool(const Value&)>& keep) {
  size_t n = 0;
  backend.table("Books")->Scan([&](const Row& row) {
    if (keep(row[col])) ++n;
    return true;
  });
  return n;
}

TEST(BackendPlanCacheTest, CorrelatedRemoteInnerMissesOnceThenHits) {
  BookstoreFixture fx;
  const PlanCache& pc = fx.sys.backend()->plan_cache();
  const int64_t misses = pc.misses();
  const int64_t hits = pc.hits();
  // The inner side has no currency clause: every outer row re-opens its
  // remote branch with the row's isbn in the template's one outer slot.
  QueryResult r = MustExecute(
      fx.session.get(),
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 5 AND EXISTS ("
      " SELECT 1 FROM Sales S WHERE S.isbn = B.isbn) "
      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_EQ(r.stats.remote_queries, 5);
  EXPECT_EQ(pc.misses() - misses, 1);
  EXPECT_EQ(pc.hits() - hits, 4);
}

TEST(BackendPlanCacheTest, RefreshStatsReplansOnce) {
  BookstoreFixture fx;
  BackendServer* backend = fx.sys.backend();
  const PlanCache& pc = backend->plan_cache();
  const int64_t misses = pc.misses();
  BackendRun(backend, "SELECT isbn, price FROM Books WHERE isbn = 7");
  BackendRun(backend, "SELECT isbn, price FROM Books WHERE isbn = 8");
  EXPECT_EQ(pc.misses() - misses, 1);
  ASSERT_TRUE(backend->RefreshStats("Books").ok());
  for (int isbn = 9; isbn <= 11; ++isbn) {
    ExecutedQuery r = BackendRun(
        backend, StrPrintf("SELECT isbn, price FROM Books WHERE isbn = %d",
                           isbn));
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].AsInt(), isbn);
  }
  EXPECT_EQ(pc.misses() - misses, 2);
}

TEST(BackendPlanCacheTest, CreateTableInvalidates) {
  BookstoreFixture fx;
  BackendServer* backend = fx.sys.backend();
  const PlanCache& pc = backend->plan_cache();
  const int64_t misses = pc.misses();
  const std::string q = "SELECT isbn FROM Books WHERE isbn = 3";
  BackendRun(backend, q);
  BackendRun(backend, q);
  EXPECT_EQ(pc.misses() - misses, 1);
  TableDef def;
  def.name = "Authors";
  def.schema = Schema({{"id", ValueType::kInt64}});
  def.clustered_key = {"id"};
  ASSERT_TRUE(backend->CreateTable(def).ok());
  BackendRun(backend, q);
  EXPECT_EQ(pc.misses() - misses, 2);
}

TEST(BackendPlanCacheTest, RangeTemplateReplansOnlyWhenItsLiteralFlipsThePath) {
  BookstoreFixture fx;
  BackendServer* backend = fx.sys.backend();
  const PlanCache& pc = backend->plan_cache();
  // One template, four literals: the two narrow ranges seek the price index,
  // the two wide ones scan the table.
  struct Step {
    double price;
    std::string path;  // what a fresh plan picks at this literal
    int64_t misses;    // cumulative back-end misses after the call
    int64_t hits;      // cumulative back-end hits after the call
  };
  const std::vector<Step> steps = {
      {149.5, "idx_books_price", 1, 0},  // plans and keeps the seek
      {149.0, "idx_books_price", 1, 1},  // the seek still wins: a hit
      {6.5, "", 2, 1},                   // flips to a scan: re-plans
      {7.5, "", 2, 2},                   // the kept scan still wins
  };
  const int64_t misses = pc.misses();
  const int64_t hits = pc.hits();
  const size_t size = pc.size();
  for (const Step& step : steps) {
    const std::string q =
        StrPrintf("SELECT isbn FROM Books WHERE price > %.1f", step.price);
    ASSERT_EQ(BackendAccessPath(*backend, q), step.path) << q;
    ExecutedQuery r = BackendRun(backend, q);
    EXPECT_EQ(pc.misses() - misses, step.misses) << q;
    EXPECT_EQ(pc.hits() - hits, step.hits) << q;
    // One entry for the template: the flip replaced it.
    EXPECT_EQ(pc.size(), size + 1) << q;
    EXPECT_EQ(r.rows.size(),
              CountBooks(*backend, 2, [&](const Value& v) {
                return v.AsDouble() > step.price;
              }))
        << q;
  }
}

TEST(BackendPlanCacheTest, ShippedKeyRangePlansOnceOverTwentyLiterals) {
  BookstoreFixture fx;
  Session* s = fx.session.get();
  BackendServer* backend = fx.sys.backend();
  const PlanCache& pc = backend->plan_cache();
  // The shape of currency_rw's remote Orders reads: a range on the leading
  // clustered-key column, priced at its literals and re-checked per hit.
  // A range on a column no path leads is priced at no literal at all.
  ASSERT_TRUE(HasRangePricedScan(BackendPlan(
      *backend, "SELECT isbn FROM Books B WHERE B.isbn >= 1 AND B.isbn <= 4")));
  ASSERT_FALSE(HasRangePricedScan(
      BackendPlan(*backend, "SELECT isbn FROM Books B WHERE B.stock > 1")));
  ASSERT_FALSE(HasRangePricedScan(
      BackendPlan(*backend, "SELECT isbn FROM Books B WHERE B.isbn = 1")));
  const int64_t misses = pc.misses();
  const int64_t hits = pc.hits();
  const size_t size = pc.size();
  for (int64_t lo = 1; lo <= 20; ++lo) {
    // No currency clause: the cache's remote branch ships the statement.
    QueryResult r = MustExecute(
        s, StrPrintf("SELECT isbn FROM Books B WHERE B.isbn >= %lld "
                     "AND B.isbn <= %lld",
                     static_cast<long long>(lo),
                     static_cast<long long>(lo + 3)));
    EXPECT_EQ(r.stats.remote_queries, 1);
    EXPECT_EQ(IntColumn(r),
              (std::vector<int64_t>{lo, lo + 1, lo + 2, lo + 3}));
  }
  EXPECT_EQ(pc.misses() - misses, 1);
  EXPECT_EQ(pc.hits() - hits, 19);
  EXPECT_EQ(pc.size(), size + 1);
  for (int64_t stock = 0; stock < 20; ++stock) {
    QueryResult r = MustExecute(
        s, StrPrintf("SELECT isbn FROM Books B WHERE B.stock > %lld",
                     static_cast<long long>(stock)));
    EXPECT_EQ(r.stats.remote_queries, 1);
    EXPECT_EQ(r.rows.size(), CountBooks(*backend, 3, [&](const Value& v) {
                return v.AsInt() > stock;
              }));
  }
  EXPECT_EQ(pc.misses() - misses, 2);
  EXPECT_EQ(pc.hits() - hits, 38);
  EXPECT_EQ(pc.size(), size + 2);
}

TEST(BackendPlanCacheTest, OneKeyUpdatePlansItsTargetRowsOnce) {
  BookstoreFixture fx;
  const PlanCache& pc = fx.sys.backend()->plan_cache();
  const int64_t misses = pc.misses();
  const int64_t hits = pc.hits();
  for (int isbn = 1; isbn <= 10; ++isbn) {
    QueryResult r = MustExecute(
        fx.session.get(),
        StrPrintf("UPDATE Books SET stock = stock + 1 WHERE isbn = %d", isbn));
    EXPECT_EQ(r.rows_affected, 1);
  }
  EXPECT_EQ(pc.misses() - misses, 1);
  EXPECT_EQ(pc.hits() - hits, 9);
}

TEST(BackendPlanCacheTest, DoubleAndQuotedStringSlotsShipExactly) {
  BookstoreFixture fx;
  Session* s = fx.session.get();
  // %g prints both prices as 19.1235, and the title carries a quote.
  MustExecute(s,
              "INSERT INTO Books (isbn, title, price, stock) "
              "VALUES (9001, 'It''s', 19.1234561, 1)");
  MustExecute(s,
              "INSERT INTO Books (isbn, title, price, stock) "
              "VALUES (9002, 'It''s', 19.1234564, 1)");
  for (const auto& [price, isbn] :
       std::vector<std::pair<std::string, int64_t>>{{"19.1234561", 9001},
                                                    {"19.1234564", 9002}}) {
    // No currency clause: the cache's remote branch ships the statement.
    const std::string q = "SELECT isbn FROM Books B WHERE B.price = " +
                          price + " AND B.title = 'It''s'";
    QueryResult remote = MustExecute(s, q);
    EXPECT_EQ(remote.stats.remote_queries, 1);
    EXPECT_EQ(IntColumn(remote), std::vector<int64_t>{isbn});
    EXPECT_EQ(remote.rows, BackendRun(fx.sys.backend(), q).rows);
  }
}

}  // namespace
}  // namespace rcc
