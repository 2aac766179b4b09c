#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/strings.h"
#include "optimizer/cost_model.h"
#include "optimizer/view_matching.h"
#include "plan/plan_cache.h"
#include "test_util.h"

namespace rcc {
namespace {

using testing_util::MustExecute;
using testing_util::MustPrepare;
using testing_util::TpcdFixture;

// -- p-formula (paper Eq. (1)) ---------------------------------------------------

TEST(PFormulaTest, PiecewiseCases) {
  // B <= d: never local.
  EXPECT_DOUBLE_EQ(EstimateLocalProbability(5, 5, 100), 0.0);
  EXPECT_DOUBLE_EQ(EstimateLocalProbability(3, 5, 100), 0.0);
  // d < B <= d+f: linear.
  EXPECT_DOUBLE_EQ(EstimateLocalProbability(55, 5, 100), 0.5);
  EXPECT_DOUBLE_EQ(EstimateLocalProbability(105, 5, 100), 1.0);
  // B > d+f: always local.
  EXPECT_DOUBLE_EQ(EstimateLocalProbability(500, 5, 100), 1.0);
  // Continuous propagation (f=0): step function.
  EXPECT_DOUBLE_EQ(EstimateLocalProbability(6, 5, 0), 1.0);
  EXPECT_DOUBLE_EQ(EstimateLocalProbability(5, 5, 0), 0.0);
}

struct PCase {
  SimTimeMs bound;
  SimTimeMs delay;
  SimTimeMs interval;
};

class PFormulaSweep : public ::testing::TestWithParam<PCase> {};

TEST_P(PFormulaSweep, MonotoneAndBounded) {
  const PCase& c = GetParam();
  double p = EstimateLocalProbability(c.bound, c.delay, c.interval);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  // Monotone in the bound:
  EXPECT_LE(p, EstimateLocalProbability(c.bound + 10, c.delay, c.interval));
  // Anti-monotone in the delay:
  EXPECT_GE(p, EstimateLocalProbability(c.bound, c.delay + 10, c.interval));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PFormulaSweep,
    ::testing::Values(PCase{0, 5, 100}, PCase{10, 5, 100}, PCase{50, 5, 100},
                      PCase{104, 5, 100}, PCase{106, 5, 100},
                      PCase{10, 0, 100}, PCase{10, 5, 0},
                      PCase{10000, 5000, 15000}, PCase{1, 1, 1}));

TEST(CostTest, SwitchUnionExpectedCost) {
  CostParams costs;
  costs.guard_ms = 0.5;
  EXPECT_DOUBLE_EQ(SwitchUnionCost(1.0, 10, 100, costs), 10.5);
  EXPECT_DOUBLE_EQ(SwitchUnionCost(0.0, 10, 100, costs), 100.5);
  EXPECT_DOUBLE_EQ(SwitchUnionCost(0.5, 10, 100, costs), 55.5);
}

TEST(CostTest, SwitchUnionOutageChargesBurnedRetries) {
  // Regression: the degraded branch must charge the retry rounds burned
  // against the dead link before giving up, not just guard + local. The old
  // formula priced outages as nearly-free local serves, so raising the
  // outage rate *lowered* the modelled remote cost and biased plans toward
  // remote branches exactly when the link was least reliable.
  CostParams costs;
  costs.guard_ms = 0.5;
  costs.remote_retry_ms = 2.0;
  costs.remote_rtt_ms = 8.0;
  costs.remote_retry_rounds = 3.0;

  // o = 1: every remote serve degrades after burning the full retry budget.
  //   c = p*local + (1-p)*(rounds*(retry+rtt) + guard + local) + guard
  costs.remote_outage_rate = 1.0;
  EXPECT_DOUBLE_EQ(SwitchUnionCost(0.5, 90, 100, costs),
                   0.5 * 90 + 0.5 * (3 * 10 + 0.5 + 90) + 0.5);

  // With a degraded branch at least as expensive as a healthy serve, cost is
  // monotone non-decreasing in the outage rate.
  double prev = -1;
  for (double o = 0.0; o <= 1.0; o += 0.1) {
    costs.remote_outage_rate = o;
    double c = SwitchUnionCost(0.5, 90, 100, costs);
    EXPECT_GE(c, prev) << "outage rate " << o;
    prev = c;
  }

  // Healthy link (o = 0): the retry budget must not leak into the cost.
  costs.remote_outage_rate = 0.0;
  costs.remote_retry_rounds = 50.0;
  EXPECT_DOUBLE_EQ(SwitchUnionCost(0.5, 10, 100, costs), 55.5);
}

TEST(CostTest, AccessPathCosts) {
  CostParams costs;
  TableStats stats;
  stats.row_count = 100000;
  stats.avg_row_bytes = 64;
  double full = FullScanCost(stats, costs);
  double narrow = ClusteredRangeCost(stats, 10, costs);
  double index = SecondaryIndexCost(10, costs);
  EXPECT_LT(narrow, full);
  EXPECT_LT(index, full);
  // A secondary index fetching nearly everything is worse than scanning.
  EXPECT_GT(SecondaryIndexCost(100000, costs), full);
}

// -- bounds extraction & view matching --------------------------------------------

std::unique_ptr<Expr> Where(const std::string& pred) {
  auto stmt = ParseSelect("SELECT 1 FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok());
  return std::move((*stmt)->where);
}

class BoundsTest : public ::testing::Test {
 protected:
  BoundsTest() : schema_({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}) {
    aliases_["t"] = 0;
  }
  std::map<std::string, RangeBound> Extract(const std::string& pred) {
    expr_ = Where(pred);
    conjuncts_ = SplitConjuncts(expr_.get());
    return ExtractBounds(conjuncts_, 0, aliases_, schema_);
  }
  Schema schema_;
  AliasMap aliases_;
  std::unique_ptr<Expr> expr_;
  std::vector<const Expr*> conjuncts_;
};

TEST_F(BoundsTest, RangeAndEquality) {
  auto bounds = Extract("t.a >= 5 AND t.a < 10 AND t.b = 3");
  ASSERT_EQ(bounds.count("a"), 1u);
  EXPECT_EQ(bounds["a"].lo->AsInt(), 5);
  EXPECT_FALSE(bounds["a"].lo_strict);
  EXPECT_EQ(bounds["a"].hi->AsInt(), 10);
  EXPECT_TRUE(bounds["a"].hi_strict);
  EXPECT_TRUE(bounds["b"].has_eq);
}

TEST_F(BoundsTest, MirroredLiteralComparison) {
  auto bounds = Extract("5 <= t.a AND 10 > t.a");
  EXPECT_EQ(bounds["a"].lo->AsInt(), 5);
  EXPECT_EQ(bounds["a"].hi->AsInt(), 10);
  EXPECT_TRUE(bounds["a"].hi_strict);
}

TEST_F(BoundsTest, TightensAcrossConjuncts) {
  auto bounds = Extract("t.a >= 5 AND t.a >= 8 AND t.a <= 20 AND t.a <= 12");
  EXPECT_EQ(bounds["a"].lo->AsInt(), 8);
  EXPECT_EQ(bounds["a"].hi->AsInt(), 12);
}

TEST_F(BoundsTest, IgnoresJoinPredicates) {
  auto bounds = Extract("t.a = t.b");
  EXPECT_TRUE(bounds.empty());
}

TEST_F(BoundsTest, BareColumnsMatchSchema) {
  auto bounds = Extract("a > 3 AND zzz > 4");
  EXPECT_EQ(bounds.count("a"), 1u);
  EXPECT_EQ(bounds.count("zzz"), 0u);
}

TEST(RangeSubsumptionTest, Cases) {
  ColumnRange view_range{"a", Value::Int(0), Value::Int(100)};
  std::map<std::string, RangeBound> bounds;
  // No bound on the column: the query may select outside the view.
  EXPECT_FALSE(RangeSubsumed(view_range, bounds));
  bounds["a"].lo = Value::Int(10);
  bounds["a"].hi = Value::Int(90);
  EXPECT_TRUE(RangeSubsumed(view_range, bounds));
  bounds["a"].lo = Value::Int(-5);
  EXPECT_FALSE(RangeSubsumed(view_range, bounds));
  // Half-open view ranges.
  ColumnRange lower_only{"a", Value::Int(0), std::nullopt};
  bounds["a"].lo = Value::Int(10);
  bounds["a"].hi.reset();
  EXPECT_TRUE(RangeSubsumed(lower_only, bounds));
}

// -- plan choice on the paper's TPCD setup ------------------------------------------

class PlanChoiceTest : public ::testing::Test {
 protected:
  PlanChoiceTest() : fx_(0.01) {
    // Run past a few refresh cycles so guards are in steady state.
    fx_.sys.AdvanceTo(40000);
  }

  PlanShape ShapeOf(const std::string& sql) {
    QueryPlan plan = MustPrepare(fx_.session.get(), sql);
    if (plan.root == nullptr) return PlanShape::kRemoteOnly;
    return plan.Shape();
  }

  TpcdFixture fx_;
};

TEST_F(PlanChoiceTest, Q1DefaultGoesRemote) {
  // Paper Q1/Q2: no currency clause -> remote (tight default).
  EXPECT_EQ(ShapeOf("SELECT c_name FROM Customer C WHERE C.c_custkey = 1"),
            PlanShape::kRemoteOnly);
}

TEST_F(PlanChoiceTest, Q3ConsistencyAcrossRegionsForcesRemote) {
  // Views satisfy the bounds but live in different regions: consistency
  // cannot be guaranteed locally (paper Q3 -> plan 1).
  EXPECT_EQ(
      ShapeOf("SELECT C.c_name, O.o_totalprice FROM Customer C, Orders O "
              "WHERE O.o_custkey = C.c_custkey AND C.c_custkey = 5 "
              "CURRENCY BOUND 10 MIN ON (C, O)"),
      PlanShape::kRemoteOnly);
}

TEST_F(PlanChoiceTest, Q4MixedPlan) {
  // Paper Q4: consistency relaxed; Customer bound below CR1's delay (5s) so
  // cust never usable locally, Orders relaxed -> mixed plan (plan 4).
  EXPECT_EQ(
      ShapeOf("SELECT C.c_name, O.o_totalprice FROM Customer C, Orders O "
              "WHERE O.o_custkey = C.c_custkey AND C.c_custkey = 5 "
              "CURRENCY BOUND 3 SECONDS ON (C), 10 MIN ON (O)"),
      PlanShape::kMixed);
}

TEST_F(PlanChoiceTest, Q5AllLocal) {
  // Paper Q5: both bounds relaxed, separate classes -> both views usable.
  EXPECT_EQ(
      ShapeOf("SELECT C.c_name, O.o_totalprice FROM Customer C, Orders O "
              "WHERE O.o_custkey = C.c_custkey AND C.c_custkey = 5 "
              "CURRENCY BOUND 10 MIN ON (C), 10 MIN ON (O)"),
      PlanShape::kAllLocal);
}

TEST_F(PlanChoiceTest, Q6SelectiveRangePrefersRemoteIndex) {
  // Paper Q6: highly selective range on c_acctbal; the back-end has a
  // secondary index, the cached view does not -> remote wins even though
  // the view satisfies the currency bound.
  EXPECT_EQ(
      ShapeOf("SELECT c_custkey, c_acctbal FROM Customer C "
              "WHERE C.c_acctbal > 9995 "
              "CURRENCY BOUND 10 MIN ON (C)"),
      PlanShape::kRemoteOnly);
}

TEST_F(PlanChoiceTest, StatisticsRefreshInvalidatesCachedPlans) {
  // Regression: a Statistics refresh that flips the Eq. 1 winner must bump
  // the plan-cache version — otherwise the stale Q6 remote plan keeps being
  // served from the cache after the local view became the winner.
  Session* s = fx_.session.get();
  PlanCache& pc = fx_.sys.cache()->plan_cache();
  const std::string q6 =
      "SELECT c_custkey, c_acctbal FROM Customer C WHERE C.c_acctbal > 9995 "
      "CURRENCY BOUND 10 MIN ON (C)";
  QueryResult before = testing_util::MustExecute(s, q6);
  EXPECT_EQ(before.shape, PlanShape::kRemoteOnly);
  int64_t hits0 = pc.hits();
  testing_util::MustExecute(s, q6);
  EXPECT_EQ(pc.hits(), hits0 + 1);  // the plan is now served from the cache

  // Refresh: balances collapsed into a narrow band, so `> 9995` is no longer
  // selective and the back-end index loses its advantage.
  TableStats stats = fx_.sys.cache()->catalog().GetStats("Customer");
  auto col = stats.columns.find("c_acctbal");
  ASSERT_NE(col, stats.columns.end());
  col->second.min = Value::Double(9990.0);
  int64_t inval0 = pc.invalidations();
  ASSERT_TRUE(fx_.sys.cache()->UpdateStatistics("Customer", stats).ok());
  EXPECT_GT(pc.invalidations(), inval0);

  QueryResult after = testing_util::MustExecute(s, q6);
  EXPECT_EQ(after.shape, PlanShape::kAllLocal)
      << "stale cached plan survived a statistics refresh that changed the "
         "Eq. 1 winner";
}

TEST_F(PlanChoiceTest, Q7WideRangePrefersLocalScan) {
  // Paper Q7: widening the range erodes the index advantage -> local view.
  EXPECT_EQ(
      ShapeOf("SELECT c_custkey, c_acctbal FROM Customer C "
              "WHERE C.c_acctbal > 1000 "
              "CURRENCY BOUND 10 MIN ON (C)"),
      PlanShape::kAllLocal);
}

TEST_F(PlanChoiceTest, BoundBelowDelayDiscardsLocalAtCompileTime) {
  QueryPlan plan = MustPrepare(
      fx_.session.get(),
      "SELECT c_name FROM Customer C WHERE C.c_custkey = 1 "
      "CURRENCY BOUND 4 SECONDS ON (C)");  // CR1 delay is 5s
  EXPECT_EQ(plan.Shape(), PlanShape::kRemoteOnly);
  // No guard in the plan at all: the check happened at compile time.
  EXPECT_EQ(plan.DescribeTree().find("SwitchUnion"), std::string::npos);
}

TEST_F(PlanChoiceTest, DeliveredPropertySatisfiesConstraint) {
  QueryPlan plan = MustPrepare(
      fx_.session.get(),
      "SELECT C.c_name, O.o_totalprice FROM Customer C, Orders O "
      "WHERE O.o_custkey = C.c_custkey AND C.c_custkey = 5 "
      "CURRENCY BOUND 10 MIN ON (C), 10 MIN ON (O)");
  ASSERT_NE(plan.root, nullptr);
  EXPECT_TRUE(plan.root->delivered.Satisfies(plan.resolved.constraint));
}

TEST_F(PlanChoiceTest, ViewMatchingDisabledForcesRemote) {
  auto select = ParseSelect(
      "SELECT c_name FROM Customer C WHERE C.c_custkey = 1 "
      "CURRENCY BOUND 10 MIN ON (C)");
  ASSERT_TRUE(select.ok());
  OptimizerOptions opts = fx_.sys.cache()->default_options();
  opts.enable_view_matching = false;
  auto plan = fx_.sys.cache()->Prepare(**select, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->Shape(), PlanShape::kRemoteOnly);
}

TEST_F(PlanChoiceTest, GuardsDisabledUsesBareLocalScan) {
  auto select = ParseSelect(
      "SELECT c_name FROM Customer C WHERE C.c_custkey = 1 "
      "CURRENCY BOUND 10 MIN ON (C)");
  ASSERT_TRUE(select.ok());
  OptimizerOptions opts = fx_.sys.cache()->default_options();
  opts.enable_currency_guards = false;
  auto plan = fx_.sys.cache()->Prepare(**select, opts);
  ASSERT_TRUE(plan.ok());
  std::string tree = plan->DescribeTree();
  EXPECT_EQ(tree.find("SwitchUnion"), std::string::npos);
  EXPECT_NE(tree.find("cust_prj"), std::string::npos);
}

TEST_F(PlanChoiceTest, EveryLocalAccessIsGuarded) {
  // Paper: "every local data access is protected by a currency guard".
  QueryPlan plan = MustPrepare(
      fx_.session.get(),
      "SELECT C.c_name, O.o_totalprice FROM Customer C, Orders O "
      "WHERE O.o_custkey = C.c_custkey AND C.c_custkey = 5 "
      "CURRENCY BOUND 10 MIN ON (C), 10 MIN ON (O)");
  // Walk the tree: every kLocalScan of a view must be under a SwitchUnion.
  std::function<void(const PhysicalOp&, bool)> walk =
      [&](const PhysicalOp& op, bool guarded) {
        if (op.kind == PhysOpKind::kLocalScan && op.target.is_view) {
          EXPECT_TRUE(guarded) << "unguarded view scan of " << op.target.name;
        }
        bool next = guarded || op.kind == PhysOpKind::kSwitchUnion;
        for (const auto& c : op.children) walk(*c, next);
      };
  walk(*plan.root, false);
}


// Selectivity sweep across the Q6/Q7 regime: there must be exactly one
// crossover point — remote (back-end index) for selective predicates,
// flipping once to local (view scan) as the range widens, never back.
class SelectivitySweepTest : public ::testing::Test {};

TEST_F(SelectivitySweepTest, SingleCrossoverFromRemoteToLocal) {
  TpcdFixture fx(0.02);
  fx.sys.AdvanceTo(40000);
  // Thresholds from most selective (acctbal close to the max ~10000) down.
  bool seen_local = false;
  int flips = 0;
  PlanShape prev = PlanShape::kRemoteOnly;
  bool first = true;
  for (int threshold : {9990, 9900, 9500, 9000, 8000, 6000, 4000, 2000, 0}) {
    auto plan = MustPrepare(
        fx.session.get(),
        StrPrintf("SELECT c_custkey, c_acctbal FROM Customer C "
                  "WHERE C.c_acctbal > %d CURRENCY BOUND 10 MIN ON (C)",
                  threshold));
    ASSERT_NE(plan.root, nullptr);
    PlanShape shape = plan.Shape();
    EXPECT_TRUE(shape == PlanShape::kRemoteOnly ||
                shape == PlanShape::kAllLocal);
    if (!first && shape != prev) ++flips;
    if (shape == PlanShape::kAllLocal) seen_local = true;
    if (seen_local) {
      // Once local wins it stays local as the range keeps widening.
      EXPECT_EQ(shape, PlanShape::kAllLocal) << "threshold " << threshold;
    }
    prev = shape;
    first = false;
  }
  EXPECT_TRUE(seen_local);
  EXPECT_LE(flips, 1);
  // And the most selective end must be remote (the paper's Q6).
}

// Bound sweep on a join: as the Customer bound crosses CR1's delay, the plan
// moves monotonically remote-ward: all-local -> mixed -> (never back).
TEST_F(SelectivitySweepTest, BoundSweepMovesPlanMonotonically) {
  TpcdFixture fx(0.01);
  fx.sys.AdvanceTo(40000);
  auto rank = [](PlanShape s) {
    switch (s) {
      case PlanShape::kAllLocal: return 0;
      case PlanShape::kMixed: return 1;
      case PlanShape::kLocalJoinRemoteFetches: return 2;
      case PlanShape::kRemoteOnly: return 2;
    }
    return 3;
  };
  int prev_rank = -1;
  // Sweep the Customer bound downward; Orders stays relaxed.
  for (int bound_s : {600, 60, 20, 8, 4, 1}) {
    auto plan = MustPrepare(
        fx.session.get(),
        StrPrintf("SELECT C.c_name, O.o_totalprice FROM Customer C, Orders O "
                  "WHERE C.c_custkey = 5 AND O.o_custkey = C.c_custkey "
                  "CURRENCY BOUND %d SECONDS ON (C), 10 MIN ON (O)",
                  bound_s));
    ASSERT_NE(plan.root, nullptr);
    int r = rank(plan.Shape());
    EXPECT_GE(r, prev_rank) << "bound " << bound_s << "s moved plan back "
                            << "toward local";
    prev_rank = std::max(prev_rank, r);
  }
}

TEST_F(PlanChoiceTest, AllRemoteJoinAppliesItsJoinPredicateOnce) {
  // bench_microbench's 2-table join with no currency clause: the default
  // bound sends both operands to the back end, and the combined remote
  // query pushes the join predicate into its statement. The cache must not
  // apply it again as a Filter over the fetched rows.
  const std::string sql =
      "SELECT C.c_name, O.o_orderkey, O.o_totalprice "
      "FROM Customer C, Orders O "
      "WHERE C.c_custkey = 42 AND O.o_custkey = C.c_custkey";
  QueryPlan plan = MustPrepare(fx_.session.get(), sql);
  ASSERT_NE(plan.root, nullptr);
  const PhysicalOp* remote = plan.root.get();
  while (remote->kind != PhysOpKind::kRemoteQuery) {
    EXPECT_NE(remote->kind, PhysOpKind::kFilter) << plan.DescribeTree();
    ASSERT_EQ(remote->children.size(), 1u) << plan.DescribeTree();
    remote = remote->children[0].get();
  }
  EXPECT_EQ(remote->remote_operands.size(), 2u) << plan.DescribeTree();
  EXPECT_EQ(plan.root->est_rows, remote->est_rows) << plan.DescribeTree();

  const Table* customer = fx_.sys.backend()->table("Customer");
  const Table* orders = fx_.sys.backend()->table("Orders");
  const size_t c_name = *customer->schema().FindColumn("c_name");
  const size_t o_custkey = *orders->schema().FindColumn("o_custkey");
  const size_t o_orderkey = *orders->schema().FindColumn("o_orderkey");
  const size_t o_totalprice = *orders->schema().FindColumn("o_totalprice");
  const Row* c42 = customer->Get({Value::Int(42)});
  ASSERT_NE(c42, nullptr);
  std::multiset<std::string> expected;
  for (const auto& [key, row] : orders->rows()) {
    if (row[o_custkey].AsInt() != 42) continue;
    expected.insert(RowToString(
        {(*c42)[c_name], row[o_orderkey], row[o_totalprice]}));
  }
  ASSERT_FALSE(expected.empty());
  QueryResult result = MustExecute(fx_.session.get(), sql);
  std::multiset<std::string> got;
  for (const Row& row : result.rows) got.insert(RowToString(row));
  EXPECT_EQ(got, expected);
}

TEST_F(PlanChoiceTest, BackendEstimateReasonable) {
  auto select =
      ParseSelect("SELECT c_name FROM Customer C WHERE C.c_custkey = 1");
  ASSERT_TRUE(select.ok());
  auto est = EstimateBackendQuery(**select, fx_.sys.cache()->catalog(),
                                  fx_.sys.cache()->costs());
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->cost, 0.0);
  EXPECT_NEAR(est->rows, 1.0, 2.0);
}

}  // namespace
}  // namespace rcc
