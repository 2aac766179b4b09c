#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>

#include "exec/event_stream.h"
#include "exec/executor.h"
#include "test_util.h"

namespace rcc {
namespace {

using testing_util::BookstoreFixture;
using testing_util::IntColumn;
using testing_util::MustExecute;
using testing_util::MustPrepare;

// All queries here use a relaxed bound so they run against the cached views
// (fresh at t=0, so local results equal the master data), unless stated.

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : fx_(10000, 2000) {}

  QueryResult Run(const std::string& sql) {
    return MustExecute(fx_.session.get(), sql);
  }

  /// The sorted distinct values of column 0.
  static std::vector<int64_t> IsbnSet(const QueryResult& r) {
    std::vector<int64_t> isbns = IntColumn(r);
    std::sort(isbns.begin(), isbns.end());
    isbns.erase(std::unique(isbns.begin(), isbns.end()), isbns.end());
    return isbns;
  }

  /// True when a subplan of `sql`'s plan contains an operator of `kind`.
  bool SubplanHas(const std::string& sql, PhysOpKind kind) {
    QueryPlan plan = MustPrepare(fx_.session.get(), sql);
    std::function<bool(const PhysicalOp&)> has = [&](const PhysicalOp& op) {
      if (op.kind == kind) return true;
      for (const auto& child : op.children) {
        if (has(*child)) return true;
      }
      return false;
    };
    for (const auto& [stmt, sub] : plan.subplans) {
      if (has(*sub.root)) return true;
    }
    return false;
  }

  BookstoreFixture fx_;
};

TEST_F(ExecTest, PointLookup) {
  QueryResult r = Run(
      "SELECT isbn, title FROM Books B WHERE B.isbn = 7 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 7);
  EXPECT_EQ(r.shape, PlanShape::kAllLocal);
}

TEST_F(ExecTest, RangePredicate) {
  QueryResult r = Run(
      "SELECT isbn FROM Books B WHERE B.isbn >= 10 AND B.isbn <= 15 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(IntColumn(r), (std::vector<int64_t>{10, 11, 12, 13, 14, 15}));
}

TEST_F(ExecTest, LocalAndRemoteAgree) {
  // At t=0 the views are fresh: a local plan and a forced-remote plan (tight
  // default) must return identical results.
  const char* base =
      "SELECT B.isbn, B.price FROM Books B WHERE B.price > 100 ";
  QueryResult remote = Run(base);
  QueryResult local =
      Run(std::string(base) + "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(remote.shape, PlanShape::kRemoteOnly);
  EXPECT_EQ(local.shape, PlanShape::kAllLocal);
  ASSERT_EQ(remote.rows.size(), local.rows.size());
  auto key = [](const Row& row) { return row[0].AsInt(); };
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  for (const Row& row : remote.rows) a.push_back(key(row));
  for (const Row& row : local.rows) b.push_back(key(row));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(ExecTest, JoinLocalViews) {
  QueryResult r = Run(
      "SELECT B.isbn, R.review_id, R.rating FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND B.isbn <= 3 "
      "CURRENCY BOUND 1 HOUR ON (B), 1 HOUR ON (R)");
  EXPECT_EQ(r.shape, PlanShape::kAllLocal);
  ASSERT_GT(r.rows.size(), 0u);
  for (const Row& row : r.rows) {
    EXPECT_LE(row[0].AsInt(), 3);
  }
}

TEST_F(ExecTest, OrderByAscDesc) {
  QueryResult r = Run(
      "SELECT isbn FROM Books B WHERE B.isbn <= 5 ORDER BY isbn DESC "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(IntColumn(r), (std::vector<int64_t>{5, 4, 3, 2, 1}));
}

TEST_F(ExecTest, AggregatesGlobal) {
  QueryResult r = Run(
      "SELECT count(*) AS n, min(isbn) AS lo, max(isbn) AS hi "
      "FROM Books B CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 500);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
  EXPECT_EQ(r.rows[0][2].AsInt(), 500);
}

TEST_F(ExecTest, AggregatesGroupBy) {
  QueryResult r = Run(
      "SELECT R.rating, count(*) AS n FROM Reviews R "
      "GROUP BY R.rating ORDER BY R.rating "
      "CURRENCY BOUND 1 HOUR ON (R)");
  ASSERT_EQ(r.rows.size(), 5u);  // ratings 1..5
  int64_t total = 0;
  for (const Row& row : r.rows) total += row[1].AsInt();
  // Equals total review count.
  QueryResult all = Run(
      "SELECT count(*) FROM Reviews R CURRENCY BOUND 1 HOUR ON (R)");
  EXPECT_EQ(total, all.rows[0][0].AsInt());
}

TEST_F(ExecTest, AvgAndSum) {
  QueryResult r = Run(
      "SELECT sum(R.rating) AS s, avg(R.rating) AS a, count(R.rating) AS c "
      "FROM Reviews R CURRENCY BOUND 1 HOUR ON (R)");
  ASSERT_EQ(r.rows.size(), 1u);
  double sum = static_cast<double>(r.rows[0][0].AsInt());
  double avg = r.rows[0][1].AsDouble();
  double cnt = static_cast<double>(r.rows[0][2].AsInt());
  EXPECT_NEAR(avg, sum / cnt, 1e-9);
}

TEST_F(ExecTest, EmptyAggregateYieldsOneRow) {
  QueryResult r = Run(
      "SELECT count(*) FROM Books B WHERE B.isbn > 100000 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(ExecTest, ExistsCorrelatedSubquery) {
  // Books with at least one sale in 2003 (paper Q3 shape).
  QueryResult with_sales = Run(
      "SELECT B.isbn FROM Books B "
      "WHERE B.isbn <= 20 AND EXISTS ("
      " SELECT 1 FROM Sales S WHERE S.isbn = B.isbn AND S.year = 2003 "
      " CURRENCY BOUND 1 HOUR ON (S)) "
      "CURRENCY BOUND 1 HOUR ON (B)");
  // Validate against a remote join-based ground truth.
  QueryResult ground = Run(
      "SELECT B.isbn, count(*) FROM Books B, Sales S "
      "WHERE S.isbn = B.isbn AND S.year = 2003 AND B.isbn <= 20 "
      "GROUP BY B.isbn");
  EXPECT_FALSE(ground.rows.empty());
  EXPECT_EQ(IsbnSet(with_sales), IsbnSet(ground));
}

// -- Subplan re-open ----------------------------------------------------------
// An EXISTS/IN subplan is built once per execution and re-opened per outer
// row, so every stateful operator in it must reset on Open. Each subquery
// below is correlated and reads rows shared across outer rows (years,
// ratings), so state left over from an earlier outer row would change the
// answer; each result is checked against a subquery-free ground truth.

TEST_F(ExecTest, ReopenedSubplanResetsHashAggregate) {
  // Books with at least two 5-star reviews.
  const std::string sql =
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 40 AND 5 IN ("
      " SELECT R.rating FROM Reviews R WHERE R.isbn = B.isbn"
      " GROUP BY R.rating HAVING count(*) > 1"
      " CURRENCY BOUND 1 HOUR ON (R)) "
      "CURRENCY BOUND 1 HOUR ON (B)";
  EXPECT_TRUE(SubplanHas(sql, PhysOpKind::kHashAggregate));
  QueryResult ground = Run(
      "SELECT R.isbn, count(*) FROM Reviews R "
      "WHERE R.isbn <= 40 AND R.rating = 5 GROUP BY R.isbn");
  std::vector<int64_t> expected;
  for (const Row& row : ground.rows) {
    if (row[1].AsInt() > 1) expected.push_back(row[0].AsInt());
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(IsbnSet(Run(sql)), expected);
}

TEST_F(ExecTest, ReopenedSubplanResetsSort) {
  // Books with a sale in 2003, the subquery's sales ordered by amount.
  const std::string sql =
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 40 AND 2003 IN ("
      " SELECT S.year, S.amount FROM Sales S WHERE S.isbn = B.isbn"
      " ORDER BY S.amount DESC"
      " CURRENCY BOUND 1 HOUR ON (S)) "
      "CURRENCY BOUND 1 HOUR ON (B)";
  EXPECT_TRUE(SubplanHas(sql, PhysOpKind::kSort));
  std::vector<int64_t> expected = IsbnSet(Run(
      "SELECT S.isbn FROM Sales S WHERE S.isbn <= 40 AND S.year = 2003"));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(IsbnSet(Run(sql)), expected);
}

TEST_F(ExecTest, ReopenedSubplanResetsHashJoin) {
  // Books with two sales in the same year: a self-join on the unindexed
  // year column.
  const std::string sql =
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 40 AND EXISTS ("
      " SELECT 1 FROM Sales S1, Sales S2"
      " WHERE S1.isbn = B.isbn AND S2.isbn = B.isbn AND S1.year = S2.year"
      " AND S1.sale_id > S2.sale_id"
      " CURRENCY BOUND 1 HOUR ON (S1, S2)) "
      "CURRENCY BOUND 1 HOUR ON (B)";
  EXPECT_TRUE(SubplanHas(sql, PhysOpKind::kHashJoin));
  QueryResult ground = Run(
      "SELECT S.isbn, S.year, count(*) FROM Sales S WHERE S.isbn <= 40 "
      "GROUP BY S.isbn, S.year");
  std::set<int64_t> repeated;
  for (const Row& row : ground.rows) {
    if (row[2].AsInt() > 1) repeated.insert(row[0].AsInt());
  }
  ASSERT_FALSE(repeated.empty());
  EXPECT_EQ(IsbnSet(Run(sql)),
            std::vector<int64_t>(repeated.begin(), repeated.end()));
}

TEST_F(ExecTest, ReopenedNestedExists) {
  // Books with a 2003 sale and a 5-star review: the inner EXISTS re-opens
  // per sale row, the outer one per book.
  const std::string sql =
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 40 AND EXISTS ("
      " SELECT 1 FROM Sales S WHERE S.isbn = B.isbn AND S.year = 2003"
      " AND EXISTS (SELECT 1 FROM Reviews R"
      "  WHERE R.isbn = S.isbn AND R.rating = 5"
      "  CURRENCY BOUND 1 HOUR ON (R))"
      " CURRENCY BOUND 1 HOUR ON (S)) "
      "CURRENCY BOUND 1 HOUR ON (B)";
  std::vector<int64_t> sold = IsbnSet(Run(
      "SELECT S.isbn FROM Sales S WHERE S.isbn <= 40 AND S.year = 2003"));
  std::vector<int64_t> starred = IsbnSet(Run(
      "SELECT R.isbn FROM Reviews R WHERE R.isbn <= 40 AND R.rating = 5"));
  std::vector<int64_t> expected;
  std::set_intersection(sold.begin(), sold.end(), starred.begin(),
                        starred.end(), std::back_inserter(expected));
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(IsbnSet(Run(sql)), expected);
}

TEST_F(ExecTest, InSubquery) {
  QueryResult r = Run(
      "SELECT B.isbn FROM Books B "
      "WHERE B.isbn IN (SELECT S.isbn FROM Sales S WHERE S.year = 2002) "
      "AND B.isbn <= 10");
  for (int64_t isbn : IntColumn(r)) {
    EXPECT_LE(isbn, 10);
  }
  // Cross-check one membership with a direct count.
  if (!r.rows.empty()) {
    int64_t isbn = r.rows[0][0].AsInt();
    QueryResult n = Run(
        "SELECT count(*) FROM Sales S WHERE S.isbn = " +
        std::to_string(isbn) + " AND S.year = 2002");
    EXPECT_GT(n.rows[0][0].AsInt(), 0);
  }
}

TEST_F(ExecTest, InSubqueryFollowsThreeValuedLogic) {
  // The subquery yields NULL for a 2001 sale (0 / 0) and the book's isbn for
  // any other. IN is true on a match even after a NULL, unknown when only
  // NULLs come back, and false on no rows; NOT IN keeps only the last.
  const std::string sub =
      " (SELECT S.isbn * (S.year - 2001) / (S.year - 2001) FROM Sales S"
      " WHERE S.isbn = B.isbn CURRENCY BOUND 1 HOUR ON (S)) "
      "CURRENCY BOUND 1 HOUR ON (B)";
  QueryResult in =
      Run("SELECT B.isbn FROM Books B WHERE B.isbn <= 60 AND B.isbn IN" + sub);
  QueryResult not_in = Run(
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 60 AND NOT B.isbn IN" + sub);
  QueryResult sales =
      Run("SELECT S.isbn, S.year FROM Sales S WHERE S.isbn <= 60");
  std::set<int64_t> sold;
  std::set<int64_t> sold_after_2001;
  for (const Row& row : sales.rows) {
    sold.insert(row[0].AsInt());
    if (row[1].AsInt() != 2001) sold_after_2001.insert(row[0].AsInt());
  }
  std::vector<int64_t> unsold;
  for (int64_t isbn = 1; isbn <= 60; ++isbn) {
    if (sold.count(isbn) == 0) unsold.push_back(isbn);
  }
  ASSERT_FALSE(unsold.empty());
  ASSERT_LT(sold_after_2001.size(), sold.size());  // some books: NULLs only
  EXPECT_EQ(IsbnSet(in), std::vector<int64_t>(sold_after_2001.begin(),
                                              sold_after_2001.end()));
  EXPECT_EQ(IsbnSet(not_in), unsold);
}

TEST_F(ExecTest, DerivedTable) {
  QueryResult r = Run(
      "SELECT T.isbn FROM (SELECT B.isbn AS isbn FROM Books B "
      " WHERE B.isbn <= 4 CURRENCY BOUND 1 HOUR ON (B)) T "
      "WHERE T.isbn > 1");
  EXPECT_EQ(IntColumn(r), (std::vector<int64_t>{2, 3, 4}));
}

TEST_F(ExecTest, HavingFiltersGroups) {
  QueryResult r = Run(
      "SELECT R.rating, count(*) AS n FROM Reviews R "
      "GROUP BY R.rating HAVING count(*) > 100 ORDER BY R.rating "
      "CURRENCY BOUND 1 HOUR ON (R)");
  QueryResult all = Run(
      "SELECT R.rating, count(*) AS n FROM Reviews R "
      "GROUP BY R.rating ORDER BY R.rating "
      "CURRENCY BOUND 1 HOUR ON (R)");
  // Having keeps exactly the groups whose count exceeds the threshold.
  size_t expected = 0;
  for (const Row& row : all.rows) {
    if (row[1].AsInt() > 100) ++expected;
  }
  EXPECT_EQ(r.rows.size(), expected);
  for (const Row& row : r.rows) {
    EXPECT_GT(row[1].AsInt(), 100);
  }
}

TEST_F(ExecTest, HavingWithHiddenAggregate) {
  // The HAVING aggregate (min) is not in the select list: a hidden slot.
  QueryResult r = Run(
      "SELECT R.rating, count(*) AS n FROM Reviews R "
      "GROUP BY R.rating HAVING min(R.isbn) = 1 "
      "CURRENCY BOUND 1 HOUR ON (R)");
  // Only the output columns of the select list survive.
  EXPECT_EQ(r.layout.num_slots(), 2u);
  for (const Row& row : r.rows) {
    // Verify group membership: rating groups containing isbn 1.
    QueryResult probe = Run(
        "SELECT count(*) FROM Reviews R WHERE R.isbn = 1 AND R.rating = " +
        row[0].ToString());
    EXPECT_GT(probe.rows[0][0].AsInt(), 0);
  }
}

TEST_F(ExecTest, HavingWithoutGroupingRejected) {
  auto result = fx_.session->Execute(
      "SELECT isbn FROM Books B WHERE B.isbn = 1 HAVING isbn > 0");
  EXPECT_FALSE(result.ok());
}

TEST_F(ExecTest, SelectDistinct) {
  QueryResult dup = Run(
      "SELECT R.rating FROM Reviews R WHERE R.isbn <= 10 "
      "CURRENCY BOUND 1 HOUR ON (R)");
  QueryResult distinct = Run(
      "SELECT DISTINCT R.rating FROM Reviews R WHERE R.isbn <= 10 "
      "CURRENCY BOUND 1 HOUR ON (R)");
  EXPECT_GT(dup.rows.size(), distinct.rows.size());
  std::set<int64_t> unique;
  for (const Row& row : dup.rows) unique.insert(row[0].AsInt());
  EXPECT_EQ(distinct.rows.size(), unique.size());
}

TEST_F(ExecTest, ProjectionExpressions) {
  QueryResult r = Run(
      "SELECT B.isbn * 2 + 1 AS x FROM Books B WHERE B.isbn <= 3 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(IntColumn(r), (std::vector<int64_t>{3, 5, 7}));
}

TEST_F(ExecTest, GuardSwitchesToRemoteWhenStale) {
  // Make the view stale relative to a tight-ish bound: advance past several
  // refresh cycles, then ask for <= 1s currency. delay=2000 > 1s, so the
  // optimizer won't even consider the local view.
  fx_.sys.AdvanceTo(60000);
  QueryResult r = Run(
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 SECONDS ON (B)");
  EXPECT_EQ(r.shape, PlanShape::kRemoteOnly);
}

TEST_F(ExecTest, GuardFallsBackAtRunTime) {
  // Bound between delay and delay+interval: the plan keeps both branches and
  // decides at run time. Freeze replication by never advancing the clock
  // past deliveries, then advance far: local heartbeat lags, guard fails.
  QueryResult fresh = Run(
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 8 SECONDS ON (B)");
  EXPECT_EQ(fresh.shape, PlanShape::kAllLocal);
  EXPECT_EQ(fresh.stats.switch_local, 1);

  // Stop heartbeat deliveries from advancing by jumping between agent
  // deliveries: right after t=10s wakeup + 2s delay, data reflects t=10s.
  // At t=19.9s staleness is 9.9s > 8s -> remote branch.
  fx_.sys.AdvanceTo(19900);
  QueryResult stale = MustExecute(
      fx_.session.get(),
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 8 SECONDS ON (B)");
  EXPECT_EQ(stale.stats.switch_remote, 1);
  EXPECT_EQ(stale.rows.size(), 1u);
}

TEST_F(ExecTest, StaleReadsSeeOldData) {
  // Update a book at the back-end; a relaxed read still sees the old price
  // until the agent delivers, then sees the new one.
  BackendServer* backend = fx_.sys.backend();
  const Row* master = backend->table("Books")->Get({Value::Int(1)});
  ASSERT_NE(master, nullptr);
  double old_price = (*master)[2].AsDouble();

  fx_.sys.AdvanceTo(500);
  Row updated = *master;
  updated[2] = Value::Double(old_price + 111.0);
  RowOp op;
  op.kind = RowOp::Kind::kUpdate;
  op.table = "Books";
  op.row = updated;
  ASSERT_TRUE(backend->ExecuteTransaction({op}).ok());

  const char* sql =
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)";
  QueryResult before = Run(sql);
  EXPECT_DOUBLE_EQ(before.rows[0][0].AsDouble(), old_price);

  // Tight query sees the new value immediately.
  QueryResult current = Run("SELECT price FROM Books B WHERE B.isbn = 1");
  EXPECT_DOUBLE_EQ(current.rows[0][0].AsDouble(), old_price + 111.0);

  // After a full refresh cycle (wakeup at 10s + delay 2s) the relaxed read
  // catches up.
  fx_.sys.AdvanceTo(13000);
  QueryResult after = Run(sql);
  EXPECT_DOUBLE_EQ(after.rows[0][0].AsDouble(), old_price + 111.0);
}

TEST_F(ExecTest, RemoteParameterizedInnerJoin) {
  // Join where the inner is local (clustered prefix seek on Reviews);
  // verifies parameterized seeks produce the same rows as a hash join.
  QueryResult seek = Run(
      "SELECT B.isbn, R.review_id FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND B.isbn = 9 "
      "CURRENCY BOUND 1 HOUR ON (B), 1 HOUR ON (R)");
  QueryResult ground = Run(
      "SELECT R.review_id, count(*) FROM Reviews R WHERE R.isbn = 9 "
      "GROUP BY R.review_id");
  EXPECT_EQ(seek.rows.size(), ground.rows.size());
}

TEST_F(ExecTest, SelectStar) {
  QueryResult r = Run(
      "SELECT * FROM Books B WHERE B.isbn = 2 CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.layout.num_slots(), 4u);
}


TEST_F(ExecTest, CoLocatedViewsSatisfyConsistencyWithOneGuard) {
  // BooksCopy and SalesCopy share region 1: a consistency class over both
  // CAN be satisfied locally — by a single SwitchUnion guarding the joined
  // unit (the delivered property keeps the operands together).
  QueryResult r = Run(
      "SELECT B.isbn, S.amount FROM Books B, Sales S "
      "WHERE B.isbn = S.isbn AND B.isbn <= 5 "
      "CURRENCY BOUND 10 MIN ON (B, S)");
  EXPECT_EQ(r.shape, PlanShape::kAllLocal);
  // Exactly one guard decision for the whole class.
  EXPECT_EQ(r.stats.switch_local + r.stats.switch_remote, 1);
  // Ground truth from the back-end.
  QueryResult ground = Run(
      "SELECT B.isbn, S.amount FROM Books B, Sales S "
      "WHERE B.isbn = S.isbn AND B.isbn <= 5");
  EXPECT_EQ(r.rows.size(), ground.rows.size());
}

TEST_F(ExecTest, CrossRegionClassCannotUseOneGuard) {
  // Books (R1) with Reviews (R2): same query shape, but the class spans
  // regions, so only the back-end can guarantee a shared snapshot.
  QueryResult r = Run(
      "SELECT B.isbn, R.rating FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND B.isbn <= 5 "
      "CURRENCY BOUND 10 MIN ON (B, R)");
  EXPECT_EQ(r.shape, PlanShape::kRemoteOnly);
}

TEST_F(ExecTest, GuardBoundaryIsStrict) {
  // The guard predicate is Heartbeat > now - B (strict): staleness == B
  // fails, staleness == B - 1ms passes.
  CurrencyRegion* region = fx_.sys.cache()->region(1);
  SimTimeMs hb = region->local_heartbeat();
  const char* sql =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 7 SECONDS ON (B)";
  fx_.sys.clock()->AdvanceTo(hb + 7000);  // staleness exactly == bound
  QueryResult at_bound = Run(sql);
  EXPECT_EQ(at_bound.stats.switch_remote, 1);

  // Re-prime a fresh system state one millisecond earlier.
  region->set_local_heartbeat(fx_.sys.Now() - 6999);
  QueryResult inside = Run(sql);
  EXPECT_EQ(inside.stats.switch_local, 1);
  region->set_local_heartbeat(hb);
}
TEST_F(ExecTest, PhaseTimingsPopulated) {
  QueryResult r = Run(
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_GE(r.stats.setup_ms, 0.0);
  EXPECT_GT(r.stats.setup_ms + r.stats.run_ms + r.stats.shutdown_ms, 0.0);
}

// -- Bound column references -------------------------------------------------
// Every column reference is bound to a (scope depth, slot) pair once per plan
// (plan/bind.h); each case runs a plan whose references reach past their own
// operator's row and checks its rows against the master tables.

class BindTest : public ExecTest {
 protected:
  const Table& Master(const std::string& name) {
    const Table* t = fx_.sys.backend()->table(name);
    EXPECT_NE(t, nullptr) << name;
    return *t;
  }

  /// Sorted rows of `r`, for order-insensitive comparison.
  static std::vector<Row> Sorted(std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    });
    return rows;
  }

  /// The largest scope depth any column reference of `plan` is bound to.
  static uint32_t MaxDepth(const QueryPlan& plan) {
    uint32_t depth = 0;
    auto expr = [&](const Expr* e) {
      VisitNodes(e, [&](const Expr* n) {
        if (n->kind == ExprKind::kColumnRef) {
          depth = std::max(depth, n->scope_depth);
        }
      });
    };
    std::function<void(const PhysicalOp&)> op = [&](const PhysicalOp& o) {
      for (const auto& e : o.seek_lo) expr(e.get());
      for (const auto& e : o.seek_hi) expr(e.get());
      expr(o.residual.get());
      for (const auto& e : o.remote_args) expr(e.get());
      for (const auto& e : o.exprs) expr(e.get());
      for (const auto& e : o.exprs2) expr(e.get());
      for (const auto& a : o.aggs) expr(a.arg.get());
      for (const auto& k : o.sort_keys) expr(k.expr.get());
      for (const auto& c : o.children) op(*c);
    };
    op(*plan.root);
    for (const auto& [stmt, sub] : plan.subplans) op(*sub.root);
    return depth;
  }

  /// First operator of `kind` in `op`'s tree (pre-order), or nullptr.
  static const PhysicalOp* Find(const PhysicalOp& op, PhysOpKind kind) {
    if (op.kind == kind) return &op;
    for (const auto& c : op.children) {
      if (const PhysicalOp* found = Find(*c, kind)) return found;
    }
    return nullptr;
  }
};

TEST_F(BindTest, NestedExistsReadsARowTwoScopesOut) {
  // The innermost block compares against B, two blocks out.
  const std::string sql =
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 40 AND EXISTS ("
      " SELECT 1 FROM Sales S WHERE S.isbn = B.isbn AND S.year = 2003"
      " AND EXISTS (SELECT 1 FROM Reviews R"
      "  WHERE R.rating = 5 AND R.review_id > S.sale_id - S.sale_id"
      "  AND R.isbn + 0 = B.isbn"
      "  CURRENCY BOUND 1 HOUR ON (R))"
      " CURRENCY BOUND 1 HOUR ON (S)) "
      "CURRENCY BOUND 1 HOUR ON (B)";
  EXPECT_EQ(MaxDepth(MustPrepare(fx_.session.get(), sql)), 2u);
  std::set<int64_t> sold;
  for (const auto& [key, row] : Master("Sales").rows()) {
    if (row[2].AsInt() == 2003) sold.insert(row[1].AsInt());
  }
  std::set<int64_t> starred;
  for (const auto& [key, row] : Master("Reviews").rows()) {
    if (row[2].AsInt() == 5) starred.insert(row[0].AsInt());
  }
  std::vector<int64_t> expected;
  for (const auto& [key, row] : Master("Books").rows()) {
    const int64_t isbn = row[0].AsInt();
    if (isbn <= 40 && sold.count(isbn) > 0 && starred.count(isbn) > 0) {
      expected.push_back(isbn);
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(IsbnSet(Run(sql)), expected);
}

TEST_F(BindTest, IndexNestedLoopInnerSeekReadsTheLeftRow) {
  const std::string sql =
      "SELECT B.isbn, R.review_id, R.rating FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND B.isbn <= 30 AND B.price > 50 "
      "CURRENCY BOUND 1 HOUR ON (B), 1 HOUR ON (R)";
  QueryPlan plan = MustPrepare(fx_.session.get(), sql);
  const PhysicalOp* join = Find(*plan.root, PhysOpKind::kNestedLoopJoin);
  ASSERT_NE(join, nullptr) << plan.DescribeTree();
  const PhysicalOp* inner =
      Find(*join->children[1], PhysOpKind::kLocalScan);
  ASSERT_NE(inner, nullptr);
  ASSERT_FALSE(inner->seek_lo.empty());
  EXPECT_EQ(inner->seek_lo[0]->kind, ExprKind::kColumnRef);
  std::set<int64_t> books;
  for (const auto& [key, row] : Master("Books").rows()) {
    if (row[0].AsInt() <= 30 && row[2].AsDouble() > 50) {
      books.insert(row[0].AsInt());
    }
  }
  std::vector<Row> expected;
  for (const auto& [key, row] : Master("Reviews").rows()) {
    if (books.count(row[0].AsInt()) > 0) {
      expected.push_back({row[0], row[1], row[2]});
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Sorted(Run(sql).rows), Sorted(expected));
}

TEST_F(BindTest, DerivedTableResolvesInItsOwnBlock) {
  // T's rows carry its own block's names; the outer block reads them by
  // T's alias and joins them with a base table.
  const std::string sql =
      "SELECT B.isbn, B.price, T.n FROM Books B, "
      "(SELECT R.isbn AS k, count(*) AS n FROM Reviews R "
      " WHERE R.isbn <= 25 GROUP BY R.isbn CURRENCY BOUND 1 HOUR ON (R)) T "
      "WHERE B.isbn = T.k CURRENCY BOUND 1 HOUR ON (B)";
  QueryPlan plan = MustPrepare(fx_.session.get(), sql);
  std::function<bool(const PhysicalOp&)> has_own =
      [&](const PhysicalOp& op) {
        if (op.own_aliases != nullptr) return true;
        for (const auto& c : op.children) {
          if (has_own(*c)) return true;
        }
        return false;
      };
  EXPECT_TRUE(has_own(*plan.root));
  std::map<int64_t, int64_t> counts;
  for (const auto& [key, row] : Master("Reviews").rows()) {
    if (row[0].AsInt() <= 25) ++counts[row[0].AsInt()];
  }
  std::vector<Row> expected;
  for (const auto& [key, row] : Master("Books").rows()) {
    auto it = counts.find(row[0].AsInt());
    if (it != counts.end()) {
      expected.push_back({row[0], row[2], Value::Int(it->second)});
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Sorted(Run(sql).rows), Sorted(expected));
}

TEST_F(BindTest, HavingAndOrderByOnAggregates) {
  // Both clauses read hidden aggregate slots of the aggregation's output.
  QueryResult r = Run(
      "SELECT R.isbn, count(*) AS n FROM Reviews R WHERE R.isbn <= 60 "
      "GROUP BY R.isbn HAVING sum(R.rating) > 8 "
      "ORDER BY max(R.rating) DESC, R.isbn "
      "CURRENCY BOUND 1 HOUR ON (R)");
  struct Group {
    int64_t n = 0;
    int64_t sum = 0;
    int64_t max = 0;
  };
  std::map<int64_t, Group> groups;
  for (const auto& [key, row] : Master("Reviews").rows()) {
    if (row[0].AsInt() > 60) continue;
    Group& g = groups[row[0].AsInt()];
    ++g.n;
    g.sum += row[2].AsInt();
    g.max = std::max(g.max, row[2].AsInt());
  }
  std::vector<std::pair<int64_t, Group>> kept;
  for (const auto& [isbn, g] : groups) {
    if (g.sum > 8) kept.emplace_back(isbn, g);
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.max > b.second.max;
                   });
  std::vector<Row> expected;
  for (const auto& [isbn, g] : kept) {
    expected.push_back({Value::Int(isbn), Value::Int(g.n)});
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_NE(expected.size(), groups.size());  // HAVING drops some groups
  EXPECT_EQ(r.rows, expected);
}

TEST_F(BindTest, CorrelatedRemoteFetchShipsTheOuterValue) {
  // No currency clause in the subquery: Sales is fetched from the back end
  // per outer row, the slot filled from B's row.
  const std::string sql =
      "SELECT B.isbn FROM Books B WHERE B.isbn <= 20 AND EXISTS ("
      " SELECT 1 FROM Sales S WHERE S.isbn = B.isbn AND S.year = 2003) "
      "CURRENCY BOUND 1 HOUR ON (B)";
  QueryPlan plan = MustPrepare(fx_.session.get(), sql);
  const PhysicalOp* remote = nullptr;
  for (const auto& [stmt, sub] : plan.subplans) {
    if (remote == nullptr) remote = Find(*sub.root, PhysOpKind::kRemoteQuery);
  }
  ASSERT_NE(remote, nullptr) << plan.DescribeTree();
  bool outer_arg = false;
  for (const auto& arg : remote->remote_args) {
    outer_arg = outer_arg || arg->kind == ExprKind::kColumnRef;
  }
  EXPECT_TRUE(outer_arg);
  std::set<int64_t> sold;
  for (const auto& [key, row] : Master("Sales").rows()) {
    if (row[2].AsInt() == 2003 && row[1].AsInt() <= 20) {
      sold.insert(row[1].AsInt());
    }
  }
  ASSERT_FALSE(sold.empty());
  QueryResult r = Run(sql);
  EXPECT_EQ(IsbnSet(r), std::vector<int64_t>(sold.begin(), sold.end()));
  EXPECT_EQ(r.stats.remote_queries, 20);  // one fetch per outer book
}

TEST_F(BindTest, AmbiguousBareColumnFailsWhenThePlanIsBuilt) {
  // `isbn` names a column of both tables; the resolver leaves it bare.
  auto plan = fx_.session->Prepare(
      "SELECT isbn FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "AND B.isbn = 3 CURRENCY BOUND 1 HOUR ON (B), 1 HOUR ON (R)");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("ambiguous"), std::string::npos)
      << plan.status().ToString();
}

// -- Row drain ---------------------------------------------------------------

TEST(RowDrainTest, LongBackEndRangeComesBackOnceInClusteredKeyOrder) {
  // ExecutePlan drains the root with Next and checks the deadline before
  // the first row and every 256 rows. A range spanning several checks,
  // under a deadline that has not expired, must come back whole.
  testing_util::TpcdFixture fx;
  const Table* orders = fx.sys.backend()->table("Orders");
  ASSERT_NE(orders, nullptr);
  constexpr int64_t kLastCustomer = 80;
  std::vector<std::string> expected;
  for (const auto& [key, row] : orders->rows()) {
    if (key[0].AsInt() <= kLastCustomer) expected.push_back(RowToString(row));
  }
  ASSERT_GT(expected.size(), 512u);

  // No currency clause: the default bound sends Orders to the back end.
  QueryPlan plan = MustPrepare(
      fx.session.get(), "SELECT * FROM Orders O WHERE O.o_custkey <= " +
                            std::to_string(kLastCustomer));
  EventStream events;
  CacheDbms::Reader reader(fx.sys.cache());
  ExecContext ctx;
  ctx.reader = &reader;
  ctx.clock = fx.sys.backend()->clock();
  ctx.events = &events;
  ctx.deadline = Deadline::After(std::chrono::steady_clock::now(), 600000);
  auto executed = ExecutePlan(plan, &ctx);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();

  std::vector<std::string> got;
  for (const Row& row : executed->rows) got.push_back(RowToString(row));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(events.stats().remote_queries, 1);
  EXPECT_EQ(events.stats().rows_returned,
            static_cast<int64_t>(expected.size()));
  EXPECT_EQ(events.stats().deadline_timeouts, 0);
}

// -- ORDER BY ----------------------------------------------------------------

/// Column 0 of `rows` as integers.
std::vector<int64_t> Keys(const std::vector<Row>& rows) {
  std::vector<int64_t> out;
  for (const Row& row : rows) out.push_back(row[0].AsInt());
  return out;
}

TEST(OrderByTest, SortsOnAColumnOutsideTheSelectList) {
  testing_util::TpcdFixture fx;
  Session* s = fx.session.get();
  // Ground truth: customer 5's orders by price, highest first.
  std::vector<Row> orders =
      MustExecute(s,
                  "SELECT O.o_orderkey, O.o_totalprice FROM Orders O "
                  "WHERE O.o_custkey = 5")
          .rows;
  ASSERT_GE(orders.size(), 2u);
  std::stable_sort(orders.begin(), orders.end(),
                   [](const Row& a, const Row& b) {
                     return a[1].Compare(b[1]) > 0;
                   });
  const std::vector<int64_t> expected = Keys(orders);

  const std::string q =
      "SELECT O.o_orderkey FROM Orders O WHERE O.o_custkey = 5 "
      "ORDER BY O.o_totalprice DESC";
  QueryResult local = MustExecute(s, q + " CURRENCY BOUND 10 MIN ON (O)");
  EXPECT_EQ(local.stats.remote_queries, 0);
  EXPECT_EQ(Keys(local.rows), expected);
  QueryResult remote = MustExecute(s, q);
  EXPECT_EQ(remote.stats.remote_queries, 1);
  EXPECT_EQ(Keys(remote.rows), expected);
  auto stmt = ParseSelect(q);
  ASSERT_TRUE(stmt.ok());
  auto direct = fx.sys.backend()->ExecuteQuery(**stmt);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(Keys(direct->rows), expected);

  // The same ORDER BY inside a subquery.
  QueryResult sub = MustExecute(
      s,
      "SELECT C.c_custkey FROM Customer C WHERE C.c_custkey <= 10 AND EXISTS ("
      " SELECT O.o_orderkey FROM Orders O WHERE O.o_custkey = C.c_custkey"
      " ORDER BY O.o_totalprice DESC CURRENCY BOUND 10 MIN ON (O)) "
      "CURRENCY BOUND 10 MIN ON (C)");
  std::vector<int64_t> with_orders = Keys(
      MustExecute(s,
                  "SELECT DISTINCT O.o_custkey FROM Orders O "
                  "WHERE O.o_custkey <= 10")
          .rows);
  std::vector<int64_t> got = Keys(sub.rows);
  std::sort(with_orders.begin(), with_orders.end());
  std::sort(got.begin(), got.end());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, with_orders);
}

TEST(OrderByTest, SortsOnSelectAliasesAndAggregates) {
  testing_util::TpcdFixture fx;
  Session* s = fx.session.get();
  // Ground truth: order counts per customer, most orders first, then key.
  std::vector<Row> counts =
      MustExecute(s,
                  "SELECT O.o_custkey, count(*) FROM Orders O "
                  "WHERE O.o_custkey <= 20 GROUP BY O.o_custkey")
          .rows;
  ASSERT_GE(counts.size(), 2u);
  std::sort(counts.begin(), counts.end(), [](const Row& a, const Row& b) {
    if (a[1].Compare(b[1]) != 0) return a[1].Compare(b[1]) > 0;
    return a[0].Compare(b[0]) < 0;
  });
  const std::vector<int64_t> expected = Keys(counts);
  for (const char* order : {"ORDER BY n DESC, k", "ORDER BY count(*) DESC, k",
                            "ORDER BY count(*) DESC, O.o_custkey"}) {
    QueryResult r = MustExecute(
        s, std::string("SELECT O.o_custkey AS k, count(*) AS n FROM Orders O "
                       "WHERE O.o_custkey <= 20 GROUP BY O.o_custkey ") +
               order);
    EXPECT_EQ(Keys(r.rows), expected) << order;
  }
}

}  // namespace
}  // namespace rcc
