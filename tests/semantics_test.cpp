#include <gtest/gtest.h>

#include "semantics/model.h"
#include "semantics/resolver.h"
#include "sql/parser.h"

namespace rcc {
namespace {

Catalog MakeBookstoreCatalog() {
  Catalog cat;
  TableDef books;
  books.name = "Books";
  books.schema = Schema({{"isbn", ValueType::kInt64},
                         {"title", ValueType::kString},
                         {"price", ValueType::kDouble}});
  books.clustered_key = {"isbn"};
  EXPECT_TRUE(cat.AddTable(books).ok());

  TableDef reviews;
  reviews.name = "Reviews";
  reviews.schema = Schema({{"isbn", ValueType::kInt64},
                           {"review_id", ValueType::kInt64},
                           {"rating", ValueType::kInt64}});
  reviews.clustered_key = {"isbn", "review_id"};
  EXPECT_TRUE(cat.AddTable(reviews).ok());

  TableDef sales;
  sales.name = "Sales";
  sales.schema = Schema({{"sale_id", ValueType::kInt64},
                         {"isbn", ValueType::kInt64},
                         {"year", ValueType::kInt64}});
  sales.clustered_key = {"sale_id"};
  EXPECT_TRUE(cat.AddTable(sales).ok());
  return cat;
}

ResolvedQuery MustResolve(const Catalog& cat, const std::string& sql) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  auto rq = ResolveQuery(**stmt, cat);
  EXPECT_TRUE(rq.ok()) << sql << ": " << rq.status().ToString();
  return std::move(*rq);
}

// -- resolution --------------------------------------------------------------

TEST(ResolverTest, AssignsOperandIds) {
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat, "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn");
  ASSERT_EQ(rq.operands.size(), 2u);
  EXPECT_EQ(rq.operands[0].alias, "B");
  EXPECT_EQ(rq.operands[0].table->name, "Books");
  EXPECT_EQ(rq.operands[1].alias, "R");
  EXPECT_EQ(rq.stmt->from[0].resolved_operand, 0u);
  EXPECT_EQ(rq.stmt->from[1].resolved_operand, 1u);
}

TEST(ResolverTest, UnknownTableFails) {
  Catalog cat = MakeBookstoreCatalog();
  auto stmt = ParseSelect("SELECT * FROM Nothing");
  auto rq = ResolveQuery(**stmt, cat);
  EXPECT_TRUE(rq.status().IsNotFound());
}

TEST(ResolverTest, UnknownColumnFails) {
  Catalog cat = MakeBookstoreCatalog();
  for (const char* sql : {
           "SELECT nope FROM Books B",
           "SELECT isbn FROM Books B WHERE B.nope = 1",
           "SELECT isbn FROM Books B WHERE EXISTS "
           "(SELECT * FROM Reviews R WHERE R.isbn = B.isbn AND nope = 1)",
       }) {
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto rq = ResolveQuery(**stmt, cat);
    EXPECT_TRUE(rq.status().IsNotFound()) << sql;
  }
}

TEST(ResolverTest, NamesOutsideBaseTablesStayBare) {
  Catalog cat = MakeBookstoreCatalog();
  // A select-list alias, a derived table's column and an outer block's
  // column are not errors.
  MustResolve(cat, "SELECT price AS p FROM Books B ORDER BY p");
  MustResolve(cat,
              "SELECT D.n FROM (SELECT isbn AS n FROM Books) D WHERE n > 1");
  MustResolve(cat,
              "SELECT isbn FROM Books B WHERE EXISTS "
              "(SELECT * FROM Sales S WHERE S.isbn = B.isbn AND price > 1)");
}

TEST(ResolverTest, DuplicateAliasFails) {
  Catalog cat = MakeBookstoreCatalog();
  auto stmt = ParseSelect("SELECT * FROM Books B, Reviews B");
  EXPECT_FALSE(ResolveQuery(**stmt, cat).ok());
}

TEST(ResolverTest, UnknownCurrencyTargetFails) {
  Catalog cat = MakeBookstoreCatalog();
  auto stmt =
      ParseSelect("SELECT * FROM Books B CURRENCY BOUND 1 MIN ON (Z)");
  EXPECT_FALSE(ResolveQuery(**stmt, cat).ok());
}

TEST(ResolverTest, DefaultConstraintIsTight) {
  // No currency clause: bound 0, all inputs in one consistency class
  // (traditional semantics, paper 3.2.1).
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat, "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn");
  EXPECT_TRUE(rq.used_default_constraint);
  ASSERT_EQ(rq.constraint.tuples.size(), 1u);
  EXPECT_EQ(rq.constraint.tuples[0].bound_ms, 0);
  EXPECT_EQ(rq.constraint.tuples[0].operands.size(), 2u);
  EXPECT_TRUE(rq.constraint.RequiresConsistent(0, 1));
}

TEST(ResolverTest, E1SingleClass) {
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat,
      "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "CURRENCY BOUND 10 MIN ON (B, R)");
  EXPECT_FALSE(rq.used_default_constraint);
  ASSERT_EQ(rq.constraint.tuples.size(), 1u);
  EXPECT_EQ(rq.constraint.tuples[0].bound_ms, 600000);
  EXPECT_TRUE(rq.constraint.RequiresConsistent(0, 1));
}

TEST(ResolverTest, E2SeparateClasses) {
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat,
      "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "CURRENCY BOUND 10 MIN ON (B), 30 MIN ON (R)");
  ASSERT_EQ(rq.constraint.tuples.size(), 2u);
  EXPECT_FALSE(rq.constraint.RequiresConsistent(0, 1));
  EXPECT_EQ(rq.constraint.BoundFor(0), 600000);
  EXPECT_EQ(rq.constraint.BoundFor(1), 1800000);
}

TEST(ResolverTest, GroupingColumnsPreserved) {
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat,
      "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "CURRENCY BOUND 10 MIN ON (B, R) BY B.isbn");
  ASSERT_EQ(rq.constraint.tuples.size(), 1u);
  EXPECT_EQ(rq.constraint.tuples[0].by_columns,
            (std::vector<std::string>{"B.isbn"}));
}

TEST(ResolverTest, PaperQ2DerivedTableMerging) {
  // Paper 2.2 Q2: outer clause "5 min on (S, T)" with T a derived table
  // over B and R carrying "10 min on (B, R)". The least restrictive
  // normalized constraint is "5 min on (S, B, R)".
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat,
      "SELECT T.isbn FROM Sales S, "
      "(SELECT B.isbn AS isbn FROM Books B, Reviews R "
      " WHERE B.isbn = R.isbn CURRENCY BOUND 10 MIN ON (B, R)) T "
      "WHERE S.isbn = T.isbn "
      "CURRENCY BOUND 5 MIN ON (S, T)");
  ASSERT_EQ(rq.operands.size(), 3u);  // S, B, R
  ASSERT_EQ(rq.constraint.tuples.size(), 1u);
  EXPECT_EQ(rq.constraint.tuples[0].bound_ms, 5 * 60000);
  EXPECT_EQ(rq.constraint.tuples[0].operands.size(), 3u);
}

TEST(ResolverTest, PaperQ3SubqueryClassSpansBlocks) {
  // Paper 2.2 Q3: the subquery's clause adds B to S's consistency class;
  // since the outer clause makes B and R consistent, B, R, S form a single
  // class.
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat,
      "SELECT * FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND EXISTS ("
      " SELECT 1 FROM Sales S WHERE S.isbn = B.isbn "
      " CURRENCY BOUND 10 MIN ON (S, B)) "
      "CURRENCY BOUND 10 MIN ON (B, R)");
  ASSERT_EQ(rq.operands.size(), 3u);
  ASSERT_EQ(rq.constraint.tuples.size(), 1u);
  EXPECT_EQ(rq.constraint.tuples[0].operands.size(), 3u);
}

TEST(ResolverTest, LogicalViewExpansion) {
  Catalog cat = MakeBookstoreCatalog();
  ASSERT_TRUE(cat.AddLogicalView(
                     "BookSales",
                     "SELECT B.isbn AS isbn FROM Books B, Sales S "
                     "WHERE B.isbn = S.isbn CURRENCY BOUND 2 MIN ON (B, S)")
                  .ok());
  ResolvedQuery rq = MustResolve(
      cat,
      "SELECT V.isbn FROM BookSales V WHERE V.isbn > 3 "
      "CURRENCY BOUND 1 MIN ON (V)");
  // V expands to Books + Sales; the outer 1-min bound merges with the view
  // body's 2-min bound, keeping the minimum.
  ASSERT_EQ(rq.operands.size(), 2u);
  ASSERT_EQ(rq.constraint.tuples.size(), 1u);
  EXPECT_EQ(rq.constraint.tuples[0].bound_ms, 60000);
  EXPECT_EQ(rq.constraint.tuples[0].operands.size(), 2u);
}

TEST(ResolverTest, PartialClauseLeavesOthersTight) {
  Catalog cat = MakeBookstoreCatalog();
  ResolvedQuery rq = MustResolve(
      cat,
      "SELECT * FROM Books B, Reviews R WHERE B.isbn = R.isbn "
      "CURRENCY BOUND 10 MIN ON (B)");
  // R gets the tight default (bound 0).
  EXPECT_EQ(rq.constraint.BoundFor(0), 600000);
  EXPECT_EQ(rq.constraint.BoundFor(1), 0);
}

// -- normalization unit tests -----------------------------------------------------

CcTuple Tuple(SimTimeMs bound, std::initializer_list<InputOperandId> ops) {
  CcTuple t;
  t.bound_ms = bound;
  t.operands = ops;
  return t;
}

TEST(NormalizeTest, MergeOverlappingKeepsMinBound) {
  CcConstraint raw;
  raw.tuples = {Tuple(100, {0, 1}), Tuple(50, {1, 2}), Tuple(500, {3})};
  NormalizedConstraint n = NormalizeConstraint(raw, 4);
  ASSERT_EQ(n.tuples.size(), 2u);
  EXPECT_EQ(n.BoundFor(0), 50);
  EXPECT_EQ(n.BoundFor(2), 50);
  EXPECT_EQ(n.BoundFor(3), 500);
  EXPECT_TRUE(n.RequiresConsistent(0, 2));
  EXPECT_FALSE(n.RequiresConsistent(0, 3));
}

TEST(NormalizeTest, TransitiveMergeChain) {
  CcConstraint raw;
  raw.tuples = {Tuple(10, {0, 1}), Tuple(20, {1, 2}), Tuple(30, {2, 3}),
                Tuple(40, {3, 4})};
  NormalizedConstraint n = NormalizeConstraint(raw, 5);
  ASSERT_EQ(n.tuples.size(), 1u);
  EXPECT_EQ(n.tuples[0].bound_ms, 10);
  EXPECT_EQ(n.tuples[0].operands.size(), 5u);
}

TEST(NormalizeTest, DisjointTuplesStayDisjoint) {
  CcConstraint raw;
  raw.tuples = {Tuple(10, {0}), Tuple(20, {1})};
  NormalizedConstraint n = NormalizeConstraint(raw, 2);
  EXPECT_EQ(n.tuples.size(), 2u);
}

TEST(NormalizeTest, UncoveredOperandsShareTightDefault) {
  CcConstraint raw;
  raw.tuples = {Tuple(10, {0})};
  NormalizedConstraint n = NormalizeConstraint(raw, 3);
  ASSERT_EQ(n.tuples.size(), 2u);
  EXPECT_EQ(n.BoundFor(1), 0);
  EXPECT_EQ(n.BoundFor(2), 0);
  EXPECT_TRUE(n.RequiresConsistent(1, 2));
}

TEST(NormalizeTest, GroupingColumnsSurviveOnlyIdenticalMerge) {
  CcConstraint raw;
  CcTuple a = Tuple(10, {0, 1});
  a.by_columns = {"B.isbn"};
  CcTuple b = Tuple(20, {1, 2});
  b.by_columns = {"B.isbn"};
  raw.tuples = {a, b};
  NormalizedConstraint n = NormalizeConstraint(raw, 3);
  ASSERT_EQ(n.tuples.size(), 1u);
  EXPECT_EQ(n.tuples[0].by_columns, (std::vector<std::string>{"B.isbn"}));

  CcConstraint raw2;
  CcTuple c = Tuple(20, {1, 2});
  c.by_columns = {"R.isbn"};
  raw2.tuples = {a, c};
  NormalizedConstraint n2 = NormalizeConstraint(raw2, 3);
  ASSERT_EQ(n2.tuples.size(), 1u);
  EXPECT_TRUE(n2.tuples[0].by_columns.empty());  // dropped: tighter, safe
}

TEST(NormalizeTest, EmptyConstraintIsAllDefault) {
  NormalizedConstraint n = NormalizeConstraint(CcConstraint{}, 3);
  ASSERT_EQ(n.tuples.size(), 1u);
  EXPECT_EQ(n.tuples[0].bound_ms, 0);
  EXPECT_EQ(n.tuples[0].operands.size(), 3u);
}

// Randomized property: normalized tuples are disjoint and bounds never
// exceed the minimum of any raw tuple covering the operand.
class NormalizePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NormalizePropertyTest, DisjointAndMinBound) {
  uint64_t seed = GetParam();
  CcConstraint raw;
  uint64_t state = seed * 2654435761u + 1;
  auto next = [&]() { return state = state * 6364136223846793005ULL + 13; };
  uint32_t num_ops = 6;
  for (int t = 0; t < 5; ++t) {
    CcTuple tuple;
    tuple.bound_ms = static_cast<SimTimeMs>(next() % 1000);
    int size = 1 + static_cast<int>(next() % 3);
    for (int i = 0; i < size; ++i) {
      tuple.operands.insert(static_cast<InputOperandId>(next() % num_ops));
    }
    raw.tuples.push_back(std::move(tuple));
  }
  NormalizedConstraint n = NormalizeConstraint(raw, num_ops);
  // Disjoint:
  std::set<InputOperandId> seen;
  for (const CcTuple& t : n.tuples) {
    for (InputOperandId op : t.operands) {
      EXPECT_EQ(seen.count(op), 0u) << "operand in two normalized tuples";
      seen.insert(op);
    }
  }
  // Covers all operands:
  EXPECT_EQ(seen.size(), num_ops);
  // Bound <= min of raw tuples covering the operand:
  for (InputOperandId op = 0; op < num_ops; ++op) {
    for (const CcTuple& t : raw.tuples) {
      if (t.operands.count(op) > 0) {
        EXPECT_LE(n.BoundFor(op), t.bound_ms);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// -- appendix model ------------------------------------------------------------

CommittedTxn Touch(TxnTimestamp id, SimTimeMs at, const std::string& table) {
  CommittedTxn txn;
  txn.id = id;
  txn.commit_time = at;
  RowOp op;
  op.kind = RowOp::Kind::kUpdate;
  op.table = table;
  txn.ops.push_back(std::move(op));
  return txn;
}

class ModelTest : public ::testing::Test {
 protected:
  ModelTest() {
    log_.Append(Touch(1, 100, "A"));
    log_.Append(Touch(2, 200, "B"));
    log_.Append(Touch(3, 300, "A"));
    log_.Append(Touch(4, 400, "B"));
  }
  UpdateLog log_;
};

TEST_F(ModelTest, XTime) {
  EXPECT_EQ(semantics::XTime(log_, "A", 4), 300);
  EXPECT_EQ(semantics::XTime(log_, "A", 2), 100);
  EXPECT_EQ(semantics::XTime(log_, "B", 1), 0);
  EXPECT_EQ(semantics::XTime(log_, "C", 4), 0);
}

TEST_F(ModelTest, StalePoint) {
  // Copy of A as of txn 1: first later modification of A is txn 3 @300.
  auto sp = semantics::StalePoint(log_, "A", 1);
  ASSERT_TRUE(sp.has_value());
  EXPECT_EQ(*sp, 300);
  // Copy of A as of txn 3: not stale.
  EXPECT_FALSE(semantics::StalePoint(log_, "A", 3).has_value());
  EXPECT_FALSE(semantics::StalePoint(log_, "A", 4).has_value());
}

TEST_F(ModelTest, CurrencyGrowsFromStalePoint) {
  EXPECT_EQ(semantics::CurrencyOf(log_, "A", 1, 450), 150);
  EXPECT_EQ(semantics::CurrencyOf(log_, "A", 1, 300), 0);
  EXPECT_EQ(semantics::CurrencyOf(log_, "A", 3, 10000), 0);  // fresh
}

TEST_F(ModelTest, MutualConsistency) {
  using semantics::CopyState;
  // A@1 and B@2: between txn1 and txn2 nothing touched A -> consistent.
  EXPECT_TRUE(semantics::MutuallyConsistent(
      log_, {CopyState{"A", 1}, CopyState{"B", 2}}));
  // A@1 and B@4: txn3 touched A in (1,4] -> not consistent.
  EXPECT_FALSE(semantics::MutuallyConsistent(
      log_, {CopyState{"A", 1}, CopyState{"B", 4}}));
  // Equal as_of is always consistent.
  EXPECT_TRUE(semantics::MutuallyConsistent(
      log_, {CopyState{"A", 3}, CopyState{"B", 3}}));
  EXPECT_TRUE(semantics::MutuallyConsistent(log_, {}));
}

TEST_F(ModelTest, DeltaConsistencyDistance) {
  using semantics::CopyState;
  // Distance between consistent copies is 0.
  EXPECT_EQ(semantics::Distance(log_, CopyState{"A", 1}, CopyState{"B", 2}),
            0);
  // A@1 vs B@4: xtime(B@4)=400; A@1 went stale at 300 -> distance 100.
  EXPECT_EQ(semantics::Distance(log_, CopyState{"A", 1}, CopyState{"B", 4}),
            100);
  // Symmetric.
  EXPECT_EQ(semantics::Distance(log_, CopyState{"B", 4}, CopyState{"A", 1}),
            100);
}

TEST_F(ModelTest, GroupDistanceIsMaxPairwise) {
  using semantics::CopyState;
  SimTimeMs d = semantics::GroupDistance(
      log_, {CopyState{"A", 1}, CopyState{"B", 4}, CopyState{"B", 2}});
  EXPECT_EQ(d, 100);
}

}  // namespace
}  // namespace rcc
