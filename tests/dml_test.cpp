// SQL DML through the session: inserts/updates/deletes are forwarded to the
// back-end as one transaction (paper §3 item 5) and reach the cached views
// through normal replication.

#include <gtest/gtest.h>

#include "test_util.h"

namespace rcc {
namespace {

using testing_util::BookstoreFixture;
using testing_util::MustExecute;

class DmlTest : public ::testing::Test {
 protected:
  DmlTest() : fx_(5000, 1000) {}

  QueryResult Run(const std::string& sql) {
    return MustExecute(fx_.session.get(), sql);
  }

  BookstoreFixture fx_;
};

TEST_F(DmlTest, InsertSingleRow) {
  QueryResult r = Run(
      "INSERT INTO Books (isbn, title, price, stock) "
      "VALUES (9001, 'Inserted', 12.5, 3)");
  EXPECT_EQ(r.rows_affected, 1);
  EXPECT_NE(r.message.find("committed as txn"), std::string::npos);
  const Row* row = fx_.sys.backend()->table("Books")->Get({Value::Int(9001)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].AsString(), "Inserted");
}

TEST_F(DmlTest, InsertMultipleRowsAndPartialColumns) {
  QueryResult r = Run(
      "INSERT INTO Books (isbn, title) VALUES (9002, 'A'), (9003, 'B')");
  EXPECT_EQ(r.rows_affected, 2);
  const Row* row = fx_.sys.backend()->table("Books")->Get({Value::Int(9002)});
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE((*row)[2].is_null());  // unlisted price is NULL
}

TEST_F(DmlTest, InsertErrors) {
  // Duplicate key fails (surfacing the back-end error) ...
  EXPECT_FALSE(fx_.session
                   ->Execute("INSERT INTO Books (isbn, title) "
                             "VALUES (1, 'dup')")
                   .ok());
  // ... as do arity mismatches and unknown tables/columns.
  EXPECT_FALSE(
      fx_.session->Execute("INSERT INTO Books (isbn) VALUES (1, 2)").ok());
  EXPECT_FALSE(
      fx_.session->Execute("INSERT INTO Nope (a) VALUES (1)").ok());
  EXPECT_FALSE(
      fx_.session->Execute("INSERT INTO Books (zzz) VALUES (1)").ok());
}

TEST_F(DmlTest, UpdateWithPredicateAndExpression) {
  QueryResult r = Run("UPDATE Books SET price = price + 100 WHERE isbn <= 3");
  EXPECT_EQ(r.rows_affected, 3);
  // Current read sees the change immediately.
  QueryResult fresh = Run("SELECT price FROM Books B WHERE B.isbn = 1");
  QueryResult relaxed = Run(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_DOUBLE_EQ(fresh.rows[0][0].AsDouble(),
                   relaxed.rows[0][0].AsDouble() + 100.0);
  // After a refresh cycle the cached view catches up.
  fx_.sys.AdvanceTo(7000);
  QueryResult later = Run(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_DOUBLE_EQ(later.rows[0][0].AsDouble(), fresh.rows[0][0].AsDouble());
}

TEST_F(DmlTest, UpdateNoMatchesAffectsZero) {
  QueryResult r = Run("UPDATE Books SET stock = 0 WHERE isbn = 123456");
  EXPECT_EQ(r.rows_affected, 0);
}

TEST_F(DmlTest, DeleteWithPredicate) {
  QueryResult r = Run("DELETE FROM Books WHERE isbn >= 499");
  EXPECT_EQ(r.rows_affected, 2);  // 499, 500
  EXPECT_EQ(fx_.sys.backend()->table("Books")->num_rows(), 498u);
  // Replicates to the view.
  fx_.sys.AdvanceTo(7000);
  QueryResult count = Run(
      "SELECT count(*) FROM Books B CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(count.rows[0][0].AsInt(), 498);
}

TEST_F(DmlTest, DmlIsOneTransaction) {
  size_t before = fx_.sys.backend()->log().size();
  Run("UPDATE Books SET stock = stock + 1 WHERE isbn <= 10");
  EXPECT_EQ(fx_.sys.backend()->log().size(), before + 1);
  EXPECT_EQ(fx_.sys.backend()->log().at(before).ops.size(), 10u);
}

TEST_F(DmlTest, WriterSeesOwnWriteUnderTimeline) {
  fx_.sys.AdvanceTo(12000);
  ASSERT_TRUE(fx_.session->Execute("BEGIN TIMEORDERED").ok());
  Run("UPDATE Books SET price = 77.25 WHERE isbn = 9");
  // The write itself advances nothing in the session; a tight read does.
  Run("SELECT price FROM Books B WHERE B.isbn = 9");
  QueryResult relaxed = Run(
      "SELECT price FROM Books B WHERE B.isbn = 9 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_DOUBLE_EQ(relaxed.rows[0][0].AsDouble(), 77.25);
}

TEST_F(DmlTest, KeyChangingUpdateReplicatesWithoutOrphans) {
  // End-to-end regression: an UPDATE that rewrites the clustered key must
  // (a) move the row at the back-end (delete old image + insert new) and
  // (b) replicate as delete-by-pre-image-key, so the cached view does not
  // keep an orphaned copy of the old row.
  fx_.sys.AdvanceTo(12000);
  QueryResult r = Run("UPDATE Books SET isbn = 9100 WHERE isbn = 7");
  EXPECT_EQ(r.rows_affected, 1);

  const Table* master = fx_.sys.backend()->table("Books");
  EXPECT_EQ(master->Get({Value::Int(7)}), nullptr);
  ASSERT_NE(master->Get({Value::Int(9100)}), nullptr);

  // Let the region deliver the change (interval 5s + delay 1s).
  fx_.sys.AdvanceBy(10000);
  auto copy = fx_.sys.cache()->view("BooksCopy");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->data().Get({Value::Int(7)}), nullptr)
      << "pre-image row orphaned in the cached view";
  EXPECT_NE(copy->data().Get({Value::Int(9100)}), nullptr);
  EXPECT_EQ(copy->data().num_rows(), master->num_rows());
}

TEST_F(DmlTest, OpsFollowClusteredKeyOrderWhateverTheAccessPath) {
  // The price predicate lets the planner reach the rows through
  // idx_books_price, which yields them in price order; the logged ops must
  // still be in clustered-key order, as a full scan would produce them, so
  // the update log does not depend on the access path.
  size_t before = fx_.sys.backend()->log().size();
  QueryResult r = Run("UPDATE Books SET stock = stock + 1 WHERE price <= 8.0");
  ASSERT_GT(r.rows_affected, 1);
  ASSERT_EQ(fx_.sys.backend()->log().size(), before + 1);
  const std::vector<RowOp>& ops = fx_.sys.backend()->log().at(before).ops;
  ASSERT_EQ(ops.size(), static_cast<size_t>(r.rows_affected));
  for (size_t i = 1; i < ops.size(); ++i) {
    EXPECT_TRUE(TableKeyLess()(ops[i - 1].key, ops[i].key))
        << "op " << i << " is out of clustered-key order";
  }
}

TEST_F(DmlTest, UnknownColumnsFailEvenWhenNoRowMatches) {
  // isbn 123456 matches no row, so only analysis can catch the bad name.
  for (const char* sql : {
           "SELECT nope FROM Books B WHERE B.isbn = 123456",
           "SELECT isbn FROM Books B WHERE B.nope = 1 AND B.isbn = 123456",
           "UPDATE Books SET price = nope WHERE isbn = 123456",
           "DELETE FROM Books WHERE nope = 1 AND isbn = 123456",
       }) {
    auto r = fx_.session->Execute(sql);
    EXPECT_TRUE(!r.ok() && r.status().IsNotFound()) << sql;
  }
}

TEST_F(DmlTest, ParserRejectsMalformedDml) {
  EXPECT_FALSE(fx_.session->Execute("INSERT Books VALUES (1)").ok());
  EXPECT_FALSE(fx_.session->Execute("UPDATE Books price = 1").ok());
  EXPECT_FALSE(fx_.session->Execute("DELETE Books").ok());
}

}  // namespace
}  // namespace rcc
