#include <gtest/gtest.h>

#include <chrono>

#include "test_util.h"

namespace rcc {
namespace {

using testing_util::BookstoreFixture;
using testing_util::MustExecute;

TEST(SessionTest, TimeOrderedMarkersToggleMode) {
  BookstoreFixture fx;
  EXPECT_FALSE(fx.session->in_timeordered());
  auto begin = fx.session->Execute("BEGIN TIMEORDERED");
  ASSERT_TRUE(begin.ok());
  EXPECT_TRUE(fx.session->in_timeordered());
  EXPECT_FALSE(begin->message.empty());
  auto end = fx.session->Execute("END TIMEORDERED");
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(fx.session->in_timeordered());
}

TEST(SessionTest, ParseErrorsSurface) {
  BookstoreFixture fx;
  EXPECT_TRUE(fx.session->Execute("SELEC oops").status().IsParseError());
}

TEST(SessionTest, TimelineFloorAdvancesWithQueries) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(30000);
  ASSERT_TRUE(fx.session->Execute("BEGIN TIMEORDERED").ok());
  EXPECT_EQ(fx.session->timeline_floor(), -1);
  // A tight query reads the back-end: the floor jumps to "now".
  MustExecute(fx.session.get(),
              "SELECT price FROM Books B WHERE B.isbn = 1");
  EXPECT_EQ(fx.session->timeline_floor(), 30000);
}

TEST(SessionTest, TimelinePreventsGoingBackInTime) {
  // Paper §2.3: after reading current data, a later query must not read an
  // older replica, even if its currency bound would allow it.
  BookstoreFixture fx(/*interval_ms=*/10000, /*delay_ms=*/2000);
  fx.sys.AdvanceTo(30000);
  // Local heartbeat lags "now" by at least the delay.
  std::optional<SimTimeMs> local_hb = fx.sys.cache()->LocalHeartbeat(1);
  ASSERT_TRUE(local_hb.has_value());
  ASSERT_LT(*local_hb, 30000);

  ASSERT_TRUE(fx.session->Execute("BEGIN TIMEORDERED").ok());
  // 1. Read current data (back-end): floor = 30000.
  MustExecute(fx.session.get(),
              "SELECT price FROM Books B WHERE B.isbn = 1");
  // 2. Relaxed query: without timeline mode this would use the local view
  //    (bound 1 hour >> staleness), but the replica is older than the floor,
  //    so the guard must route it to the back-end.
  QueryResult r = MustExecute(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(r.stats.switch_remote, 1);
  EXPECT_EQ(r.stats.switch_local, 0);

  // Outside timeline mode the same query goes local.
  ASSERT_TRUE(fx.session->Execute("END TIMEORDERED").ok());
  QueryResult r2 = MustExecute(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(r2.stats.switch_local, 1);
}

TEST(SessionTest, TimelineAllowsLocalWhenReplicaFreshEnough) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(30000);
  ASSERT_TRUE(fx.session->Execute("BEGIN TIMEORDERED").ok());
  // First query itself reads the local view: the floor becomes the local
  // heartbeat, so further local reads of the same region remain allowed.
  QueryResult r1 = MustExecute(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(r1.stats.switch_local, 1);
  QueryResult r2 = MustExecute(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 2 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(r2.stats.switch_local, 1);
}

TEST(SessionTest, TimelineUsersSeeTheirOwnChanges) {
  // The §2.3 motivation: "users may not even see their own changes unless
  // timeline consistency is specified".
  BookstoreFixture fx(10000, 2000);
  BackendServer* backend = fx.sys.backend();
  fx.sys.AdvanceTo(25000);

  ASSERT_TRUE(fx.session->Execute("BEGIN TIMEORDERED").ok());
  // Writes go to the back-end (and the writer reads its own write through a
  // tight query, pushing the session floor to now).
  const Row* row = backend->table("Books")->Get({Value::Int(3)});
  Row updated = *row;
  updated[2] = Value::Double(55.55);
  RowOp op;
  op.kind = RowOp::Kind::kUpdate;
  op.table = "Books";
  op.row = updated;
  ASSERT_TRUE(backend->ExecuteTransaction({op}).ok());
  MustExecute(fx.session.get(), "SELECT price FROM Books B WHERE B.isbn = 3");

  // Later relaxed read in the same session must still see the new price.
  QueryResult later = MustExecute(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 3 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_DOUBLE_EQ(later.rows[0][0].AsDouble(), 55.55);
}

TEST(SessionTest, WithoutTimelineStaleRereadIsPossible) {
  // Contrast case documenting the default behaviour the paper warns about.
  BookstoreFixture fx(10000, 2000);
  BackendServer* backend = fx.sys.backend();
  fx.sys.AdvanceTo(25000);
  const Row* row = backend->table("Books")->Get({Value::Int(3)});
  Row updated = *row;
  double old_price = (*row)[2].AsDouble();
  updated[2] = Value::Double(77.77);
  RowOp op;
  op.kind = RowOp::Kind::kUpdate;
  op.table = "Books";
  op.row = updated;
  ASSERT_TRUE(backend->ExecuteTransaction({op}).ok());
  // Current read sees 77.77; relaxed read still sees the stale price.
  QueryResult now = MustExecute(
      fx.session.get(), "SELECT price FROM Books B WHERE B.isbn = 3");
  EXPECT_DOUBLE_EQ(now.rows[0][0].AsDouble(), 77.77);
  QueryResult relaxed = MustExecute(
      fx.session.get(),
      "SELECT price FROM Books B WHERE B.isbn = 3 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_DOUBLE_EQ(relaxed.rows[0][0].AsDouble(), old_price);
}

TEST(SessionTest, ResultMetadataPopulated) {
  BookstoreFixture fx;
  QueryResult r = MustExecute(
      fx.session.get(),
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  EXPECT_EQ(r.shape, PlanShape::kAllLocal);
  EXPECT_FALSE(r.constraint.tuples.empty());
  EXPECT_EQ(r.executed_at, fx.sys.Now());
  EXPECT_FALSE(r.ToTable().empty());
}

TEST(SessionTest, ToTableTruncates) {
  BookstoreFixture fx;
  QueryResult r = MustExecute(
      fx.session.get(),
      "SELECT isbn FROM Books B WHERE B.isbn <= 30 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  std::string table = r.ToTable(5);
  EXPECT_NE(table.find("more rows"), std::string::npos);
  EXPECT_NE(table.find("(30 rows)"), std::string::npos);
}

// -- deadlines and shedding ---------------------------------------------------

TEST(SessionTest, SetDeadlineParsesAndClears) {
  BookstoreFixture fx;
  auto set = fx.session->Execute("SET DEADLINE 250");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_NE(set->message.find("deadline 250ms"), std::string::npos);
  auto off = fx.session->Execute("SET DEADLINE = 0;");
  ASSERT_TRUE(off.ok());
  EXPECT_NE(off->message.find("deadline OFF"), std::string::npos);
  // Garbage values are not swallowed as SETs: the parser reports them.
  EXPECT_FALSE(fx.session->Execute("SET DEADLINE soon").ok());
}

TEST(SessionTest, SetStatementsRejectMalformedInput) {
  BookstoreFixture fx;
  Session* s = fx.session.get();
  ASSERT_TRUE(s->Execute("set deadline=86400000;").ok());  // the 24 h cap
  EXPECT_EQ(s->deadline_ms(), 86400000);
  ASSERT_TRUE(s->Execute("SET\tTRACE\r\n= on").ok());
  EXPECT_TRUE(s->trace_enabled());
  // None of these is a SET: each falls through to the parser's error and
  // leaves the session as it was.
  for (const char* sql :
       {"SET DEADLINE 86400001", "SET DEADLINE -5", "SET DEADLINE 5 ms",
        "SET DEADLINE", "SET DEGRADE", "SET DEGRADE ALWAYS NOW",
        "SET TRACE = ON OFF", "SETX TRACE OFF", "SET VERBOSE ON",
        "SET DEGRADE\vALWAYS", "SET"}) {
    auto r = s->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsParseError()) << sql;
  }
  EXPECT_EQ(s->deadline_ms(), 86400000);
  EXPECT_TRUE(s->trace_enabled());
  EXPECT_EQ(s->degrade_mode(), DegradeMode::kNone);
}

TEST(SessionTest, ExpiredDeadlineAnswersTimeoutAndReleasesPins) {
  BookstoreFixture fx;
  // A deadline whose budget was consumed entirely by (simulated) queue
  // wait: expired before the executor pulls its first batch, so the
  // cancellation point at the batch boundary must fire deterministically.
  Session::StatementOptions opts;
  opts.enqueued_at =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1000);
  opts.deadline_ms = 1;
  auto r = fx.session->Execute(
      "SELECT isbn FROM Books B WHERE B.isbn <= 30 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  // The timed-out statement released its snapshot pin on the way out.
  const SnapshotEpochManager& epochs = fx.sys.cache()->epoch_manager();
  EXPECT_EQ(epochs.MinPinnedEpoch(), epochs.current_epoch());
  // A statement-level timeout, not a session-level failure: the session
  // still serves.
  EXPECT_TRUE(fx.session
                  ->Execute("SELECT isbn FROM Books B WHERE B.isbn = 1 "
                            "CURRENCY BOUND 1 HOUR ON (B)")
                  .ok());
}

TEST(SessionTest, UnexpiredDeadlineDoesNotDisturbExecution) {
  BookstoreFixture fx;
  Session::StatementOptions opts;
  opts.deadline_ms = 60000;
  auto r = fx.session->Execute(
      "SELECT isbn FROM Books B WHERE B.isbn <= 30 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 30u);
  EXPECT_EQ(r->stats.deadline_timeouts, 0);
}

TEST(SessionTest, ShedHintServesDegradedLocalWhenModePermits) {
  BookstoreFixture fx(/*interval_ms=*/10000, /*delay_ms=*/2000);
  fx.sys.AdvanceTo(30000);
  // Replica staleness (>= delay, here ~10s at t=30000) exceeds the 5s
  // bound, so the guard routes remote. Under DEGRADE ALWAYS the shed hint
  // may preempt that round-trip with an authorized degraded local serve.
  ASSERT_TRUE(fx.session->Execute("SET DEGRADE ALWAYS").ok());
  Session::StatementOptions opts;
  opts.shed_hint = true;
  auto r = fx.session->Execute(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 5 SECONDS ON (B)",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.shed_serves, 1);
  EXPECT_EQ(r->stats.degraded_serves, 1);
  EXPECT_EQ(r->stats.switch_local, 1);
  EXPECT_EQ(r->stats.switch_remote, 0);
  EXPECT_TRUE(r->degraded);
  EXPECT_GT(r->staleness_ms, 5000);
}

TEST(SessionTest, ShedHintNeverOverridesStrictMode) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(30000);
  // DEGRADE NONE: the hint must be ignored — guard semantics win and the
  // query takes the remote branch as usual.
  Session::StatementOptions opts;
  opts.shed_hint = true;
  auto r = fx.session->Execute(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 5 SECONDS ON (B)",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.shed_serves, 0);
  EXPECT_EQ(r->stats.switch_remote, 1);
  EXPECT_FALSE(r->degraded);
}

TEST(SessionTest, ShedHintIgnoredWhenReplicaWithinBound) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(30000);
  ASSERT_TRUE(fx.session->Execute("SET DEGRADE ALWAYS").ok());
  // The guard already authorizes the local branch (1h bound), so the serve
  // is an ordinary local serve, not a shed.
  Session::StatementOptions opts;
  opts.shed_hint = true;
  auto r = fx.session->Execute(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.shed_serves, 0);
  EXPECT_EQ(r->stats.switch_local, 1);
  EXPECT_FALSE(r->degraded);
}

}  // namespace
}  // namespace rcc
