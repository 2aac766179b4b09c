// Direct unit tests for the execution layer: hand-built physical plans over
// a raw table, independent of the optimizer; plus the remote-statement
// templates and the currency guard in isolation.

#include <gtest/gtest.h>

#include "exec/currency_verdict.h"
#include "exec/event_stream.h"
#include "exec/iterators.h"
#include "exec/read_handle.h"
#include "exec/remote.h"
#include "exec/switch_union.h"
#include "plan/bind.h"
#include "replication/region.h"
#include "sql/parser.h"

namespace rcc {
namespace {

class ExecUnitTest : public ::testing::Test {
 protected:
  ExecUnitTest()
      : table_("items",
               Schema({{"id", ValueType::kInt64},
                       {"grp", ValueType::kInt64},
                       {"price", ValueType::kDouble}}),
               {0}) {
    for (int64_t i = 1; i <= 20; ++i) {
      EXPECT_TRUE(table_
                      .Insert({Value::Int(i), Value::Int(i % 4),
                               Value::Double(i * 10.0)})
                      .ok());
    }
    EXPECT_TRUE(table_.CreateSecondaryIndex("idx_grp", {1}).ok());
    aliases_["i"] = 0;
    ctx_.reader = &reader_;
    ctx_.clock = &clock_;
    ctx_.events = &events_;
  }

  /// Scan node over the full table.
  std::unique_ptr<PhysicalOp> MakeScan() {
    auto scan = std::make_unique<PhysicalOp>();
    scan->kind = PhysOpKind::kLocalScan;
    scan->target = ScanTarget{false, "items"};
    scan->operand = 0;
    for (const Column& c : table_.schema().columns()) {
      scan->layout.Add(0, c.name, c.type);
    }
    return scan;
  }

  /// Binds the hand-built tree under `aliases`, then builds its iterators.
  Result<std::unique_ptr<RowIterator>> Build(PhysicalOp* root,
                                             const AliasMap& aliases) {
    Status st = BindTree(root, aliases, nullptr);
    if (!st.ok()) return st;
    return BuildIterator(*root, &ctx_);
  }

  std::vector<Row> Drain(RowIterator* iter) {
    EXPECT_TRUE(iter->Open(nullptr).ok());
    std::vector<Row> rows;
    Row row;
    while (true) {
      auto more = iter->Next(&row);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) break;
      rows.push_back(row);
    }
    EXPECT_TRUE(iter->Close().ok());
    return rows;
  }

  std::unique_ptr<Expr> Pred(const std::string& text) {
    auto stmt = ParseSelect("SELECT 1 FROM i WHERE " + text);
    EXPECT_TRUE(stmt.ok());
    return std::move((*stmt)->where);
  }

  /// Scans see only `items`; every region is healthy with heartbeat
  /// `heartbeat_`.
  class FakeReader : public ReadHandle {
   public:
    explicit FakeReader(ExecUnitTest* test) : test_(test) {}
    const Table* ScanTable(const ScanTarget& target) override {
      return target.name == "items" ? &test_->table_ : nullptr;
    }
    const RegionSnapshot* Snapshot(RegionId) override {
      snap_.heartbeat = test_->heartbeat_;
      return &snap_;
    }

   private:
    ExecUnitTest* test_;
    RegionSnapshot snap_;
  };

  Table table_;
  AliasMap aliases_;
  FakeReader reader_{this};
  ExecContext ctx_;
  EventStream events_;
  VirtualClock clock_;
  SimTimeMs heartbeat_ = 0;
};

TEST_F(ExecUnitTest, FullScan) {
  auto scan = MakeScan();
  auto iter = Build(scan.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  EXPECT_EQ(Drain(iter->get()).size(), 20u);
}

TEST_F(ExecUnitTest, ClusteredSeek) {
  auto scan = MakeScan();
  scan->seek_lo.push_back(Expr::MakeLiteral(Value::Int(5)));
  scan->seek_hi.push_back(Expr::MakeLiteral(Value::Int(8)));
  auto iter = Build(scan.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  auto rows = Drain(iter->get());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows.front()[0].AsInt(), 5);
  EXPECT_EQ(rows.back()[0].AsInt(), 8);
}

TEST_F(ExecUnitTest, SecondaryIndexSeekWithResidual) {
  auto scan = MakeScan();
  scan->index_name = "idx_grp";
  scan->seek_lo.push_back(Expr::MakeLiteral(Value::Int(2)));
  scan->seek_hi.push_back(Expr::MakeLiteral(Value::Int(2)));
  scan->residual = Pred("i.price > 100");
  auto iter = Build(scan.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  // grp == 2: ids 2,6,10,14,18; price > 100 keeps 14, 18.
  auto rows = Drain(iter->get());
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& row : rows) {
    EXPECT_EQ(row[1].AsInt(), 2);
    EXPECT_GT(row[2].AsDouble(), 100.0);
  }
}

TEST_F(ExecUnitTest, MissingIndexSurfaces) {
  auto scan = MakeScan();
  scan->index_name = "nope";
  auto iter = Build(scan.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  EXPECT_TRUE((*iter)->Open(nullptr).IsNotFound());
}

TEST_F(ExecUnitTest, MissingTableSurfaces) {
  auto scan = MakeScan();
  scan->target.name = "missing";
  auto iter = Build(scan.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  EXPECT_TRUE((*iter)->Open(nullptr).IsNotFound());
}

TEST_F(ExecUnitTest, IteratorsReopenCleanly) {
  auto scan = MakeScan();
  scan->seek_lo.push_back(Expr::MakeLiteral(Value::Int(1)));
  scan->seek_hi.push_back(Expr::MakeLiteral(Value::Int(3)));
  auto iter = Build(scan.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  EXPECT_EQ(Drain(iter->get()).size(), 3u);
  EXPECT_EQ(Drain(iter->get()).size(), 3u);  // re-open produces same rows
}

TEST_F(ExecUnitTest, HashJoinSelfJoin) {
  // items i JOIN items j ON i.grp = j.grp, with i restricted to id <= 2.
  auto left = MakeScan();
  left->seek_hi.push_back(Expr::MakeLiteral(Value::Int(2)));
  auto right = MakeScan();
  // Right side aliased 'j': re-tag its layout to operand 1.
  right->layout = RowLayout();
  for (const Column& c : table_.schema().columns()) {
    right->layout.Add(1, c.name, c.type);
  }
  AliasMap aliases = aliases_;
  aliases["j"] = 1;

  auto join = std::make_unique<PhysicalOp>();
  join->kind = PhysOpKind::kHashJoin;
  join->exprs.push_back(Expr::MakeColumn("i", "grp"));
  join->exprs2.push_back(Expr::MakeColumn("j", "grp"));
  join->layout = RowLayout::Concat(left->layout, right->layout);
  join->children.push_back(std::move(left));
  join->children.push_back(std::move(right));

  auto iter = Build(join.get(), aliases);
  ASSERT_TRUE(iter.ok());
  // Each of ids 1,2 joins the 5 rows of its group.
  auto rows = Drain(iter->get());
  EXPECT_EQ(rows.size(), 10u);
  for (const Row& row : rows) {
    EXPECT_EQ(row[1].AsInt(), row[4].AsInt());  // grp == grp
  }
}

TEST_F(ExecUnitTest, NestedLoopJoinWithParameterizedSeek) {
  auto outer = MakeScan();
  outer->seek_hi.push_back(Expr::MakeLiteral(Value::Int(3)));
  auto inner = MakeScan();
  inner->layout = RowLayout();
  for (const Column& c : table_.schema().columns()) {
    inner->layout.Add(1, c.name, c.type);
  }
  // Inner point-seek on id = i.id: a parameterized clustered lookup.
  inner->seek_lo.push_back(Expr::MakeColumn("i", "id"));
  inner->seek_hi.push_back(Expr::MakeColumn("i", "id"));
  AliasMap aliases = aliases_;
  aliases["j"] = 1;

  auto join = std::make_unique<PhysicalOp>();
  join->kind = PhysOpKind::kNestedLoopJoin;
  join->layout = RowLayout::Concat(outer->layout, inner->layout);
  join->children.push_back(std::move(outer));
  join->children.push_back(std::move(inner));

  auto iter = Build(join.get(), aliases);
  ASSERT_TRUE(iter.ok());
  auto rows = Drain(iter->get());
  ASSERT_EQ(rows.size(), 3u);  // each outer row matches exactly itself
  for (const Row& row : rows) {
    EXPECT_EQ(row[0].AsInt(), row[3].AsInt());
  }
}

TEST_F(ExecUnitTest, SortAndProject) {
  auto scan = MakeScan();
  scan->seek_hi.push_back(Expr::MakeLiteral(Value::Int(5)));

  auto project = std::make_unique<PhysicalOp>();
  project->kind = PhysOpKind::kProject;
  project->exprs.push_back(Expr::MakeColumn("i", "id"));
  project->layout.Add(0, "id", ValueType::kInt64);
  project->children.push_back(std::move(scan));

  auto sort = std::make_unique<PhysicalOp>();
  sort->kind = PhysOpKind::kSort;
  sort->layout = project->layout;
  SortKey key;
  key.expr = Expr::MakeColumn("i", "id");
  key.descending = true;
  sort->sort_keys.push_back(std::move(key));
  sort->children.push_back(std::move(project));

  auto iter = Build(sort.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  auto rows = Drain(iter->get());
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0].AsInt(), 5);
  EXPECT_EQ(rows[4][0].AsInt(), 1);
}

TEST_F(ExecUnitTest, HashAggregate) {
  auto scan = MakeScan();
  auto agg = std::make_unique<PhysicalOp>();
  agg->kind = PhysOpKind::kHashAggregate;
  agg->exprs.push_back(Expr::MakeColumn("i", "grp"));
  agg->layout.Add(0, "grp", ValueType::kInt64);
  AggItem count;
  count.func = "count";
  count.star = true;
  count.out_name = "n";
  agg->layout.Add(kInvalidOperand, "n", ValueType::kInt64);
  agg->aggs.push_back(std::move(count));
  agg->children.push_back(std::move(scan));

  auto iter = Build(agg.get(), aliases_);
  ASSERT_TRUE(iter.ok());
  auto rows = Drain(iter->get());
  ASSERT_EQ(rows.size(), 4u);  // groups 0..3
  int64_t total = 0;
  for (const Row& row : rows) total += row[1].AsInt();
  EXPECT_EQ(total, 20);
}

// -- SwitchUnion guard in isolation ---------------------------------------------

TEST_F(ExecUnitTest, GuardSemantics) {
  PhysicalOp op;
  op.kind = PhysOpKind::kSwitchUnion;
  op.guard_region = 1;
  op.guard_bound_ms = 1000;
  clock_.AdvanceTo(5000);
  heartbeat_ = 4500;  // staleness 500 < 1000
  EXPECT_TRUE(SwitchUnionIterator::EvaluateGuard(op, &ctx_));
  heartbeat_ = 4000;  // staleness 1000 == bound: strict comparison fails
  EXPECT_FALSE(SwitchUnionIterator::EvaluateGuard(op, &ctx_));
  heartbeat_ = 4001;
  EXPECT_TRUE(SwitchUnionIterator::EvaluateGuard(op, &ctx_));
  EXPECT_EQ(events_.stats().guard_evaluations, 3);
}

TEST_F(ExecUnitTest, GuardTimelineFloor) {
  PhysicalOp op;
  op.kind = PhysOpKind::kSwitchUnion;
  op.guard_region = 1;
  op.guard_bound_ms = 100000;
  clock_.AdvanceTo(5000);
  heartbeat_ = 4000;
  EXPECT_TRUE(SwitchUnionIterator::EvaluateGuard(op, &ctx_));
  ctx_.timeline_floor_ms = 4500;  // session already saw t=4500
  EXPECT_FALSE(SwitchUnionIterator::EvaluateGuard(op, &ctx_));
  ctx_.timeline_floor_ms = 4000;  // floor == heartbeat: allowed
  EXPECT_TRUE(SwitchUnionIterator::EvaluateGuard(op, &ctx_));
}

// -- CurrencyVerdict ----------------------------------------------------------------

TEST(CurrencyVerdictTest, UnknownHeartbeatNeverServes) {
  CurrencyVerdict v =
      JudgeCurrency(std::nullopt, RegionHealth::kHealthy, 5000, 1000, -1);
  EXPECT_FALSE(v.known);
  EXPECT_FALSE(v.withdrawn);  // never synced, not taken out of service
  EXPECT_EQ(v.heartbeat, -1);
  EXPECT_FALSE(v.Fresh());
  EXPECT_FALSE(v.Permits(DegradeMode::kAlways));
}

TEST(CurrencyVerdictTest, WithdrawnCertificationNeverServes) {
  for (RegionHealth health :
       {RegionHealth::kQuarantined, RegionHealth::kResyncing}) {
    CurrencyVerdict v = JudgeCurrency(std::nullopt, health, 5000, 1000, -1);
    EXPECT_FALSE(v.known) << RegionHealthName(health);
    EXPECT_TRUE(v.withdrawn) << RegionHealthName(health);
    EXPECT_FALSE(v.Fresh());
    EXPECT_FALSE(v.Permits(DegradeMode::kBounded));
    EXPECT_FALSE(v.Permits(DegradeMode::kAlways));
  }
  // SUSPECT data is still a consistent snapshot: certification holds.
  EXPECT_FALSE(
      JudgeCurrency(4500, RegionHealth::kSuspect, 5000, 1000, -1).withdrawn);
}

TEST(CurrencyVerdictTest, BelowFloorRefusesEvenUnderAlways) {
  CurrencyVerdict v =
      JudgeCurrency(4500, RegionHealth::kHealthy, 5000, 1000, 4600);
  EXPECT_TRUE(v.known);
  EXPECT_TRUE(v.within_bound);
  EXPECT_TRUE(v.below_floor);
  EXPECT_FALSE(v.Fresh());
  EXPECT_FALSE(v.Permits(DegradeMode::kAlways));
  // Floor == heartbeat is allowed.
  EXPECT_TRUE(
      JudgeCurrency(4500, RegionHealth::kHealthy, 5000, 1000, 4500).Fresh());
}

TEST(CurrencyVerdictTest, BoundIsStrict) {
  // hb == now - bound: exactly one bound old, which the guard's strict `>`
  // rejects.
  CurrencyVerdict at =
      JudgeCurrency(4000, RegionHealth::kHealthy, 5000, 1000, -1);
  EXPECT_FALSE(at.within_bound);
  EXPECT_FALSE(at.Fresh());
  EXPECT_EQ(at.staleness, 1000);
  CurrencyVerdict inside =
      JudgeCurrency(4001, RegionHealth::kHealthy, 5000, 1000, -1);
  EXPECT_TRUE(inside.within_bound);
  EXPECT_TRUE(inside.Fresh());
  EXPECT_EQ(inside.staleness, 999);
}

TEST(CurrencyVerdictTest, PastBoundServesOnlyUnderAlways) {
  CurrencyVerdict v =
      JudgeCurrency(2000, RegionHealth::kHealthy, 5000, 1000, -1);
  EXPECT_TRUE(v.known);
  EXPECT_FALSE(v.within_bound);
  EXPECT_EQ(v.staleness, 3000);
  EXPECT_FALSE(v.Fresh());
  EXPECT_FALSE(v.Permits(DegradeMode::kNone));
  EXPECT_FALSE(v.Permits(DegradeMode::kBounded));
  EXPECT_TRUE(v.Permits(DegradeMode::kAlways));
}

// -- Remote statement templates ----------------------------------------------

/// An outer scope binding `alias`.`column` to `value` (operand 7).
struct OuterRow {
  OuterRow(const std::string& alias, const std::string& column, Value value)
      : row{std::move(value)} {
    layout.Add(7, column, ValueType::kInt64);
    aliases[alias] = 7;
    bind = BindScope{&layout, &aliases, nullptr};
    scope.row = &row;
  }
  RowLayout layout;
  Row row;
  AliasMap aliases;
  BindScope bind;
  EvalScope scope;
};

QueryTemplate TemplateOf(const std::string& sql,
                         std::vector<std::unique_ptr<Expr>>* args) {
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok());
  return MakeTemplate(std::move(*stmt), /*outer_refs=*/true, args);
}

TEST(TemplateTest, SlotsLiteralsThenOuterRefs) {
  std::vector<std::unique_ptr<Expr>> args;
  QueryTemplate tmpl = TemplateOf(
      "SELECT S.a FROM SalesT S WHERE S.k = OuterT.x AND S.a > 3", &args);
  // The literal takes slot 0; the outer reference is numbered after it.
  EXPECT_EQ(tmpl.key,
            "SELECT S.a FROM SalesT S WHERE ((S.k = ?1) AND (S.a > ?0))");
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[0]->kind, ExprKind::kLiteral);
  EXPECT_EQ(args[0]->literal.AsInt(), 3);
  OuterRow outer("outert", "x", Value::Int(42));
  ASSERT_TRUE(BindExpr(args[1].get(), &outer.bind).ok());
  auto v = EvalExpr(*args[1], outer.scope, nullptr);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 42);
}

TEST(TemplateTest, SlotsOuterRefsInAllClauses) {
  // Outer refs become slots everywhere an expression can appear — GROUP BY,
  // HAVING and ORDER BY included, not just WHERE and the select items (a
  // template naming an outer alias fails at the back-end resolver).
  std::vector<std::unique_ptr<Expr>> args;
  QueryTemplate tmpl = TemplateOf(
      "SELECT S.a, SUM(S.b) FROM SalesT S WHERE S.k > 0 "
      "GROUP BY S.a, OuterT.x HAVING SUM(S.b) > OuterT.x "
      "ORDER BY OuterT.x DESC",
      &args);
  EXPECT_EQ(tmpl.key.find("OuterT"), std::string::npos) << tmpl.key;
  EXPECT_NE(tmpl.key.find("GROUP BY"), std::string::npos) << tmpl.key;
  EXPECT_NE(tmpl.key.find("HAVING"), std::string::npos) << tmpl.key;
  EXPECT_NE(tmpl.key.find("ORDER BY ?3 DESC"), std::string::npos) << tmpl.key;
  ASSERT_EQ(args.size(), 4u);
  for (size_t i = 1; i < args.size(); ++i) {
    EXPECT_EQ(args[i]->ToString(), "OuterT.x");
  }
}

TEST(TemplateTest, OwnAliasInGroupByStaysReference) {
  // A table's own alias referenced only in GROUP BY / ORDER BY must be
  // recognized as local (alias collection walks every clause too).
  std::vector<std::unique_ptr<Expr>> args;
  QueryTemplate tmpl = TemplateOf(
      "SELECT COUNT(1) FROM SalesT S GROUP BY S.a ORDER BY S.a", &args);
  EXPECT_EQ(tmpl.key,
            "SELECT count(?0) FROM SalesT S GROUP BY S.a ORDER BY S.a");
  ASSERT_EQ(args.size(), 1u);
  EXPECT_EQ(args[0]->kind, ExprKind::kLiteral);
}

TEST(TemplateTest, NestedSubqueryOuterRefIsSlot) {
  std::vector<std::unique_ptr<Expr>> args;
  QueryTemplate tmpl = TemplateOf(
      "SELECT S.a FROM SalesT S WHERE EXISTS ("
      "SELECT 1 FROM T2 WHERE T2.y = Outer2.z AND T2.w = S.a)",
      &args);
  EXPECT_EQ(tmpl.key,
            "SELECT S.a FROM SalesT S WHERE EXISTS (SELECT ?0 FROM T2 WHERE "
            "((T2.y = ?1) AND (T2.w = S.a)))");
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[1]->ToString(), "Outer2.z");
}

/// Records every back-end call and answers it with no rows.
class RecordingReader : public ReadHandle {
 public:
  const Table* ScanTable(const ScanTarget&) override { return nullptr; }
  Result<ExecutedQuery> ExecuteRemote(const BackendCall& call,
                                      const ExecContext&) override {
    keys.push_back(call.tmpl.key);
    params.push_back(call.params);
    return ExecutedQuery{};
  }
  std::vector<std::string> keys;
  std::vector<std::vector<Value>> params;
};

struct RemoteOpHarness {
  explicit RemoteOpHarness(const std::string& sql) {
    op.kind = PhysOpKind::kRemoteQuery;
    op.remote_stmt = ParseSelect(sql).value();
    op.remote_template = MakeTemplate(CloneSelectStmt(*op.remote_stmt), true,
                                      &op.remote_args);
    ctx.reader = &reader;
    ctx.clock = &clock;
    ctx.events = &events;
  }
  PhysicalOp op;
  RecordingReader reader;
  VirtualClock clock;
  EventStream events;
  ExecContext ctx;
};

TEST(TemplateTest, OpenShipsTemplateWithGatheredValues) {
  RemoteOpHarness h("SELECT S.a FROM SalesT S WHERE S.k = OuterT.x AND S.a > 3");
  RemoteQueryIterator iter(h.op, &h.ctx);
  for (int64_t x : {42, 43}) {
    OuterRow outer("outert", "x", Value::Int(x));
    ASSERT_TRUE(BindTree(&h.op, AliasMap(), &outer.bind).ok());
    ASSERT_TRUE(iter.Open(&outer.scope).ok());
    ASSERT_TRUE(iter.Close().ok());
  }
  ASSERT_EQ(h.reader.keys.size(), 2u);
  EXPECT_EQ(h.reader.keys[0], h.reader.keys[1]);
  EXPECT_EQ(h.reader.params[0], (std::vector<Value>{Value::Int(3),
                                                    Value::Int(42)}));
  EXPECT_EQ(h.reader.params[1], (std::vector<Value>{Value::Int(3),
                                                    Value::Int(43)}));
}

TEST(TemplateTest, UnresolvableOuterRefFails) {
  RemoteOpHarness h("SELECT S.a FROM SalesT S WHERE S.k = Ghost.x");
  // No scope names Ghost: the op fails to bind, and left unbound it fails
  // to open.
  OuterRow outer("outert", "x", Value::Int(42));
  EXPECT_TRUE(BindTree(&h.op, AliasMap(), &outer.bind).IsNotFound());
  RemoteQueryIterator iter(h.op, &h.ctx);
  EXPECT_FALSE(iter.Open(&outer.scope).ok());
  EXPECT_TRUE(h.reader.keys.empty());  // nothing shipped
}

}  // namespace
}  // namespace rcc
