#include <gtest/gtest.h>

#include "plan/bind.h"
#include "plan/expr.h"
#include "sql/parser.h"

namespace rcc {
namespace {

/// Parses a standalone expression by wrapping it in a SELECT.
std::unique_ptr<Expr> ParseExpr(const std::string& text) {
  auto stmt = ParseSelect("SELECT 1 FROM t WHERE " + text);
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
  return std::move((*stmt)->where);
}

class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest() {
    layout_.Add(0, "a", ValueType::kInt64);
    layout_.Add(0, "b", ValueType::kDouble);
    layout_.Add(1, "c", ValueType::kString);
    aliases_["t"] = 0;
    aliases_["s"] = 1;
    row_ = {Value::Int(10), Value::Double(2.5), Value::Str("hello")};
    bind_ = BindScope{&layout_, &aliases_, nullptr};
    scope_.row = &row_;
  }

  /// Parses `text` and binds its column references against `bind_`.
  std::unique_ptr<Expr> Bound(const std::string& text) {
    auto expr = ParseExpr(text);
    Status st = BindExpr(expr.get(), &bind_);
    EXPECT_TRUE(st.ok()) << text << ": " << st.ToString();
    return expr;
  }

  Value Eval(const std::string& text) {
    auto expr = Bound(text);
    auto v = EvalExpr(*expr, scope_, nullptr);
    EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    return v.ok() ? *v : Value::Null();
  }

  bool Pred(const std::string& text) {
    auto expr = Bound(text);
    auto v = EvalPredicate(*expr, scope_, nullptr);
    EXPECT_TRUE(v.ok()) << text;
    return v.ok() && *v;
  }

  RowLayout layout_;
  AliasMap aliases_;
  Row row_;
  BindScope bind_;
  EvalScope scope_;
};

TEST_F(ExprEvalTest, ColumnResolution) {
  EXPECT_EQ(Eval("t.a").AsInt(), 10);
  EXPECT_EQ(Eval("a").AsInt(), 10);       // unqualified, unique
  EXPECT_EQ(Eval("s.c").AsString(), "hello");
}

TEST_F(ExprEvalTest, UnresolvedColumnFails) {
  // The reference fails to bind, and an unbound reference fails to
  // evaluate.
  auto expr = ParseExpr("t.zzz");
  EXPECT_TRUE(BindExpr(expr.get(), &bind_).IsNotFound());
  EXPECT_FALSE(EvalExpr(*expr, scope_, nullptr).ok());
}

TEST_F(ExprEvalTest, AmbiguousBareColumnFails) {
  RowLayout ambiguous;
  ambiguous.Add(0, "x", ValueType::kInt64);
  ambiguous.Add(1, "x", ValueType::kInt64);
  const BindScope s{&ambiguous, &aliases_, nullptr};
  auto expr = ParseExpr("x = 1");
  EXPECT_FALSE(BindExpr(expr.get(), &s).ok());
}

TEST_F(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("a + 5").AsInt(), 15);
  EXPECT_EQ(Eval("a - 3 * 2").AsInt(), 4);
  EXPECT_DOUBLE_EQ(Eval("a / 4").AsDouble(), 2.5);  // division is double
  EXPECT_DOUBLE_EQ(Eval("b * 2").AsDouble(), 5.0);
  EXPECT_TRUE(Eval("a / 0").is_null());  // division by zero -> NULL
}

TEST_F(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(Pred("a = 10"));
  EXPECT_TRUE(Pred("a <> 9"));
  EXPECT_TRUE(Pred("a >= 10"));
  EXPECT_FALSE(Pred("a > 10"));
  EXPECT_TRUE(Pred("b < 3"));
  EXPECT_TRUE(Pred("s.c = 'hello'"));
  EXPECT_TRUE(Pred("a = 10.0"));  // cross-type numeric equality
}

TEST_F(ExprEvalTest, BooleanLogicThreeValued) {
  EXPECT_TRUE(Pred("a = 10 AND b > 2"));
  EXPECT_TRUE(Pred("a = 0 OR b > 2"));
  EXPECT_FALSE(Pred("a = 0 AND b > 2"));
  EXPECT_TRUE(Pred("NOT (a = 0)"));
  // NULL comparisons are unknown; EvalPredicate collapses unknown to false.
  EXPECT_FALSE(Pred("NULL = NULL"));
  EXPECT_FALSE(Pred("a = NULL"));
  EXPECT_FALSE(Pred("NOT (a = NULL)"));  // NOT unknown = unknown
  // unknown AND false = false; unknown OR true = true.
  EXPECT_FALSE(Pred("a = NULL AND a = 0"));
  EXPECT_TRUE(Pred("a = NULL OR a = 10"));
}

TEST_F(ExprEvalTest, Between) {
  EXPECT_TRUE(Pred("a BETWEEN 5 AND 15"));
  EXPECT_TRUE(Pred("a BETWEEN 10 AND 10"));
  EXPECT_FALSE(Pred("a BETWEEN 11 AND 15"));
}

TEST_F(ExprEvalTest, CorrelatedLookupThroughOuterScope) {
  RowLayout inner;
  inner.Add(2, "y", ValueType::kInt64);
  Row inner_row{Value::Int(99)};
  AliasMap inner_aliases;
  inner_aliases["u"] = 2;
  const BindScope inner_bind{&inner, &inner_aliases, &bind_};
  EvalScope inner_scope;
  inner_scope.row = &inner_row;
  inner_scope.outer = &scope_;
  // t.a resolves through the outer scope chain: one hop out, slot 0.
  auto expr = ParseExpr("u.y > t.a");
  ASSERT_TRUE(BindExpr(expr.get(), &inner_bind).ok());
  EXPECT_EQ(expr->left->scope_depth, 0u);
  EXPECT_EQ(expr->right->scope_depth, 1u);
  EXPECT_EQ(expr->right->slot, 0u);
  auto v = EvalPredicate(*expr, inner_scope, nullptr);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
}

TEST_F(ExprEvalTest, SubqueryWithoutEvaluatorFails) {
  auto expr = Bound("EXISTS (SELECT 1 FROM s)");
  EXPECT_FALSE(EvalExpr(*expr, scope_, nullptr).ok());
}

// -- helpers -----------------------------------------------------------------

TEST(SplitConjunctsTest, FlattensNestedAnds) {
  auto expr = ParseExpr("a = 1 AND b = 2 AND (c = 3 AND d = 4)");
  auto conjs = SplitConjuncts(expr.get());
  EXPECT_EQ(conjs.size(), 4u);
  EXPECT_EQ(SplitConjuncts(nullptr).size(), 0u);
}

TEST(SplitConjunctsTest, OrIsOneConjunct) {
  auto expr = ParseExpr("a = 1 OR b = 2");
  EXPECT_EQ(SplitConjuncts(expr.get()).size(), 1u);
}

TEST(CollectColumnsTest, QualifiedAndSubqueryRefs) {
  AliasMap aliases;
  aliases["t"] = 0;
  aliases["s"] = 1;
  auto expr = ParseExpr(
      "t.a = 1 AND s.b = 2 AND EXISTS (SELECT 1 FROM u WHERE u.x = t.c)");
  std::set<std::string> cols;
  CollectColumnsOf(expr.get(), 0, aliases, &cols);
  EXPECT_EQ(cols.count("a"), 1u);
  EXPECT_EQ(cols.count("c"), 1u);  // correlated ref inside the subquery
  EXPECT_EQ(cols.count("b"), 0u);  // belongs to s
}

TEST(CoverageTest, ExprCoveredByOperands) {
  AliasMap aliases;
  aliases["t"] = 0;
  aliases["s"] = 1;
  auto join = ParseExpr("t.a = s.b");
  EXPECT_TRUE(ExprCoveredByOperands(join.get(), {0, 1}, aliases, false));
  EXPECT_FALSE(ExprCoveredByOperands(join.get(), {0}, aliases, false));
  auto bare = ParseExpr("a = 1");
  EXPECT_TRUE(ExprCoveredByOperands(bare.get(), {0}, aliases, true));
  EXPECT_FALSE(ExprCoveredByOperands(bare.get(), {0}, aliases, false));
  auto sub = ParseExpr("EXISTS (SELECT 1 FROM u)");
  EXPECT_FALSE(ExprCoveredByOperands(sub.get(), {0, 1}, aliases, true));
}

// -- RowLayout ------------------------------------------------------------------

TEST(RowLayoutTest, FindQualifiedAndConcat) {
  RowLayout a;
  a.Add(0, "x", ValueType::kInt64);
  RowLayout b;
  b.Add(1, "y", ValueType::kString);
  RowLayout c = RowLayout::Concat(a, b);
  ASSERT_EQ(c.num_slots(), 2u);
  EXPECT_EQ(*c.Find(0, "x"), 0u);
  EXPECT_EQ(*c.Find(1, "y"), 1u);
  EXPECT_FALSE(c.Find(0, "y").has_value());
  auto unq = c.FindUnqualified("Y");
  ASSERT_TRUE(unq.ok());
  EXPECT_EQ(**unq, 1u);
  EXPECT_FALSE((*c.FindUnqualified("z")).has_value());
}

}  // namespace
}  // namespace rcc
