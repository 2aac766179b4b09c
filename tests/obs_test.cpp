// Observability subsystem tests: metrics registry semantics and JSON schema,
// per-query traces through SET TRACE, EXPLAIN / EXPLAIN ANALYZE rendering
// (including the golden-file check for the default preset), and the
// disabled-path contract (no SET TRACE -> no trace object at all).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>

#include "backend/fault_injector.h"
#include "exec/remote_policy.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace rcc {
namespace {

using obs::TraceEventKind;
using testing_util::BookstoreFixture;
using testing_util::MustExecute;

// -- Metrics registry ---------------------------------------------------------

TEST(MetricsTest, CounterSemantics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricsTest, GaugeSetAndMax) {
  obs::Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Max(1.0);  // lower than current: no-op
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(MetricsTest, HistogramBucketsAndOverflow) {
  obs::Histogram h({1.0, 10.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (bounds are inclusive)
  h.Observe(5.0);    // bucket 1 (<= 10)
  h.Observe(100.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);  // i == bounds().size() is overflow
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(2), 0);
}

TEST(MetricsTest, RegistryReturnsStablePointersAcrossReset) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("rcc.test.counter");
  obs::Gauge* g = reg.gauge("rcc.test.gauge");
  obs::Histogram* h = reg.histogram("rcc.test.hist", {1.0});
  EXPECT_EQ(reg.counter("rcc.test.counter"), c);
  EXPECT_EQ(reg.gauge("rcc.test.gauge"), g);
  EXPECT_EQ(reg.histogram("rcc.test.hist"), h);  // bounds ignored on reuse
  c->Add(3);
  g->Set(1.5);
  h->Observe(0.5);
  reg.Reset();
  // Same pointers, zeroed values.
  EXPECT_EQ(reg.counter("rcc.test.counter"), c);
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0);
}

TEST(MetricsTest, ToJsonMatchesDocumentedSchema) {
  obs::MetricsRegistry reg;
  reg.counter("rcc.test.hits")->Add(7);
  reg.gauge("rcc.test.qps")->Set(123.5);
  reg.histogram("rcc.test.lat_ms", {1.0, 10.0})->Observe(3.0);
  std::string json = reg.ToJson();
  // Schema marker and the three instrument sections (DESIGN.md §9).
  EXPECT_NE(json.find("\"schema\": \"rcc.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"rcc.test.hits\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"rcc.test.qps\": 123.5"), std::string::npos);
  // Histogram shape: count/sum plus buckets with upper bounds and +inf.
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"le\""), std::string::npos);
  EXPECT_NE(json.find("+inf"), std::string::npos);
  // Balanced braces (cheap well-formedness check without a JSON parser).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// -- System-level metrics -----------------------------------------------------

TEST(SystemMetricsTest, QueriesFeedTheSystemRegistry) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(35000);
  for (int i = 0; i < 3; ++i) {
    MustExecute(fx.session.get(),
                "SELECT isbn FROM Books B WHERE B.isbn = 1 "
                "CURRENCY BOUND 10 MIN ON (B)");
  }
  obs::MetricsRegistry& m = fx.sys.metrics();
  EXPECT_EQ(m.counter("rcc.cache.queries")->value(), 3);
  EXPECT_EQ(m.counter("rcc.switch.local")->value(), 3);
  EXPECT_EQ(m.counter("rcc.switch.remote")->value(), 0);
  EXPECT_EQ(m.histogram("rcc.cache.query_run_ms")->count(), 3);
  // Replication deliveries during warm-up were observed.
  EXPECT_GT(m.counter("rcc.replication.deliveries")->value(), 0);
  // The dump carries the documented schema and the live instrument names.
  std::string json = m.ToJson();
  EXPECT_NE(json.find("rcc.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("rcc.cache.queries"), std::string::npos);
}

// -- Per-query traces (SET TRACE) ---------------------------------------------

TEST(TraceTest, SetTraceAttachesTraceWithGuardEvents) {
  BookstoreFixture fx(10000, 2000);
  fx.sys.AdvanceTo(35000);
  Session* s = fx.session.get();
  MustExecute(s, "SET TRACE ON");
  QueryResult r = MustExecute(s,
                              "SELECT isbn FROM Books B WHERE B.isbn = 1 "
                              "CURRENCY BOUND 10 MIN ON (B)");
  ASSERT_NE(r.trace, nullptr);
  ASSERT_GE(r.trace->events().size(), 2u);
  const obs::TraceEvent* probe = r.trace->FirstOf(TraceEventKind::kGuardProbe);
  ASSERT_NE(probe, nullptr);
  // The whole line, byte for byte: it is rendered from the same guard
  // record the audit sink receives. The timeline floor is off (-1 ms),
  // which FormatSimTime renders as "-0.001s".
  EXPECT_EQ(probe->detail,
            "region=1 heartbeat=29.000s bound=600.000s floor=-0.001s "
            "verdict=local health=healthy");
  const obs::TraceEvent* decision =
      r.trace->FirstOf(TraceEventKind::kSwitchDecision);
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->detail, "local");

  MustExecute(s, "SET TRACE OFF");
  QueryResult off = MustExecute(s,
                                "SELECT isbn FROM Books B WHERE B.isbn = 1 "
                                "CURRENCY BOUND 10 MIN ON (B)");
  // Disabled-path contract: no trace object is ever allocated.
  EXPECT_EQ(off.trace, nullptr);
}

TEST(TraceTest, SetTraceStatementParsing) {
  BookstoreFixture fx;
  Session* s = fx.session.get();
  EXPECT_FALSE(s->trace_enabled());
  QueryResult r = MustExecute(s, "SET TRACE ON");
  EXPECT_TRUE(s->trace_enabled());
  EXPECT_NE(r.message.find("ON"), std::string::npos);
  MustExecute(s, "set trace = off;");
  EXPECT_FALSE(s->trace_enabled());
  // Unknown values fall through to the SQL parser and fail there.
  EXPECT_FALSE(s->Execute("SET TRACE MAYBE").ok());
}

// -- EXPLAIN / EXPLAIN ANALYZE ------------------------------------------------

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() : fx_(10000, 2000) { fx_.sys.AdvanceTo(35000); }

  static constexpr const char* kQuery =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 6 SECONDS ON (B)";

  BookstoreFixture fx_;
};

TEST_F(ExplainTest, ExplainRendersPlanWithoutExecuting) {
  int64_t queries_before =
      fx_.sys.metrics().counter("rcc.cache.queries")->value();
  QueryResult r =
      MustExecute(fx_.session.get(), std::string("EXPLAIN ") + kQuery);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_NE(r.message.find("plan shape:"), std::string::npos);
  EXPECT_NE(r.message.find("est cost:"), std::string::npos);
  EXPECT_NE(r.message.find("local:"), std::string::npos);
  EXPECT_NE(r.message.find("remote:"), std::string::npos);
  EXPECT_NE(r.message.find("est_p_local="), std::string::npos);
  // Plain EXPLAIN never executes the query.
  EXPECT_EQ(r.stats.guard_evaluations, 0);
  EXPECT_EQ(fx_.sys.metrics().counter("rcc.cache.queries")->value(),
            queries_before);
}

TEST_F(ExplainTest, ExplainAnalyzeShowsGuardVerdictAndChosenBranch) {
  QueryResult r = MustExecute(fx_.session.get(),
                              std::string("EXPLAIN ANALYZE ") + kQuery);
  ASSERT_NE(r.trace, nullptr);
  // Executed for real: rows came back and the guard ran.
  EXPECT_FALSE(r.rows.empty());
  EXPECT_GE(r.stats.guard_evaluations, 1);
  // The rendering shows the probe (heartbeat, bound, verdict), the branch
  // decision with its estimate, and the stats block.
  EXPECT_NE(r.message.find("guard_probe"), std::string::npos);
  EXPECT_NE(r.message.find("heartbeat="), std::string::npos);
  EXPECT_NE(r.message.find("bound="), std::string::npos);
  EXPECT_NE(r.message.find("verdict="), std::string::npos);
  EXPECT_NE(r.message.find("-- guards --"), std::string::npos);
  EXPECT_NE(r.message.find("est_p_local="), std::string::npos);
  EXPECT_NE(r.message.find("actual:"), std::string::npos);
  EXPECT_NE(r.message.find("-- stats --"), std::string::npos);
}

TEST_F(ExplainTest, ExplainAnalyzeTracesRetryAndDegradeUnderOutage) {
  FaultInjectorConfig outage;
  outage.outages = {{0, 1000000000}};
  fx_.sys.cache()->SetFaultInjector(outage);
  RemotePolicy policy;
  policy.timeout_ms = 500;
  policy.max_retries = 2;
  policy.backoff_base_ms = 100;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter_ms = 0;
  policy.breaker_threshold = 0;
  fx_.sys.cache()->SetRemotePolicy(policy);
  MustExecute(fx_.session.get(), "SET DEGRADE ALWAYS");

  // Age the replica past the 6s bound so the guard sends the query remote,
  // where the permanent outage forces retries and then a degraded serve.
  CurrencyRegion* region = fx_.sys.cache()->region(1);
  fx_.sys.AdvanceTo(region->local_heartbeat() + 8000);
  QueryResult r = MustExecute(fx_.session.get(),
                              std::string("EXPLAIN ANALYZE ") + kQuery);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_TRUE(r.degraded);
  // Guard verdict was "stale", the switch went remote, the link was retried,
  // and the query was finally served degraded from the local view.
  EXPECT_NE(r.message.find("verdict=stale"), std::string::npos);
  EXPECT_NE(r.message.find("actual: remote"), std::string::npos);
  EXPECT_GE(r.trace->CountOf(TraceEventKind::kRemoteAttempt), 2);
  EXPECT_GE(r.trace->CountOf(TraceEventKind::kRemoteBackoff), 1);
  ASSERT_EQ(r.trace->CountOf(TraceEventKind::kDegradedServe), 1);
  const obs::TraceEvent* degrade =
      r.trace->FirstOf(TraceEventKind::kDegradedServe);
  EXPECT_EQ(degrade->detail,
            "region=1 staleness=8.606s within_bound=no remote_error="
            "Unavailable: injected outage: back-end unreachable at 37.604s");
  EXPECT_NE(r.message.find("degraded_serve"), std::string::npos);
  // Stats block reflects the truthful accounting: the remote branch was
  // attempted but the serve was local.
  EXPECT_EQ(r.stats.switch_remote_attempted, 1);
  EXPECT_EQ(r.stats.switch_remote, 0);
  EXPECT_EQ(r.stats.switch_local, 1);
}

// -- Golden file --------------------------------------------------------------

/// Replaces every run of digits (optionally followed by a fractional part)
/// with `#`, so the golden file is stable across cost-model and timing
/// tweaks while still pinning the overall EXPLAIN structure.
std::string NormalizeNumbers(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size();) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      while (i < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.')) {
        ++i;
      }
      out += '#';
    } else {
      out += s[i++];
    }
  }
  return out;
}

TEST_F(ExplainTest, GoldenExplainSwitchUnion) {
  QueryResult r =
      MustExecute(fx_.session.get(), std::string("EXPLAIN ") + kQuery);
  std::string normalized = NormalizeNumbers(r.message);

  std::string golden_path =
      std::string(RCC_TESTS_GOLDEN_DIR) + "/explain_switch_union.golden";
  std::FILE* f = std::fopen(golden_path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "missing golden file " << golden_path;
  std::string golden;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) golden.append(buf, n);
  std::fclose(f);

  EXPECT_EQ(normalized, golden)
      << "normalized EXPLAIN output drifted from " << golden_path
      << "\n-- actual (normalized) --\n"
      << normalized;
}

}  // namespace
}  // namespace rcc
