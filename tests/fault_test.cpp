// Fault injection and resilience on the cache↔back-end link: the injector,
// the retry/timeout/breaker policy, and graceful degradation to local views
// (DegradeMode), including the timeline-consistency floor and the
// outage-survival thresholds enforced as acceptance criteria.

#include <gtest/gtest.h>

#include "backend/fault_injector.h"
#include "common/strings.h"
#include "exec/remote_policy.h"
#include "sim/history.h"
#include "sim/oracle.h"
#include "test_util.h"

namespace rcc {
namespace {

using testing_util::BookstoreFixture;
using testing_util::MustExecute;
using testing_util::MustPrepare;

// The link-level tests never look inside the call they ship.
const QueryTemplate kTemplate;
const std::vector<Value> kNoParams;
const BackendCall kCall{kTemplate, kNoParams};

// -- FaultInjector ------------------------------------------------------------

TEST(FaultInjectorTest, ExplicitOutageWindows) {
  FaultInjectorConfig config;
  config.outages = {{1000, 2000}, {5000, 5500}};
  VirtualClock clock;
  FaultInjector injector(config, &clock);
  EXPECT_FALSE(injector.InOutage(999));
  EXPECT_TRUE(injector.InOutage(1000));
  EXPECT_TRUE(injector.InOutage(1999));
  EXPECT_FALSE(injector.InOutage(2000));
  EXPECT_TRUE(injector.InOutage(5250));
  EXPECT_FALSE(injector.InOutage(10000));
}

TEST(FaultInjectorTest, PeriodicOutageSchedule) {
  FaultInjectorConfig config;
  config.outage_period_ms = 20000;
  config.outage_down_ms = 6000;  // 30% down
  VirtualClock clock;
  FaultInjector injector(config, &clock);
  EXPECT_TRUE(injector.InOutage(0));
  EXPECT_TRUE(injector.InOutage(5999));
  EXPECT_FALSE(injector.InOutage(6000));
  EXPECT_FALSE(injector.InOutage(19999));
  EXPECT_TRUE(injector.InOutage(20000));
  EXPECT_TRUE(injector.InOutage(25999));
  EXPECT_FALSE(injector.InOutage(26000));
}

TEST(FaultInjectorTest, OutagePreemptsInnerCall) {
  FaultInjectorConfig config;
  config.outages = {{0, 10000}};
  VirtualClock clock;
  FaultInjector injector(config, &clock);
  int inner_calls = 0;
  const BackendCall& stmt = kCall;
  RemoteAttempt attempt = injector.Execute(stmt, [&](const BackendCall&) {
    ++inner_calls;
    return Result<ExecutedQuery>(ExecutedQuery{});
  });
  EXPECT_EQ(inner_calls, 0);
  EXPECT_TRUE(attempt.status.IsUnavailable());
  EXPECT_EQ(injector.injected_errors(), 1);
  EXPECT_EQ(injector.attempts(), 1);
}

TEST(FaultInjectorTest, TransientErrorsAndSpikes) {
  FaultInjectorConfig config;
  config.base_latency_ms = 2;
  config.transient_error_probability = 1.0;
  VirtualClock clock;
  FaultInjector injector(config, &clock);
  const BackendCall& stmt = kCall;
  auto inner = [](const BackendCall&) {
    return Result<ExecutedQuery>(ExecutedQuery{});
  };
  EXPECT_TRUE(injector.Execute(stmt, inner).status.IsUnavailable());
  EXPECT_EQ(injector.injected_errors(), 1);

  FaultInjectorConfig spiky;
  spiky.base_latency_ms = 2;
  spiky.spike_probability = 1.0;
  spiky.spike_latency_ms = 5000;
  FaultInjector slow(spiky, &clock);
  RemoteAttempt attempt = slow.Execute(stmt, inner);
  EXPECT_TRUE(attempt.status.ok());
  EXPECT_EQ(attempt.latency_ms, 5002);
  EXPECT_EQ(slow.injected_spikes(), 1);
}

TEST(FaultInjectorTest, SameSeedSameFaultSchedule) {
  FaultInjectorConfig config;
  config.seed = 99;
  config.latency_jitter_ms = 10;
  config.transient_error_probability = 0.4;
  config.spike_probability = 0.2;
  config.spike_latency_ms = 500;
  VirtualClock clock;
  FaultInjector a(config, &clock);
  FaultInjector b(config, &clock);
  const BackendCall& stmt = kCall;
  auto inner = [](const BackendCall&) {
    return Result<ExecutedQuery>(ExecutedQuery{});
  };
  for (int i = 0; i < 50; ++i) {
    RemoteAttempt ra = a.Execute(stmt, inner);
    RemoteAttempt rb = b.Execute(stmt, inner);
    EXPECT_EQ(ra.status.ok(), rb.status.ok()) << "attempt " << i;
    EXPECT_EQ(ra.latency_ms, rb.latency_ms) << "attempt " << i;
  }
}

// -- ResilientRemoteExecutor --------------------------------------------------

class PolicyTest : public ::testing::Test {
 protected:
  /// Builds an executor whose Wait advances the virtual clock (as the real
  /// wiring does via the simulation scheduler).
  ResilientRemoteExecutor MakeExecutor(RemotePolicy policy,
                                       RemoteAttemptFn attempt) {
    return ResilientRemoteExecutor(
        policy, std::move(attempt), &clock_,
        [this](SimTimeMs delta) { clock_.AdvanceBy(delta); });
  }

  VirtualClock clock_;
  EventStream events_;
  const ExecStats& stats_ = events_.stats();
  const BackendCall& stmt_ = kCall;
};

TEST_F(PolicyTest, FirstAttemptSuccessHasNoRetries) {
  RemotePolicy policy;
  auto exec = MakeExecutor(policy, [](const BackendCall&) {
    RemoteAttempt a;
    a.latency_ms = 2;
    return a;
  });
  EXPECT_TRUE(exec.Execute(stmt_, &events_).ok());
  EXPECT_EQ(stats_.remote_retries, 0);
  EXPECT_EQ(clock_.Now(), 2);  // waited only the attempt latency
}

TEST_F(PolicyTest, RetriesThenSucceeds) {
  RemotePolicy policy;
  policy.backoff_base_ms = 50;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter_ms = 0;
  int calls = 0;
  auto exec = MakeExecutor(policy, [&](const BackendCall&) {
    RemoteAttempt a;
    a.latency_ms = 2;
    if (++calls <= 2) a.status = Status::Unavailable("flaky");
    return a;
  });
  EXPECT_TRUE(exec.Execute(stmt_, &events_).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats_.remote_retries, 2);
  // 3 attempts of 2ms plus backoffs 50*2^1 = 100 and 50*2^2 = 200.
  EXPECT_EQ(clock_.Now(), 306);
  EXPECT_EQ(exec.consecutive_failures(), 0);
}

TEST_F(PolicyTest, BackoffFollowsDocumentedSchedule) {
  // Regression for a doc/code mismatch: the policy contract promises the
  // delay before retry i (1-based) is base * multiplier^i, but the executor
  // used to compute base * multiplier^(i-1). With jitter off, each delay is
  // exactly the documented value.
  RemotePolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_ms = 100;
  policy.backoff_multiplier = 3.0;
  policy.backoff_jitter_ms = 0;
  policy.breaker_threshold = 0;
  std::vector<SimTimeMs> waits;
  ResilientRemoteExecutor exec(
      policy,
      [](const BackendCall&) {
        RemoteAttempt a;
        a.status = Status::Unavailable("down");
        return a;
      },
      &clock_, [&](SimTimeMs delta) { waits.push_back(delta); });
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_EQ(waits[0], 300);   // 100 * 3^1
  EXPECT_EQ(waits[1], 900);   // 100 * 3^2
  EXPECT_EQ(waits[2], 2700);  // 100 * 3^3
}

TEST_F(PolicyTest, BackoffJitterIsSeedDeterministic) {
  // Same seed -> identical jittered delays; the documented schedule is the
  // lower edge of each jitter window.
  RemotePolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_ms = 100;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter_ms = 50;
  policy.breaker_threshold = 0;
  policy.seed = 1234;
  auto failing = [](const BackendCall&) {
    RemoteAttempt a;
    a.status = Status::Unavailable("down");
    return a;
  };
  std::vector<SimTimeMs> first;
  std::vector<SimTimeMs> second;
  {
    ResilientRemoteExecutor exec(policy, failing, &clock_,
                                 [&](SimTimeMs d) { first.push_back(d); });
    EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  }
  {
    ResilientRemoteExecutor exec(policy, failing, &clock_,
                                 [&](SimTimeMs d) { second.push_back(d); });
    EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  }
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, second);
  EXPECT_GE(first[0], 200);  // 100 * 2^1 + [0, 50]
  EXPECT_LE(first[0], 250);
  EXPECT_GE(first[1], 400);  // 100 * 2^2 + [0, 50]
  EXPECT_LE(first[1], 450);
}

TEST_F(PolicyTest, BackoffGrowsExponentiallyWithBoundedJitter) {
  RemotePolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_ms = 50;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter_ms = 50;
  policy.breaker_threshold = 0;
  std::vector<SimTimeMs> waits;
  ResilientRemoteExecutor exec(
      policy,
      [](const BackendCall&) {
        RemoteAttempt a;
        a.status = Status::Unavailable("down");
        return a;
      },
      &clock_, [&](SimTimeMs delta) { waits.push_back(delta); });
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  // Waits: 3 backoffs (attempt latency is 0 here, so no attempt waits).
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_GE(waits[0], 100);
  EXPECT_LE(waits[0], 150);
  EXPECT_GE(waits[1], 200);
  EXPECT_LE(waits[1], 250);
  EXPECT_GE(waits[2], 400);
  EXPECT_LE(waits[2], 450);
}

TEST_F(PolicyTest, SlowAttemptsCountAsTimeouts) {
  RemotePolicy policy;
  policy.timeout_ms = 1000;
  policy.max_retries = 1;
  policy.backoff_base_ms = 50;
  policy.backoff_jitter_ms = 0;
  policy.breaker_threshold = 0;
  auto exec = MakeExecutor(policy, [](const BackendCall&) {
    RemoteAttempt a;
    a.latency_ms = 5000;  // back-end answers, but far too late
    return a;
  });
  Result<ExecutedQuery> r = exec.Execute(stmt_, &events_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(stats_.remote_timeouts, 2);
  EXPECT_EQ(stats_.remote_retries, 1);
  // The caller waits timeout_ms per attempt, never the full latency.
  EXPECT_EQ(clock_.Now(), 1000 + 100 + 1000);
}

TEST_F(PolicyTest, BreakerOpensFailsFastAndRecovers) {
  RemotePolicy policy;
  policy.max_retries = 0;
  policy.breaker_threshold = 2;
  policy.breaker_cooldown_ms = 5000;
  int calls = 0;
  bool healthy = false;
  auto exec = MakeExecutor(policy, [&](const BackendCall&) {
    ++calls;
    RemoteAttempt a;
    a.latency_ms = 1;
    if (!healthy) a.status = Status::Unavailable("down");
    return a;
  });
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());  // streak 1
  EXPECT_FALSE(exec.breaker_open());
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());  // streak 2 -> opens
  EXPECT_TRUE(exec.breaker_open());
  EXPECT_EQ(exec.breaker_opens(), 1);
  EXPECT_EQ(stats_.breaker_opens, 1);

  // Open breaker fails fast: the link is not touched.
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  EXPECT_EQ(calls, 2);

  // After the cooldown the next call goes through (half-open probe).
  clock_.AdvanceBy(6000);
  EXPECT_FALSE(exec.breaker_open());
  healthy = true;
  EXPECT_TRUE(exec.Execute(stmt_, &events_).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(exec.consecutive_failures(), 0);
}

TEST_F(PolicyTest, BreakerCooldownBoundaryIsClosed) {
  // The breaker is open strictly *before* open-until: a query arriving at
  // exactly the cooldown deadline must reach the link again, not fail fast.
  RemotePolicy policy;
  policy.max_retries = 0;
  policy.breaker_threshold = 1;
  policy.breaker_cooldown_ms = 5000;
  int calls = 0;
  auto exec = MakeExecutor(policy, [&](const BackendCall&) {
    ++calls;
    RemoteAttempt a;
    a.status = Status::Unavailable("down");
    return a;
  });
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());  // opens at threshold 1
  ASSERT_TRUE(exec.breaker_open());
  SimTimeMs opened_at = clock_.Now();

  // One tick before the deadline: still fast-failing, the link is untouched.
  clock_.AdvanceTo(opened_at + 4999);
  EXPECT_TRUE(exec.breaker_open());
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  EXPECT_EQ(calls, 1);

  // At exactly the deadline the breaker reads closed and the attempt is made.
  clock_.AdvanceTo(opened_at + 5000);
  EXPECT_FALSE(exec.breaker_open());
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  EXPECT_EQ(calls, 2);
}

TEST_F(PolicyTest, FailureStreakRebuildsFromZeroAfterCooldown) {
  // Opening the breaker forgets the streak: after the cooldown, re-opening
  // requires a full threshold of *new* consecutive failures — pre-cooldown
  // failures must not carry over.
  RemotePolicy policy;
  policy.max_retries = 0;
  policy.breaker_threshold = 3;
  policy.breaker_cooldown_ms = 5000;
  int calls = 0;
  auto exec = MakeExecutor(policy, [&](const BackendCall&) {
    ++calls;
    RemoteAttempt a;
    a.status = Status::Unavailable("down");
    return a;
  });
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  EXPECT_TRUE(exec.breaker_open());
  EXPECT_EQ(exec.breaker_opens(), 1);
  EXPECT_EQ(exec.consecutive_failures(), 0);

  clock_.AdvanceBy(5000);
  EXPECT_FALSE(exec.breaker_open());
  // Two fresh failures: below the threshold, so the breaker stays closed.
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  EXPECT_FALSE(exec.breaker_open());
  EXPECT_EQ(exec.consecutive_failures(), 2);
  // The third completes a brand-new streak and re-opens.
  EXPECT_FALSE(exec.Execute(stmt_, &events_).ok());
  EXPECT_TRUE(exec.breaker_open());
  EXPECT_EQ(exec.breaker_opens(), 2);
  EXPECT_EQ(calls, 6);  // every non-fast-fail call reached the link
}

// -- Graceful degradation through the full system -----------------------------

/// An injector config that makes the back-end unreachable forever.
FaultInjectorConfig PermanentOutage() {
  FaultInjectorConfig config;
  config.outages = {{0, 1000000000}};
  return config;
}

class DegradeTest : public ::testing::Test {
 protected:
  // f = 10s, d = 2s: replica staleness sweeps 2s..12s (+1s heartbeat
  // quantum); deliveries land at k*10000 + 2000.
  DegradeTest() : fx_(10000, 2000) { fx_.sys.AdvanceTo(35000); }

  /// Moves virtual time to where the Books replica is exactly `staleness_ms`
  /// stale (staleness_ms must be >= 4000 so the target is reachable from any
  /// phase of the delivery cycle without another delivery intervening).
  SimTimeMs AdvanceToStaleness(SimTimeMs staleness_ms) {
    CurrencyRegion* region = fx_.sys.cache()->region(1);
    SimTimeMs hb = region->local_heartbeat();
    SimTimeMs target = hb + staleness_ms;
    while (target < fx_.sys.Now()) {
      // Already past that staleness in this cycle: step forward until the
      // next delivery refreshes the heartbeat, then re-aim.
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

TEST_F(DegradeTest, SetDegradeStatement) {
  Session* s = fx_.session.get();
  EXPECT_EQ(s->degrade_mode(), DegradeMode::kNone);
  QueryResult r = MustExecute(s, "SET DEGRADE BOUNDED");
  EXPECT_EQ(s->degrade_mode(), DegradeMode::kBounded);
  EXPECT_NE(r.message.find("bounded"), std::string::npos);
  MustExecute(s, "set degrade = always;");
  EXPECT_EQ(s->degrade_mode(), DegradeMode::kAlways);
  MustExecute(s, "SET DEGRADE=NONE");
  EXPECT_EQ(s->degrade_mode(), DegradeMode::kNone);
  // Unknown values are not swallowed: they fall through to the SQL parser.
  EXPECT_FALSE(s->Execute("SET DEGRADE SOMETIMES").ok());
  EXPECT_EQ(s->degrade_mode(), DegradeMode::kNone);
}

TEST_F(DegradeTest, VanillaOutageFailsStaleQueryButLocalStillServes) {
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  AdvanceToStaleness(8000);  // guard fails -> remote branch -> outage
  auto stale = fx_.session->Execute(kBoundedQuery);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsUnavailable());
  // The refused statement released its snapshot pin on the way out.
  const SnapshotEpochManager& epochs = fx_.sys.cache()->epoch_manager();
  EXPECT_EQ(epochs.MinPinnedEpoch(), epochs.current_epoch());

  // A query whose replica is within bound never touches the link: the cache
  // keeps serving through the outage.
  fx_.sys.AdvanceTo(42500);  // just after the delivery at 42000
  QueryResult fresh = MustExecute(fx_.session.get(), kBoundedQuery);
  EXPECT_EQ(fresh.stats.switch_local, 1);
  EXPECT_FALSE(fresh.degraded);
}

TEST_F(DegradeTest, BoundedDegradeServesAfterDeliveryDuringBackoff) {
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  RemotePolicy policy;
  policy.timeout_ms = 1000;
  policy.max_retries = 3;
  policy.backoff_base_ms = 2000;
  policy.backoff_multiplier = 1.0;
  policy.backoff_jitter_ms = 0;
  policy.breaker_threshold = 0;
  fx_.sys.cache()->SetRemotePolicy(policy);
  MustExecute(fx_.session.get(), "SET DEGRADE BOUNDED");

  SimTimeMs hb = AdvanceToStaleness(8000);
  // 8s stale > 6s bound -> remote; every attempt hits the outage, but the
  // ~6s retry budget straddles the next replication delivery (hb + 12000),
  // so the degrade re-probe finds the replica back within bound.
  QueryResult r = MustExecute(fx_.session.get(), kBoundedQuery);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.advisory.IsStaleOk());
  EXPECT_GT(r.staleness_ms, 0);
  EXPECT_LE(r.staleness_ms, 6000);
  EXPECT_EQ(r.stats.remote_retries, 3);
  EXPECT_EQ(r.stats.degraded_serves, 1);
  // Truthful switch accounting (regression): the guard directed the query at
  // the remote branch, but the rows were finally served locally — so this is
  // an attempted remote switch and a local serve, not a remote one.
  EXPECT_EQ(r.stats.switch_remote_attempted, 1);
  EXPECT_EQ(r.stats.switch_remote, 0);
  EXPECT_EQ(r.stats.switch_local, 1);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  // The serve really read the refreshed replica, not the one from arrival.
  SimTimeMs hb_after = fx_.sys.cache()->region(1)->local_heartbeat();
  EXPECT_GT(hb_after, hb);
  EXPECT_EQ(r.staleness_ms, fx_.sys.Now() - hb_after);
}

TEST_F(DegradeTest, BoundedDegradeFailsWhenStillOutOfBound) {
  // No retry policy: the single attempt fails instantly, the re-probe sees
  // the same 8s staleness, and bounded mode refuses to serve.
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  MustExecute(fx_.session.get(), "SET DEGRADE BOUNDED");
  AdvanceToStaleness(8000);
  auto r = fx_.session->Execute(kBoundedQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_NE(r.status().message().find("cannot degrade"), std::string::npos);
  // The refused statement released its snapshot pin on the way out.
  const SnapshotEpochManager& epochs = fx_.sys.cache()->epoch_manager();
  EXPECT_EQ(epochs.MinPinnedEpoch(), epochs.current_epoch());
}

TEST_F(DegradeTest, AlwaysDegradeServesBeyondBoundWithExactStaleness) {
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  MustExecute(fx_.session.get(), "SET DEGRADE ALWAYS");
  AdvanceToStaleness(8000);
  QueryResult r = MustExecute(fx_.session.get(), kBoundedQuery);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.advisory.IsStaleOk());
  EXPECT_EQ(r.staleness_ms, 8000);  // beyond the 6s bound, reported exactly
  EXPECT_NE(r.advisory.message().find("8000"), std::string::npos);
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(DegradeTest, TimeOrderedFloorBlocksStaleDegrade) {
  Session* s = fx_.session.get();
  MustExecute(s, "BEGIN TIMEORDERED");
  AdvanceToStaleness(8000);
  // Healthy link: the stale-guard query runs remotely and lifts the floor to
  // the back-end snapshot time ("now").
  QueryResult remote = MustExecute(s, kBoundedQuery);
  EXPECT_EQ(remote.stats.switch_remote, 1);
  EXPECT_EQ(s->timeline_floor(), fx_.sys.Now());

  // Now the link dies. Even DEGRADE ALWAYS must not serve the replica: its
  // heartbeat is below what this session has already seen.
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  MustExecute(s, "SET DEGRADE ALWAYS");
  auto r = s->Execute(kBoundedQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsConstraintViolation());
  EXPECT_NE(r.status().message().find("timeline floor"), std::string::npos);
}

TEST_F(DegradeTest, TimeOrderedFloorHoldsAcrossDegradedServes) {
  Session* s = fx_.session.get();
  MustExecute(s, "BEGIN TIMEORDERED");
  fx_.sys.AdvanceTo(42500);  // fresh: delivery at 42000
  QueryResult local = MustExecute(s, kBoundedQuery);
  EXPECT_EQ(local.stats.switch_local, 1);
  SimTimeMs floor = s->timeline_floor();
  EXPECT_EQ(floor, fx_.sys.cache()->region(1)->local_heartbeat());

  // Degraded serve from the same replica snapshot: heartbeat == floor is
  // allowed, and the floor never regresses.
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  MustExecute(s, "SET DEGRADE ALWAYS");
  AdvanceToStaleness(8000);
  QueryResult r = MustExecute(s, kBoundedQuery);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.staleness_ms, 8000);
  EXPECT_EQ(s->timeline_floor(), floor);
}

TEST_F(DegradeTest, BreakerTripsAcrossQueriesAndRecovers) {
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  RemotePolicy policy;
  policy.max_retries = 0;
  policy.breaker_threshold = 2;
  policy.breaker_cooldown_ms = 5000;
  fx_.sys.cache()->SetRemotePolicy(policy);
  const char* query =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 3 SECONDS ON (B)";

  AdvanceToStaleness(5000);  // > 3s bound -> remote
  EXPECT_FALSE(fx_.session->Execute(query).ok());  // streak 1
  EXPECT_FALSE(fx_.session->Execute(query).ok());  // streak 2 -> opens
  ResilientRemoteExecutor* exec = fx_.sys.cache()->remote_policy();
  ASSERT_NE(exec, nullptr);
  EXPECT_TRUE(exec->breaker_open());
  EXPECT_EQ(exec->breaker_opens(), 1);
  EXPECT_EQ(fx_.sys.metrics().counter("rcc.remote.breaker_opens")->value(), 1);

  // Fail-fast: the third query never reaches the injector.
  int64_t attempts = fx_.sys.cache()->fault_injector()->attempts();
  EXPECT_FALSE(fx_.session->Execute(query).ok());
  EXPECT_EQ(fx_.sys.cache()->fault_injector()->attempts(), attempts);

  // Link heals, cooldown expires: service resumes.
  fx_.sys.cache()->ClearFaultInjector();
  fx_.sys.AdvanceBy(6000);
  AdvanceToStaleness(5000);
  QueryResult r = MustExecute(fx_.session.get(), query);
  EXPECT_EQ(r.stats.remote_queries, 1);
  EXPECT_FALSE(r.degraded);
}

TEST_F(DegradeTest, OutageWindowsNeverCrashTheCache) {
  // Satellite (e): queries arriving while the guard flips to remote inside
  // an outage window must degrade per policy or fail cleanly — never crash —
  // and a time-ordered session's floor must stay monotone throughout.
  FaultInjectorConfig faults;
  faults.outage_period_ms = 20000;
  faults.outage_down_ms = 6000;
  faults.transient_error_probability = 0.15;
  fx_.sys.cache()->SetFaultInjector(faults);
  RemotePolicy policy;
  policy.timeout_ms = 1000;
  policy.max_retries = 3;
  policy.backoff_base_ms = 250;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter_ms = 50;
  fx_.sys.cache()->SetRemotePolicy(policy);
  Session* s = fx_.session.get();
  MustExecute(s, "SET DEGRADE BOUNDED");
  MustExecute(s, "BEGIN TIMEORDERED");

  int ok = 0;
  int clean_failures = 0;
  SimTimeMs last_floor = -1;
  for (int i = 0; i < 120; ++i) {
    SimTimeMs arrival = 60000 + static_cast<SimTimeMs>(i) * 777;
    if (arrival > fx_.sys.Now()) fx_.sys.AdvanceTo(arrival);
    auto r = s->Execute(kBoundedQuery);
    if (r.ok()) {
      ++ok;
      if (r->degraded) {
        EXPECT_GT(r->staleness_ms, 0);
        EXPECT_LE(r->staleness_ms, 6000);
      }
    } else {
      // Only the two sanctioned failure modes, with a message.
      EXPECT_TRUE(r.status().IsUnavailable() ||
                  r.status().IsConstraintViolation())
          << r.status().ToString();
      EXPECT_FALSE(r.status().message().empty());
      ++clean_failures;
    }
    EXPECT_GE(s->timeline_floor(), last_floor);
    last_floor = s->timeline_floor();
  }
  EXPECT_EQ(ok + clean_failures, 120);
  EXPECT_GT(ok, clean_failures);  // the cache mostly rides out the outages
  EXPECT_GT(fx_.sys.metrics().counter("rcc.remote.retries")->value(), 0);
  EXPECT_GT(fx_.sys.cache()->fault_injector()->injected_errors(), 0);
}

TEST_F(DegradeTest, CumulativeStatsAccumulateAcrossQueries) {
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  MustExecute(fx_.session.get(), "SET DEGRADE ALWAYS");
  AdvanceToStaleness(8000);
  MustExecute(fx_.session.get(), kBoundedQuery);
  MustExecute(fx_.session.get(), kBoundedQuery);
  EXPECT_EQ(fx_.sys.metrics().counter("rcc.degrade.serves")->value(), 2);
}

// -- One statement's decisions: counters, trace and history -------------------
//
// Every guard probe, branch decision, serve and link event of a statement is
// reported three ways: folded into ExecStats, rendered into the trace (SET
// TRACE ON) and sent to the audit history. Each scripted case below pins all
// three, so a change in how decisions are reported cannot move one of them
// unnoticed.

/// Names every audit event in arrival order. Single-threaded use only.
class KindSink : public HistorySink {
 public:
  std::vector<std::string> kinds;

  uint64_t BeginQuery(SimTimeMs) override { return ++queries_; }
  void OnGuardProbe(const GuardObservation& obs) override {
    kinds.push_back(obs.verdict_local ? "guard:local" : "guard:stale");
  }
  void OnServe(const ServeObservation& obs) override {
    kinds.push_back(obs.shed       ? "serve:shed"
                    : obs.degraded ? "serve:degraded"
                    : obs.local    ? "serve:local"
                                   : "serve:remote");
  }
  void OnAnswer(const AnswerObservation& obs) override {
    kinds.push_back(obs.ok ? "answer" : "answer:failed");
  }
  void OnCommit(const CommittedTxn&, SimTimeMs) override {}
  void OnInstall(const InstallObservation&) override {
    kinds.push_back("install");
  }
  void OnHealth(RegionId, RegionHealth, RegionHealth, SimTimeMs,
                int) override {
    kinds.push_back("health");
  }
  void OnSessionMode(uint64_t, bool, SimTimeMs) override {}

 private:
  uint64_t queries_ = 0;
};

using Kinds = std::vector<std::string>;

Kinds TraceKinds(const obs::QueryTrace& trace) {
  Kinds kinds;
  for (const obs::TraceEvent& e : trace.events()) {
    kinds.emplace_back(obs::TraceEventKindName(e.kind));
  }
  return kinds;
}

/// Every ExecStats counter a decision feeds, on one line.
std::string Counters(const ExecStats& s) {
  return StrPrintf(
      "guards=%lld unknown=%lld quarantined=%lld local=%lld remote=%lld "
      "attempted=%lld fetches=%lld retries=%lld timeouts=%lld breaker=%lld "
      "degraded=%lld shed=%lld deadline=%lld",
      static_cast<long long>(s.guard_evaluations),
      static_cast<long long>(s.guard_unknown_region),
      static_cast<long long>(s.guard_quarantined_region),
      static_cast<long long>(s.switch_local),
      static_cast<long long>(s.switch_remote),
      static_cast<long long>(s.switch_remote_attempted),
      static_cast<long long>(s.remote_queries),
      static_cast<long long>(s.remote_retries),
      static_cast<long long>(s.remote_timeouts),
      static_cast<long long>(s.breaker_opens),
      static_cast<long long>(s.degraded_serves),
      static_cast<long long>(s.shed_serves),
      static_cast<long long>(s.deadline_timeouts));
}

/// Five Books rows, each probing Sales under a 6s bound.
constexpr const char* kCorrelatedExistsQuery =
    "SELECT B.isbn FROM Books B WHERE B.isbn <= 5 AND EXISTS ("
    " SELECT 1 FROM Sales S WHERE S.isbn = B.isbn"
    " CURRENCY BOUND 6 SECONDS ON (S)) "
    "CURRENCY BOUND 1 HOUR ON (B)";

class DecisionFoldTest : public DegradeTest {
 protected:
  DecisionFoldTest() {
    fx_.sys.SetHistorySink(&sink_);
    MustExecute(fx_.session.get(), "SET TRACE ON");
  }
  ~DecisionFoldTest() override { fx_.sys.SetHistorySink(nullptr); }

  /// Runs `sql` traced, with the history cleared of earlier events.
  QueryResult Run(const std::string& sql,
                  const Session::StatementOptions& opts = {}) {
    sink_.kinds.clear();
    auto r = fx_.session->Execute(sql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return QueryResult{};
    EXPECT_NE(r->trace, nullptr);
    return std::move(r).value();
  }

  KindSink sink_;
};

TEST_F(DecisionFoldTest, LocalPass) {
  fx_.sys.AdvanceTo(42500);  // just after the delivery at 42000
  QueryResult r = Run(kBoundedQuery);
  EXPECT_EQ(Counters(r.stats),
            "guards=1 unknown=0 quarantined=0 local=1 remote=0 attempted=0 "
            "fetches=0 retries=0 timeouts=0 breaker=0 degraded=0 shed=0 "
            "deadline=0");
  EXPECT_EQ(TraceKinds(*r.trace), (Kinds{"guard_probe", "switch_decision"}));
  EXPECT_EQ(sink_.kinds, (Kinds{"guard:local", "serve:local", "answer"}));
}

TEST_F(DecisionFoldTest, RemoteServe) {
  AdvanceToStaleness(8000);  // past the 6s bound; the link is healthy
  QueryResult r = Run(kBoundedQuery);
  EXPECT_EQ(Counters(r.stats),
            "guards=1 unknown=0 quarantined=0 local=0 remote=1 attempted=1 "
            "fetches=1 retries=0 timeouts=0 breaker=0 degraded=0 shed=0 "
            "deadline=0");
  EXPECT_EQ(TraceKinds(*r.trace),
            (Kinds{"guard_probe", "switch_decision", "remote_fetch"}));
  EXPECT_EQ(sink_.kinds, (Kinds{"guard:stale", "serve:remote", "answer"}));
}

TEST(DecisionFoldJoinTest, CorrelatedRemoteInnerFetchesPerOuterRowServesOnce) {
  // f = 60s, d = 2s and a 55s bound on Reviews: the optimizer bets on the
  // local replica (est_p_local 0.88) and plans an index nested-loop join
  // whose inner SwitchUnion ships R.isbn = <outer B.isbn> to the back-end.
  BookstoreFixture fx(60000, 2000);
  KindSink sink;
  fx.sys.SetHistorySink(&sink);
  MustExecute(fx.session.get(), "SET TRACE ON");
  fx.sys.AdvanceTo(118000);  // Reviews heartbeat 59s: 59s stale > 55s bound
  sink.kinds.clear();
  QueryResult r = MustExecute(
      fx.session.get(),
      "SELECT B.isbn, R.rating FROM Books B, Reviews R "
      "WHERE B.isbn <= 3 AND R.isbn = B.isbn "
      "CURRENCY BOUND 1 HOUR ON (B), 55 SECONDS ON (R)");
  fx.sys.SetHistorySink(nullptr);
  ASSERT_NE(r.trace, nullptr);
  // The inner guard decides once per execution; its remote branch re-opens,
  // and so re-fetches, once per outer row (three books), but the serve is
  // recorded once.
  EXPECT_EQ(Counters(r.stats),
            "guards=2 unknown=0 quarantined=0 local=1 remote=1 attempted=1 "
            "fetches=3 retries=0 timeouts=0 breaker=0 degraded=0 shed=0 "
            "deadline=0");
  EXPECT_EQ(TraceKinds(*r.trace),
            (Kinds{"guard_probe", "switch_decision", "guard_probe",
                   "switch_decision", "remote_fetch", "remote_fetch",
                   "remote_fetch"}));
  EXPECT_EQ(sink.kinds, (Kinds{"guard:local", "serve:local", "guard:stale",
                               "serve:remote", "answer"}));
}

TEST_F(DecisionFoldTest, CorrelatedExistsDecidesOncePerExecution) {
  // An EXISTS subplan is built once per execution and re-opened per outer
  // row, like a join's inner side: its guard decides once, its remote
  // branch re-fetches once per outer row (five books), and the serve is
  // recorded once.
  AdvanceToStaleness(8000);
  QueryResult r = Run(kCorrelatedExistsQuery);
  EXPECT_EQ(Counters(r.stats),
            "guards=2 unknown=0 quarantined=0 local=1 remote=1 attempted=1 "
            "fetches=5 retries=0 timeouts=0 breaker=0 degraded=0 shed=0 "
            "deadline=0");
  EXPECT_EQ(TraceKinds(*r.trace),
            (Kinds{"guard_probe", "switch_decision", "guard_probe",
                   "switch_decision", "remote_fetch", "remote_fetch",
                   "remote_fetch", "remote_fetch", "remote_fetch"}));
  EXPECT_EQ(sink_.kinds, (Kinds{"guard:local", "serve:local", "guard:stale",
                                "serve:remote", "answer"}));
}

TEST(DecisionFoldHistoryTest, CorrelatedExistsServesEachOperandOnce) {
  // The scenario above, recorded from the first install on and replayed
  // through the conformance oracle: every operand is served once per query
  // id (operand-served-once), however many outer rows re-open the subplan.
  sim::HistoryRecorder recorder(/*seed=*/0);
  RccSystem sys;
  sys.SetHistorySink(&recorder);
  ASSERT_TRUE(LoadBookstore(&sys, BookstoreConfig()).ok());
  ASSERT_TRUE(SetupBookstoreCache(&sys, 10000, 2000).ok());
  auto session = sys.CreateSession();
  sys.AdvanceTo(35000);
  // Books and Sales share region 1: 8s past its heartbeat, Sales is beyond
  // its 6s bound and Books well within its hour.
  sys.AdvanceTo(sys.cache()->region(1)->local_heartbeat() + 8000);
  QueryResult r = MustExecute(session.get(), kCorrelatedExistsQuery);
  sys.SetHistorySink(nullptr);
  EXPECT_EQ(r.stats.remote_queries, 5);

  const sim::History history = recorder.Snapshot();
  int serves = 0;
  for (const sim::HistoryEvent& ev : history.events) {
    if (ev.kind == sim::HistoryEvent::Kind::kServe) ++serves;
  }
  EXPECT_EQ(serves, 2);  // Books locally, Sales remotely
  const sim::OracleReport report = sim::CheckHistory(history);
  EXPECT_EQ(report.answers_checked, 1);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(DecisionFoldTest, BoundedDegradeReprobeIsCountedNotReported) {
  // The scenario of BoundedDegradeServesAfterDeliveryDuringBackoff: every
  // attempt hits the outage, a delivery lands during the backoff, and the
  // degrade re-probe finds the replica back within bound.
  fx_.sys.cache()->SetFaultInjector(PermanentOutage());
  RemotePolicy policy;
  policy.timeout_ms = 1000;
  policy.max_retries = 3;
  policy.backoff_base_ms = 2000;
  policy.backoff_multiplier = 1.0;
  policy.backoff_jitter_ms = 0;
  policy.breaker_threshold = 0;
  fx_.sys.cache()->SetRemotePolicy(policy);
  MustExecute(fx_.session.get(), "SET DEGRADE BOUNDED");
  AdvanceToStaleness(8000);
  QueryResult r = Run(kBoundedQuery);
  // Two guard evaluations (the probe and the degrade re-probe), but one
  // guard_probe line and one guard event: the re-probe is only counted.
  EXPECT_EQ(Counters(r.stats),
            "guards=2 unknown=0 quarantined=0 local=1 remote=0 attempted=1 "
            "fetches=0 retries=3 timeouts=0 breaker=0 degraded=1 shed=0 "
            "deadline=0");
  EXPECT_EQ(TraceKinds(*r.trace),
            (Kinds{"guard_probe", "switch_decision", "remote_attempt",
                   "remote_backoff", "remote_attempt", "remote_backoff",
                   "remote_attempt", "remote_backoff", "replication_delivery",
                   "replication_delivery", "remote_attempt",
                   "degraded_serve"}));
  // Both regions deliver during the third backoff; their installs stay
  // after the probe that came before them.
  EXPECT_EQ(sink_.kinds, (Kinds{"guard:stale", "install", "install",
                                "serve:degraded", "answer"}));
}

TEST_F(DecisionFoldTest, ShedServe) {
  MustExecute(fx_.session.get(), "SET DEGRADE ALWAYS");
  AdvanceToStaleness(8000);
  Session::StatementOptions shed;
  shed.shed_hint = true;
  QueryResult r = Run(kBoundedQuery, shed);
  EXPECT_EQ(Counters(r.stats),
            "guards=1 unknown=0 quarantined=0 local=1 remote=0 attempted=1 "
            "fetches=0 retries=0 timeouts=0 breaker=0 degraded=1 shed=1 "
            "deadline=0");
  EXPECT_EQ(TraceKinds(*r.trace),
            (Kinds{"guard_probe", "switch_decision", "shed_serve"}));
  EXPECT_EQ(sink_.kinds, (Kinds{"guard:stale", "serve:shed", "answer"}));
}

TEST_F(DecisionFoldTest, QuarantinedRegion) {
  // Planned while healthy: a quarantine re-plans cached texts remote-only,
  // so only a plan prepared before it still probes the region.
  QueryPlan plan = MustPrepare(fx_.session.get(), kBoundedQuery);
  ASSERT_NE(plan.Shape(), PlanShape::kRemoteOnly);
  ReplicationFaultConfig faults;
  faults.poison_probability = 1.0;
  fx_.sys.cache()->SetReplicationFaults(faults);
  for (int i = 0; i < 3; ++i) {
    fx_.sys.AdvanceBy(500);
    MustExecute(fx_.session.get(),
                "UPDATE Books SET price = " + std::to_string(10 + i) +
                    " WHERE isbn = " + std::to_string(1 + i));
  }
  fx_.sys.AdvanceBy(13000);  // past the next wakeup and delivery
  ASSERT_EQ(fx_.sys.cache()->RegionHealthOf(1), RegionHealth::kQuarantined);

  sink_.kinds.clear();
  obs::QueryTrace trace;
  EventStream events(&trace);
  PreparedExecOptions traced;
  traced.events = &events;
  auto r = fx_.sys.cache()->ExecutePrepared(plan, traced);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Counters(r->stats),
            "guards=1 unknown=1 quarantined=1 local=0 remote=1 attempted=1 "
            "fetches=1 retries=0 timeouts=0 breaker=0 degraded=0 shed=0 "
            "deadline=0");
  EXPECT_EQ(TraceKinds(trace),
            (Kinds{"guard_probe", "switch_decision", "remote_fetch"}));
  EXPECT_EQ(sink_.kinds, (Kinds{"guard:stale", "serve:remote", "answer"}));
}

// -- Acceptance thresholds (ISSUE): resilient vs vanilla under 30% outage ----

TEST(FaultThresholdTest, ResilientPolicySurvivesOutagesVanillaDoesNot) {
  // Scripted 30% outage (20s period, 6s down) + 20% transient errors.
  // Bound 5s over f=10s/d=2s: ~30% of arrivals can be answered locally.
  FaultInjectorConfig faults;
  faults.outage_period_ms = 20000;
  faults.outage_down_ms = 6000;
  faults.transient_error_probability = 0.2;

  const char* query =
      "SELECT isbn FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 5 SECONDS ON (B)";
  constexpr int kQueries = 250;
  constexpr SimTimeMs kStart = 60000;
  constexpr SimTimeMs kStep = 997;

  // Resilient system: retries with backoff + bounded degradation.
  BookstoreFixture resilient(10000, 2000);
  resilient.sys.cache()->SetFaultInjector(faults);
  RemotePolicy policy;
  policy.timeout_ms = 1000;
  // ~3.5s retry budget (backoffs 500/1000/2000): shorter than a full outage,
  // so queries arriving early in an outage window must fall back to bounded
  // degradation.
  policy.max_retries = 3;
  policy.backoff_base_ms = 250;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter_ms = 50;
  policy.breaker_threshold = 0;  // measure pure retry+degrade behaviour
  resilient.sys.cache()->SetRemotePolicy(policy);
  MustExecute(resilient.session.get(), "SET DEGRADE BOUNDED");

  int resilient_ok = 0;
  int unsatisfiable = 0;
  int degraded_serves = 0;
  for (int i = 0; i < kQueries; ++i) {
    SimTimeMs arrival = kStart + static_cast<SimTimeMs>(i) * kStep;
    if (arrival > resilient.sys.Now()) resilient.sys.AdvanceTo(arrival);
    auto r = resilient.session->Execute(query);
    if (r.ok()) {
      ++resilient_ok;
      if (r->degraded) {
        ++degraded_serves;
        // Every degraded answer reports its real, nonzero staleness.
        SimTimeMs hb = resilient.sys.cache()->region(1)->local_heartbeat();
        EXPECT_EQ(r->staleness_ms, resilient.sys.Now() - hb);
        EXPECT_GT(r->staleness_ms, 0);
        EXPECT_LE(r->staleness_ms, 5000);
        EXPECT_TRUE(r->advisory.IsStaleOk());
      }
      continue;
    }
    // A failure is acceptable only if the bound was genuinely unsatisfiable
    // when the query gave up: replica out of bound (bounded mode re-checked
    // it) and the back-end unreachable.
    SimTimeMs now = resilient.sys.Now();
    SimTimeMs hb = resilient.sys.cache()->region(1)->local_heartbeat();
    EXPECT_GT(now - hb, 5000) << r.status().ToString();
    ++unsatisfiable;
  }
  int satisfiable = kQueries - unsatisfiable;
  ASSERT_GT(satisfiable, 0);
  double resilient_rate =
      static_cast<double>(resilient_ok) / static_cast<double>(satisfiable);
  EXPECT_GE(resilient_rate, 0.99);
  EXPECT_GT(degraded_serves, 0);
  EXPECT_GT(resilient.sys.metrics().counter("rcc.remote.retries")->value(), 0);

  // Vanilla system: same faults, single bare attempt, no degradation.
  BookstoreFixture vanilla(10000, 2000);
  vanilla.sys.cache()->SetFaultInjector(faults);
  int vanilla_ok = 0;
  for (int i = 0; i < kQueries; ++i) {
    SimTimeMs arrival = kStart + static_cast<SimTimeMs>(i) * kStep;
    if (arrival > vanilla.sys.Now()) vanilla.sys.AdvanceTo(arrival);
    if (vanilla.session->Execute(query).ok()) ++vanilla_ok;
  }
  double vanilla_rate =
      static_cast<double>(vanilla_ok) / static_cast<double>(kQueries);
  EXPECT_LT(vanilla_rate, 0.75);

  // The whole point, end to end: resilience closes most of the gap.
  double resilient_overall =
      static_cast<double>(resilient_ok) / static_cast<double>(kQueries);
  EXPECT_GT(resilient_overall, vanilla_rate + 0.15);
}

}  // namespace
}  // namespace rcc
