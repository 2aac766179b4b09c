// Fleet conformance suite: the C&C-aware router over N heterogeneous cache
// nodes. Unit tests pin the eligibility ladder (cheapest eligible node,
// lowest-id tie-break, coverage failures, quarantine withdrawal, backend
// fall-through, deadline short-circuit), a property test randomizes per-node
// heartbeats against an independent re-derivation of the router's choice,
// the plan-cache cases pin the SQL-text path (one plan per node per
// template, peers that look up by template alone, a backend tier that plans
// once per template, per-node invalidation, like-for-like pricing, routed
// batches), and every recorded history replays clean through the multi-node
// conformance oracle. Epoch-pin hygiene is asserted after every scenario:
// routed statements must never leak an MVCC snapshot pin on any node.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/fault_injector.h"
#include "core/statement_router.h"
#include "fleet/fleet.h"
#include "fleet/router.h"
#include "replication/fault_injector.h"
#include "sim/history.h"
#include "sim/oracle.h"
#include "common/strings.h"
#include "sql/parser.h"

namespace rcc {
namespace {

using fleet::BooksRegion;
using fleet::FleetConfig;
using fleet::FleetNodeConfig;
using fleet::FleetSystem;

/// The canonical heterogeneous three-node topology (mirrors the sim
/// runner's): a complete default-cadence node, a fast partial node without
/// Reviews, and a slow complete node.
FleetConfig ThreeNodeConfig(uint64_t seed = 42) {
  FleetConfig fc;
  fc.seed = seed;
  FleetNodeConfig n1;
  n1.update_interval = 8000;
  n1.update_delay = 3000;
  FleetNodeConfig n2;
  n2.update_interval = 4000;
  n2.update_delay = 1500;
  n2.reviews = false;
  FleetNodeConfig n3;
  n3.update_interval = 12000;
  n3.update_delay = 5000;
  fc.nodes = {n1, n2, n3};
  return fc;
}

Status SetupFleet(FleetSystem* f, sim::HistoryRecorder* recorder = nullptr) {
  if (recorder != nullptr) f->SetHistorySink(recorder);
  BookstoreConfig w;
  w.books = 80;
  w.reviews_per_book = 2;
  w.sales_per_book = 2;
  w.seed = 7;
  RCC_RETURN_NOT_OK(f->LoadBookstore(w));
  return f->SetupBookstore();
}

std::vector<const sim::HistoryEvent*> EventsOfKind(
    const sim::History& h, sim::HistoryEvent::Kind kind) {
  std::vector<const sim::HistoryEvent*> out;
  for (const sim::HistoryEvent& ev : h.events) {
    if (ev.kind == kind) out.push_back(&ev);
  }
  return out;
}

void ExpectNoLeakedPins(FleetSystem* f) {
  for (int n = 1; n <= f->node_count(); ++n) {
    const SnapshotEpochManager& em = f->node(n)->epoch_manager();
    EXPECT_EQ(em.MinPinnedEpoch(), em.current_epoch()) << "node " << n;
  }
}

TEST(FleetRouterTest, UnconstrainedQueryKeepsTraditionalSemantics) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(1);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // No currency clause: constraint normalization gives every operand the
  // default bound 0 ("current"), which no replica's delivered currency can
  // meet — the query keeps traditional semantics and serves from the
  // backend, on every node's probes recorded as ineligible.
  auto out = f.router()->RouteSql(
      "SELECT isbn FROM Books B WHERE B.isbn < 30",
      {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0]->backend_tier);
  ASSERT_EQ(routes[0]->probes.size(), 3u);
  for (const RouteProbe& p : routes[0]->probes) {
    EXPECT_EQ(p.bound_ms, 0);
    EXPECT_FALSE(p.eligible);
  }

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.routes_checked, 1);
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, LooseBoundRoutesToCheapestEligibleNode) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(1);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // A loose bound every replica meets: all three nodes are eligible and the
  // choice is pure Eq. 1 cost (lowest id on ties), re-derived independently
  // from per-node Prepare.
  const std::string sql =
      "SELECT isbn FROM Books B WHERE B.isbn < 30 "
      "CURRENCY BOUND 1 HOUR ON (B)";
  auto out = f.router()->RouteSql(sql, {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_FALSE(routes[0]->backend_tier);
  ASSERT_EQ(routes[0]->probes.size(), 3u);
  for (const RouteProbe& p : routes[0]->probes) EXPECT_TRUE(p.eligible);

  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  int best = 0;
  double best_cost = 0;
  for (int n = 1; n <= 3; ++n) {
    auto plan = f.node(n)->Prepare(**stmt);
    ASSERT_TRUE(plan.ok());
    if (best == 0 || plan->est_cost < best_cost) {
      best = n;
      best_cost = plan->est_cost;
    }
  }
  EXPECT_EQ(routes[0]->node, best);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.routes_checked, 1);
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, CoverageFailureExcludesPartialNode) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(2);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // Node 2 materializes no Reviews view, so a Reviews-constrained query must
  // record a coverage-failure probe for it and never choose it.
  auto out = f.router()->RouteSql(
      "SELECT isbn, rating FROM Reviews R WHERE R.isbn < 20 "
      "CURRENCY BOUND 1 HOUR ON (R)",
      {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_FALSE(routes[0]->backend_tier);
  EXPECT_NE(routes[0]->node, 2);
  ASSERT_EQ(routes[0]->probes.size(), 3u);
  bool saw_coverage_failure = false;
  for (const RouteProbe& p : routes[0]->probes) {
    if (p.node == 2) {
      EXPECT_EQ(p.region, kBackendRegion);
      EXPECT_FALSE(p.heartbeat_known);
      EXPECT_FALSE(p.eligible);
      saw_coverage_failure = true;
    } else {
      EXPECT_EQ(p.region, fleet::ReviewsRegion(p.node));
      EXPECT_TRUE(p.eligible);
    }
  }
  EXPECT_TRUE(saw_coverage_failure);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, TightBoundFallsThroughToBackendTier) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(3);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // The minimum steady-state heartbeat lag across the fleet is node 2's
  // 1500ms delivery delay, so a 1s bound can never be met from any cache
  // node: the only eligible tier is the backend, whose data is current by
  // definition.
  auto out = f.router()->RouteSql(
      "SELECT isbn, price FROM Books B WHERE B.isbn < 25 "
      "CURRENCY BOUND 1 SECONDS ON (B)",
      {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0]->backend_tier);
  for (const RouteProbe& p : routes[0]->probes) EXPECT_FALSE(p.eligible);
  for (const sim::HistoryEvent* serve :
       EventsOfKind(h, sim::HistoryEvent::Kind::kServe)) {
    EXPECT_FALSE(serve->local) << "backend-tier dispatch served locally";
  }
  EXPECT_GE(
      f.anchor()->metrics().counter("rcc.fleet.backend_serves")->value(), 1);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, FailedNodeFallsThroughToPeer) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(4);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // Break node 1's query channel completely. The (B, R) consistency class
  // spans two regions on every node, so no local placement can serve it and
  // every plan is all-remote; node 2 lacks Reviews (ineligible), nodes 1 and
  // 3 price identical all-remote plans and the tie goes to node 1 — whose
  // remote fetch now fails, so the router must fall through to node 3.
  FaultInjectorConfig fi;
  fi.transient_error_probability = 1.0;
  f.node(1)->SetFaultInjector(fi);

  auto out = f.router()->RouteSql(
      "SELECT B.isbn, R.rating FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND B.isbn < 10 "
      "CURRENCY BOUND 1 HOUR ON (B, R)",
      {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_FALSE(routes[0]->backend_tier);
  EXPECT_EQ(routes[0]->node, 1);
  EXPECT_FALSE(routes[1]->backend_tier);
  EXPECT_EQ(routes[1]->node, 3);
  EXPECT_EQ(f.anchor()->metrics().counter("rcc.fleet.fallthroughs")->value(),
            1);

  // Each attempt runs under its own query id, so the failed attempt's
  // answer and the successful one never blend in the oracle's view.
  EXPECT_NE(routes[0]->query, routes[1]->query);
  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, ExpiredDeadlineDoesNotFallThrough) {
  FleetSystem f(ThreeNodeConfig());
  ASSERT_TRUE(SetupFleet(&f).ok());
  f.AdvanceTo(30000);

  RoutedStatementOptions opts;
  opts.deadline = Deadline::After(std::chrono::steady_clock::now(), 0);
  auto out = f.router()->RouteSql(
      "SELECT isbn, price FROM Books B WHERE B.isbn < 25 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded()) << out.status().ToString();
  // The budget is spent: no retry on a peer was attempted.
  EXPECT_EQ(f.anchor()->metrics().counter("rcc.fleet.fallthroughs")->value(),
            0);
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, QuarantinedNodeIsNeverServedFrom) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(5);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // Poison node 2's delivery pipeline deterministically: the next delivery
  // carrying ops quarantines its region and withdraws the certified
  // heartbeat.
  ReplicationFaultConfig rf;
  rf.seed = 99;
  rf.poison_probability = 1.0;
  f.SetNodeReplicationFaults(2, rf);
  auto dml = f.anchor()->CreateSession();
  ASSERT_TRUE(
      dml->Execute("UPDATE Books SET price = price + 1 WHERE isbn <= 40")
          .ok());
  // Step in small increments so a check lands inside the quarantine window
  // (the auto-resync only fires at the region's next wakeup, several
  // intervals later).
  bool withdrawn = false;
  for (int i = 0; i < 60 && !withdrawn; ++i) {
    f.AdvanceBy(500);
    withdrawn = !f.node(2)->LocalHeartbeat(BooksRegion(2)).has_value();
  }
  ASSERT_TRUE(withdrawn) << "node 2 never quarantined";

  uint64_t quarantine_seq = 0;
  for (const sim::HistoryEvent& ev : recorder.Snapshot().events) {
    if (ev.kind == sim::HistoryEvent::Kind::kHealth && ev.node == 2 &&
        ev.health_to == RegionHealth::kQuarantined) {
      quarantine_seq = ev.seq;
    }
  }
  ASSERT_GT(quarantine_seq, 0u);

  // Queries issued while the heartbeat is withdrawn (virtual time frozen, so
  // no resync can land in between) must route around node 2.
  for (int i = 0; i < 8; ++i) {
    auto out = f.router()->RouteSql(
        "SELECT isbn, price FROM Books B WHERE B.isbn < 30 "
        "CURRENCY BOUND 1 HOUR ON (B)",
        {});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }

  sim::History h = recorder.Snapshot();
  int64_t post_routes = 0;
  for (const sim::HistoryEvent& ev : h.events) {
    if (ev.seq <= quarantine_seq) continue;
    if (ev.kind == sim::HistoryEvent::Kind::kRoute) {
      ++post_routes;
      if (!ev.backend_tier) {
        EXPECT_NE(ev.node, 2) << "routed to a quarantined node, seq "
                              << ev.seq;
      }
    }
    if (ev.kind == sim::HistoryEvent::Kind::kGuard ||
        ev.kind == sim::HistoryEvent::Kind::kServe) {
      EXPECT_NE(ev.node, 2) << "served from a quarantined node, seq "
                            << ev.seq;
    }
  }
  EXPECT_EQ(post_routes, 8);

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetRouterTest, PerNodeRoutedMetricsMatchHistory) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(6);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  const char* kPool[] = {
      "SELECT isbn FROM Books B WHERE B.isbn < 30",
      "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      "SELECT isbn, rating FROM Reviews R WHERE R.isbn < 20 "
      "CURRENCY BOUND 1 HOUR ON (R)",
  };
  for (int i = 0; i < 9; ++i) {
    auto out = f.router()->RouteSql(kPool[i % 3], {});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }

  sim::History h = recorder.Snapshot();
  int64_t cache_routes[4] = {0, 0, 0, 0};
  for (const sim::HistoryEvent* r :
       EventsOfKind(h, sim::HistoryEvent::Kind::kRoute)) {
    if (!r->backend_tier) ++cache_routes[r->node];
  }
  obs::MetricsRegistry& m = f.anchor()->metrics();
  for (int n = 1; n <= 3; ++n) {
    EXPECT_EQ(m.counter(obs::MetricsRegistry::NodeMetricName("rcc.fleet", n,
                                                             "routed"))
                  ->value(),
              cache_routes[n])
        << "node " << n;
  }
  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(FleetSessionTest, SessionSelectsRouteAcrossTheFleet) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(7);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  std::unique_ptr<Session> session = f.CreateSession();
  auto res = session->Execute(
      "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  // EXPLAIN and DML stay on the anchor: no new route events.
  size_t routes_before =
      EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
          .size();
  EXPECT_GE(routes_before, 1u);
  ASSERT_TRUE(
      session->Execute("EXPLAIN SELECT isbn FROM Books B WHERE B.isbn < 10")
          .ok());
  ASSERT_TRUE(
      session->Execute("UPDATE Books SET price = price + 1 WHERE isbn = 1")
          .ok());
  EXPECT_EQ(EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
                .size(),
            routes_before);

  // Timeline mode flows into routed statements: the floor raised by one
  // query holds for the next, fleet-wide.
  ASSERT_TRUE(session->Execute("BEGIN TIMEORDERED").ok());
  ASSERT_TRUE(session
                  ->Execute("SELECT isbn, price FROM Books B "
                            "WHERE B.isbn < 40 CURRENCY BOUND 1 HOUR ON (B)")
                  .ok());
  ASSERT_TRUE(session
                  ->Execute("SELECT isbn, price FROM Books B "
                            "WHERE B.isbn < 40 CURRENCY BOUND 1 HOUR ON (B)")
                  .ok());
  ASSERT_TRUE(session->Execute("END TIMEORDERED").ok());

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetSessionTest, SetTraceShowsEveryRouteAttemptAndTheServingNode) {
  FleetSystem f(ThreeNodeConfig());
  ASSERT_TRUE(SetupFleet(&f).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  ASSERT_TRUE(session->Execute("SET TRACE ON").ok());
  auto kinds = [](const obs::QueryTrace& trace) {
    std::vector<std::string> out;
    for (const obs::TraceEvent& e : trace.events()) {
      out.emplace_back(obs::TraceEventKindName(e.kind));
    }
    return out;
  };

  // A loose bound: every node's probe is eligible, and the chosen node's
  // guard passes and serves locally.
  auto local = session->Execute(
      "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_NE(local->trace, nullptr);
  EXPECT_EQ(kinds(*local->trace),
            (std::vector<std::string>{"route", "guard_probe",
                                      "switch_decision"}));
  EXPECT_EQ(local->trace->events()[0].detail,
            "node=1 backend_tier=no probes=3 eligible=3");
  EXPECT_EQ(local->stats.switch_local, 1);

  // Node 1's query channel broken: the all-remote (B, R) plan fails there
  // and falls through to node 3. Each attempt has its own route line; the
  // stats are the serving attempt's.
  FaultInjectorConfig fi;
  fi.transient_error_probability = 1.0;
  f.node(1)->SetFaultInjector(fi);
  auto fell = session->Execute(
      "SELECT B.isbn, R.rating FROM Books B, Reviews R "
      "WHERE B.isbn = R.isbn AND B.isbn < 10 "
      "CURRENCY BOUND 1 HOUR ON (B, R)");
  ASSERT_TRUE(fell.ok()) << fell.status().ToString();
  ASSERT_NE(fell->trace, nullptr);
  EXPECT_EQ(kinds(*fell->trace),
            (std::vector<std::string>{"route", "route", "remote_fetch"}));
  EXPECT_EQ(fell->trace->events()[0].detail,
            "node=1 backend_tier=no probes=6 eligible=5");
  EXPECT_EQ(fell->trace->events()[1].detail,
            "node=3 backend_tier=no probes=6 eligible=5");
  EXPECT_EQ(fell->stats.remote_queries, 1);

  // Tracing off again: no trace object.
  ASSERT_TRUE(session->Execute("SET TRACE OFF").ok());
  auto off = session->Execute(
      "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
      "CURRENCY BOUND 1 HOUR ON (B)");
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off->trace, nullptr);
  ExpectNoLeakedPins(&f);
}

TEST(FleetPropertyTest, RouterAlwaysPicksCheapestEligibleNode) {
  // Randomized per-node heartbeats (seeded fleets advanced to arbitrary
  // points in their refresh cycles) against an independent re-derivation of
  // the eligibility ladder and the cost argmin. Every recorded history must
  // also replay clean through the multi-node oracle.
  const SimTimeMs kBounds[] = {2000, 5000, 12000, 3600000};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FleetSystem f(ThreeNodeConfig(seed));
    sim::HistoryRecorder recorder(seed);
    ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
    f.AdvanceTo(20000 + static_cast<SimTimeMs>(seed * 1711));

    for (int step = 0; step < 12; ++step) {
      f.AdvanceBy(700 +
                  static_cast<SimTimeMs>((seed * 131 + step * 977) % 2300));
      SimTimeMs bound = kBounds[(seed + step) % 4];
      std::string sql =
          "SELECT isbn, price FROM Books B WHERE B.isbn < 35 "
          "CURRENCY BOUND " +
          std::to_string(bound) + " MILLISECONDS ON (B)";
      auto stmt = ParseSelect(sql);
      ASSERT_TRUE(stmt.ok());

      // Independent expectation, derived before the router runs: per node,
      // the certified heartbeat of the view's region and the router's
      // eligibility formula, then the Eq. 1 cost argmin with the lowest-id
      // tie-break.
      const SimTimeMs now = f.Now();
      int best = 0;
      double best_cost = 0;
      for (int n = 1; n <= 3; ++n) {
        auto views = f.node(n)->catalog().ViewsOnTable("Books");
        ASSERT_FALSE(views.empty());
        std::optional<SimTimeMs> hb =
            f.node(n)->LocalHeartbeat(views.front()->region);
        if (!hb.has_value() || *hb <= now - bound) continue;
        auto plan = f.node(n)->Prepare(**stmt);
        if (!plan.ok()) continue;
        if (best == 0 || plan->est_cost < best_cost) {
          best = n;
          best_cost = plan->est_cost;
        }
      }

      size_t routes_before =
          EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
              .size();
      auto out = f.router()->RouteSql(sql, {});
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      sim::History h = recorder.Snapshot();
      auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
      ASSERT_GT(routes.size(), routes_before);
      const sim::HistoryEvent* first = routes[routes_before];
      if (best == 0) {
        EXPECT_TRUE(first->backend_tier) << "seed " << seed << " step "
                                         << step;
      } else {
        EXPECT_FALSE(first->backend_tier) << "seed " << seed << " step "
                                          << step;
        EXPECT_EQ(first->node, best) << "seed " << seed << " step " << step;
      }
    }

    sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.Summary();
    ExpectNoLeakedPins(&f);
  }
}

// -- routing through each node's plan cache -----------------------------------

struct PlanCacheCounts {
  int64_t hits[4] = {0, 0, 0, 0};
  int64_t misses[4] = {0, 0, 0, 0};
};

PlanCacheCounts CountPlanCaches(FleetSystem* f) {
  PlanCacheCounts c;
  for (int n = 1; n <= f->node_count(); ++n) {
    c.hits[n] = f->node(n)->plan_cache().hits();
    c.misses[n] = f->node(n)->plan_cache().misses();
  }
  return c;
}

std::string BooksBelow(int isbn) {
  return StrPrintf(
      "SELECT isbn, price FROM Books B WHERE B.isbn < %d "
      "CURRENCY BOUND 1 HOUR ON (B)",
      isbn);
}

/// One template at 24 literals through `session`, 450 ms apart, under a
/// bound every node meets: every statement looks the template up on all
/// three nodes. `after_each` runs after each statement.
void RouteBooksBelowLiterals(FleetSystem* f, Session* session,
                             const std::function<void(int)>& after_each) {
  for (int i = 0; i < 24; ++i) {
    f->AdvanceBy(450);
    auto res = session->Execute(BooksBelow(20 + i));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->rows.size(), static_cast<size_t>(19 + i));
    after_each(i);
  }
}

TEST(FleetPlanCacheTest, RoutedTemplatePlansAtMostOncePerNode) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(11);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  const PlanCacheCounts before = CountPlanCaches(&f);

  // Each node plans the template once.
  RouteBooksBelowLiterals(&f, session.get(), [](int) {});

  const PlanCacheCounts after = CountPlanCaches(&f);
  for (int n = 1; n <= 3; ++n) {
    EXPECT_LE(after.misses[n] - before.misses[n], 1) << "node " << n;
    EXPECT_GE(after.hits[n] - before.hits[n], 23) << "node " << n;
  }
  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.routes_checked, 24);
  ExpectNoLeakedPins(&f);
}

TEST(FleetPlanCacheTest, PeersDoNoPerTextWork) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(15);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  const PlanCacheCounts before = CountPlanCaches(&f);

  // A peer looks the anchor's template up at the template level only: after
  // its first miss publishes the template, no routed text adds an entry (no
  // L1 promotion per text), while the anchor keeps one L1 entry per text.
  size_t peer_size[4] = {0, 0, 0, 0};
  RouteBooksBelowLiterals(&f, session.get(), [&](int i) {
    for (int n = 2; n <= 3; ++n) {
      const size_t size = f.node(n)->plan_cache().size();
      if (i == 0) {
        peer_size[n] = size;
      } else {
        EXPECT_EQ(size, peer_size[n]) << "node " << n << ", text " << i;
      }
    }
  });
  const PlanCacheCounts after = CountPlanCaches(&f);
  for (int n = 1; n <= 3; ++n) {
    EXPECT_LE(after.misses[n] - before.misses[n], 1) << "node " << n;
    EXPECT_GE(after.hits[n] - before.hits[n], 23) << "node " << n;
  }
  EXPECT_GT(f.node(1)->plan_cache().size(), 24u);

  // One text into the backend tier under DEGRADE NONE and then ALWAYS (a
  // timeline floor at `now` is above every node's heartbeat, so no node is
  // eligible under either mode): the all-remote plan is cached per mode.
  const std::string sql = BooksBelow(33);
  for (DegradeMode mode : {DegradeMode::kNone, DegradeMode::kAlways}) {
    RoutedStatementOptions opts;
    opts.timeline_floor = f.Now();
    opts.degrade = mode;
    opts.timeordered = true;
    auto out = f.router()->RouteSql(sql, opts);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->result.rows.size(), 32u);
  }
  const sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 26u);
  EXPECT_TRUE(routes[24]->backend_tier);
  EXPECT_TRUE(routes[25]->backend_tier);
  const NormalizedSql norm = NormalizeSql(sql);
  std::vector<Value> params;
  for (const ParamSlot& slot : norm.slots) params.push_back(slot.value);
  for (DegradeMode mode : {DegradeMode::kNone, DegradeMode::kAlways}) {
    auto found = f.node(1)->plan_cache().LookupTemplate(
        PlanCache::ContextKey(norm.text, mode, /*timeordered=*/true,
                              /*match_views=*/false),
        params, [](const PlanCacheEntry&) { return true; });
    ASSERT_TRUE(found.hit.has_value());
#ifdef RCC_PLANCACHE_MUTATE
    // Planted bug: the degrade-blind key folds both modes into the entry
    // cached first, under NONE.
    EXPECT_EQ(found.hit->entry->created_degrade, DegradeMode::kNone);
#else
    EXPECT_EQ(found.hit->entry->created_degrade, mode);
#endif
    EXPECT_EQ(found.hit->entry->plan->Shape(), PlanShape::kRemoteOnly);
  }

  sim::OracleReport report = sim::CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

std::string BooksBelowWithin(int isbn, const char* bound) {
  return StrPrintf(
      "SELECT isbn, price FROM Books B WHERE B.isbn < %d "
      "CURRENCY BOUND %s ON (B)",
      isbn, bound);
}

/// Books rows with isbn below `isbn` in the master table.
size_t MasterBooksBelow(FleetSystem* f, int isbn) {
  size_t n = 0;
  for (const auto& [key, row] : f->shard(0)->table("Books")->rows()) {
    if (key[0].AsInt() < isbn) ++n;
  }
  return n;
}

TEST(FleetPlanCacheTest, BackendTierTemplatePlansOnce) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(16);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  CacheDbms* anchor = f.node(1);

  // A 1 s bound no cache node meets (TightBoundFallsThroughToBackendTier):
  // every literal goes to the backend tier. The anchor's view-matched entry
  // is warmed first, so the anchor lookups counted below are one hit on it
  // per statement plus the all-remote plan's: one miss, then hits.
  ASSERT_TRUE(anchor->LookupOrPlan(BooksBelowWithin(10, "1 SECONDS"),
                                   DegradeMode::kNone, false)
                  .ok());
  const PlanCacheCounts before = CountPlanCaches(&f);
  for (int k = 20; k < 40; ++k) {
    auto out = f.router()->RouteSql(BooksBelowWithin(k, "1 SECONDS"), {});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->result.rows.size(), MasterBooksBelow(&f, k));
  }
  const PlanCacheCounts after = CountPlanCaches(&f);
  EXPECT_EQ(after.misses[1] - before.misses[1], 1);
  EXPECT_EQ(after.hits[1] - before.hits[1], 20 + 19);
  // No peer is eligible, so no peer looks anything up.
  for (int n = 2; n <= 3; ++n) {
    EXPECT_EQ(after.misses[n] + after.hits[n],
              before.misses[n] + before.hits[n])
        << "node " << n;
  }
  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 20u);
  for (const sim::HistoryEvent* route : routes) {
    EXPECT_TRUE(route->backend_tier);
  }

  // The view-matched and all-remote plans of one template are keyed apart.
  // A 1 h bound under a timeline floor at `now` goes to the backend tier
  // (caching the template's all-remote plan); the same template at another
  // literal under a low floor then hits the view-matched plan and serves
  // locally on a cache node.
  RoutedStatementOptions timeordered;
  timeordered.timeordered = true;
  timeordered.timeline_floor = f.Now();
  ASSERT_TRUE(
      f.router()->RouteSql(BooksBelowWithin(50, "1 HOUR"), timeordered).ok());
  timeordered.timeline_floor = 1;
  auto local =
      f.router()->RouteSql(BooksBelowWithin(51, "1 HOUR"), timeordered);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local->result.rows.size(), MasterBooksBelow(&f, 51));
  h = recorder.Snapshot();
  routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 22u);
  EXPECT_TRUE(routes[20]->backend_tier);
  EXPECT_FALSE(routes[21]->backend_tier);
  bool served_locally = false;
  for (const sim::HistoryEvent* serve :
       EventsOfKind(h, sim::HistoryEvent::Kind::kServe)) {
    if (serve->query == routes[21]->query) {
      served_locally = served_locally || serve->local;
    }
  }
  EXPECT_TRUE(served_locally);

  // A statistics refresh on the anchor drops its plans: the backend-tier
  // template re-plans once, then hits again.
  ASSERT_TRUE(
      anchor->UpdateStatistics("Books", anchor->catalog().GetStats("Books"))
          .ok());
  ASSERT_TRUE(anchor->LookupOrPlan(BooksBelowWithin(10, "1 SECONDS"),
                                   DegradeMode::kNone, false)
                  .ok());
  const PlanCacheCounts replan0 = CountPlanCaches(&f);
  for (int k : {41, 42}) {
    auto out = f.router()->RouteSql(BooksBelowWithin(k, "1 SECONDS"), {});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  const PlanCacheCounts replan1 = CountPlanCaches(&f);
  EXPECT_EQ(replan1.misses[1] - replan0.misses[1], 1);
  EXPECT_EQ(replan1.hits[1] - replan0.hits[1], 3);

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetPlanCacheTest, AstEntryRoutesThroughThePlanCaches) {
  FleetSystem f(ThreeNodeConfig());
  ASSERT_TRUE(SetupFleet(&f).ok());
  f.AdvanceTo(30000);

  // A parsed statement routes as its rendered text, so once RouteSql has
  // warmed the template on every node it plans nowhere and hits the anchor.
  auto warm = ParseSelect(BooksBelow(20));
  auto stmt = ParseSelect(BooksBelow(30));
  ASSERT_TRUE(warm.ok() && stmt.ok());
  ASSERT_TRUE(f.router()->RouteSql((*warm)->ToString(), {}).ok());
  const PlanCacheCounts before = CountPlanCaches(&f);
  auto out = f.router()->RouteSelect(**stmt, {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->result.rows.size(), MasterBooksBelow(&f, 30));
  const PlanCacheCounts after = CountPlanCaches(&f);
  for (int n = 1; n <= 3; ++n) {
    EXPECT_EQ(after.misses[n], before.misses[n]) << "node " << n;
  }
  EXPECT_GE(after.hits[1] - before.hits[1], 1);
  ExpectNoLeakedPins(&f);
}

TEST(FleetPlanCacheTest, StatisticsChangeReplansOnlyThatNode) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(12);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  ASSERT_TRUE(session->Execute(BooksBelow(30)).ok());

  // Statistics refresh on a peer: only that peer's cache moves its version,
  // so only it plans the next routed statement.
  for (int node : {3, 2}) {
    CacheDbms* cache = f.node(node);
    ASSERT_TRUE(
        cache->UpdateStatistics("Books", cache->catalog().GetStats("Books"))
            .ok());
    const PlanCacheCounts before = CountPlanCaches(&f);
    ASSERT_TRUE(session->Execute(BooksBelow(31 + node)).ok());
    const PlanCacheCounts after = CountPlanCaches(&f);
    for (int n = 1; n <= 3; ++n) {
      EXPECT_EQ(after.misses[n] - before.misses[n], n == node ? 1 : 0)
          << "invalidated node " << node << ", node " << n;
    }
  }

  // View DDL on a peer: the same, through the catalog.
  ViewDef extra;
  extra.name = "BooksCheap";
  extra.source_table = "Books";
  extra.region = BooksRegion(3);
  extra.columns = {"isbn", "price"};
  ASSERT_TRUE(f.node(3)->CreateView(extra).ok());
  const PlanCacheCounts before = CountPlanCaches(&f);
  ASSERT_TRUE(session->Execute(BooksBelow(40)).ok());
  const PlanCacheCounts after = CountPlanCaches(&f);
  for (int n = 1; n <= 3; ++n) {
    EXPECT_EQ(after.misses[n] - before.misses[n], n == 3 ? 1 : 0)
        << "node " << n;
  }

  // The anchor is the price reference: when it re-plans at the statement's
  // literals, every peer re-prices its entry at them once.
  ASSERT_TRUE(
      f.node(1)
          ->UpdateStatistics("Books", f.node(1)->catalog().GetStats("Books"))
          .ok());
  const PlanCacheCounts reprice0 = CountPlanCaches(&f);
  ASSERT_TRUE(session->Execute(BooksBelow(50)).ok());
  ASSERT_TRUE(session->Execute(BooksBelow(51)).ok());
  const PlanCacheCounts reprice1 = CountPlanCaches(&f);
  for (int n = 1; n <= 3; ++n) {
    EXPECT_EQ(reprice1.misses[n] - reprice0.misses[n], 1) << "node " << n;
  }

  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetPlanCacheTest, TiedNodesKeepLowestIdAcrossCreationLiterals) {
  // Two identically configured complete nodes: fresh Prepare prices a
  // statement the same on both, so the lowest id must win.
  FleetConfig fc;
  fc.nodes = {FleetNodeConfig{}, FleetNodeConfig{}};
  FleetSystem f(fc);
  sim::HistoryRecorder recorder(13);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);

  // Each node's entry for the template is built from different literals;
  // a range's row estimate, and so its Eq. 1 cost, grows with its width.
  auto wide = f.node(1)->LookupOrPlan(BooksBelow(70), DegradeMode::kNone,
                                      false);
  auto narrow = f.node(2)->LookupOrPlan(BooksBelow(5), DegradeMode::kNone,
                                        false);
  ASSERT_TRUE(wide.ok() && narrow.ok());
  ASSERT_TRUE(wide->entry->parameterized);
  ASSERT_TRUE(narrow->entry->parameterized);
  ASSERT_LT(narrow->entry->plan->est_cost, wide->entry->plan->est_cost);

  const std::string sql = BooksBelow(40);
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  auto fresh1 = f.node(1)->Prepare(**stmt);
  auto fresh2 = f.node(2)->Prepare(**stmt);
  ASSERT_TRUE(fresh1.ok() && fresh2.ok());
  ASSERT_EQ(fresh1->est_cost, fresh2->est_cost);

  std::unique_ptr<Session> session = f.CreateSession();
  auto res = session->Execute(sql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows.size(), 39u);
  sim::History h = recorder.Snapshot();
  auto routes = EventsOfKind(h, sim::HistoryEvent::Kind::kRoute);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_FALSE(routes[0]->backend_tier);
  EXPECT_EQ(routes[0]->node, 1);
  EXPECT_TRUE(sim::CheckHistory(h).ok());
  ExpectNoLeakedPins(&f);
}

TEST(FleetSessionTest, RoutedBatchOnFourWorkersLeaksNoPins) {
  FleetSystem f(ThreeNodeConfig());
  sim::HistoryRecorder recorder(14);
  ASSERT_TRUE(SetupFleet(&f, &recorder).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();

  std::vector<std::string> sqls;
  for (int i = 0; i < 48; ++i) {
    switch (i % 3) {
      case 0:
        sqls.push_back(BooksBelow(10 + i));
        break;
      case 1:
        sqls.push_back(StrPrintf(
            "SELECT isbn, rating FROM Reviews R WHERE R.isbn < %d "
            "CURRENCY BOUND 1 HOUR ON (R)",
            5 + i));
        break;
      default:
        sqls.push_back(StrPrintf(
            "SELECT isbn FROM Books B WHERE B.isbn < %d "
            "CURRENCY BOUND 2 SECONDS ON (B)",
            5 + i));
        break;
    }
  }
  std::vector<Result<QueryResult>> serial = session->ExecuteBatch(sqls, 1);
  const size_t routes_before =
      EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
          .size();
  std::vector<Result<QueryResult>> pooled = session->ExecuteBatch(sqls, 4);
  ASSERT_EQ(pooled.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].status().ToString();
    ASSERT_TRUE(pooled[i].ok()) << pooled[i].status().ToString();
    EXPECT_EQ(pooled[i]->rows.size(), serial[i]->rows.size()) << sqls[i];
  }
  // Every item routed (the fleet, not just the anchor, served the batch).
  EXPECT_GE(EventsOfKind(recorder.Snapshot(), sim::HistoryEvent::Kind::kRoute)
                    .size() -
                routes_before,
            sqls.size());
  for (int n = 1; n <= 3; ++n) EXPECT_FALSE(f.node(n)->in_concurrent_batch());
  sim::OracleReport report = sim::CheckHistory(recorder.Snapshot());
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectNoLeakedPins(&f);
}

TEST(FleetSessionTest, RoutedBatchSharesOneBackendPlanCache) {
  FleetSystem f(ThreeNodeConfig());
  ASSERT_TRUE(SetupFleet(&f).ok());
  f.AdvanceTo(30000);
  std::unique_ptr<Session> session = f.CreateSession();
  // Under DEGRADE ALWAYS every stale node stays eligible, so each item routes
  // to its cheapest node, whose 2-second guard then fails: Books items run
  // their remote branch on node 2, Reviews items on node 1, all into the
  // one back end (shard 0) and its one plan cache.
  ASSERT_TRUE(session->Execute("SET DEGRADE ALWAYS").ok());
  std::vector<std::string> sqls;
  for (int i = 0; i < 48; ++i) {
    sqls.push_back(StrPrintf(
        i % 2 == 0 ? "SELECT isbn, price FROM Books B WHERE B.isbn = %d "
                     "CURRENCY BOUND 2 SECONDS ON (B)"
                   : "SELECT isbn, rating FROM Reviews R WHERE R.isbn = %d "
                     "CURRENCY BOUND 2 SECONDS ON (R)",
        1 + i));
  }
  const PlanCache& backend_plans = f.shard(0)->plan_cache();
  const int64_t misses_before = backend_plans.misses();
  std::vector<Result<QueryResult>> serial = session->ExecuteBatch(sqls, 1);
  std::vector<Result<QueryResult>> pooled = session->ExecuteBatch(sqls, 4);
  ASSERT_EQ(pooled.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].status().ToString();
    ASSERT_TRUE(pooled[i].ok()) << pooled[i].status().ToString();
    EXPECT_EQ(pooled[i]->rows, serial[i]->rows) << sqls[i];
    EXPECT_EQ(pooled[i]->stats.remote_queries, 1) << sqls[i];
  }
  const std::string routed = "rcc.fleet.node.%d.routed";
  for (int node : {1, 2}) {
    EXPECT_EQ(f.anchor()->metrics().counter(StrPrintf(routed.c_str(), node))
                  ->value(),
              48)
        << "node " << node;
  }
  // Two templates, planned once each; the pooled batch only hit.
  EXPECT_EQ(backend_plans.misses() - misses_before, 2);
  EXPECT_EQ(backend_plans.size(), 2u);

  // A statistics refresh re-plans both templates while four workers race to
  // them; answers do not change and the cache keeps one entry per template.
  ASSERT_TRUE(f.shard(0)->RefreshStats("Books").ok());
  pooled = session->ExecuteBatch(sqls, 4);
  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(pooled[i].ok()) << pooled[i].status().ToString();
    EXPECT_EQ(pooled[i]->rows, serial[i]->rows) << sqls[i];
  }
  EXPECT_GE(backend_plans.misses() - misses_before, 4);
  EXPECT_EQ(backend_plans.size(), 2u);
  ExpectNoLeakedPins(&f);
}

TEST(FleetShardingTest, MirroredShardsServeIdenticalData) {
  FleetConfig fc = ThreeNodeConfig();
  fc.backend_shards = 2;
  fc.nodes[1].shard = 1;
  fc.nodes[2].shard = 1;
  FleetSystem f(fc);
  ASSERT_TRUE(SetupFleet(&f).ok());
  ASSERT_EQ(f.shard_count(), 2);
  ASSERT_NE(f.shard(1), nullptr);
  f.AdvanceTo(30000);

  // Routed reads work no matter which shard backs the chosen node. (No
  // oracle replay here: mirrored shards have independent commit timestamp
  // spaces, and the recorded commit stream would be the anchor's only.)
  auto out = f.router()->RouteSql(
      "SELECT isbn, price FROM Books B WHERE B.isbn < 25 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->result.rows.size(), 0u);

  // Mirrored DML lands on every shard; the same rows must then be visible
  // both through the backend tier (anchor shard) and, after propagation,
  // from mirror-backed cache nodes.
  std::vector<RowOp> ops;
  for (int64_t isbn : {9001, 9002}) {
    RowOp op;
    op.kind = RowOp::Kind::kInsert;
    op.table = "Books";
    op.row = {Value::Int(isbn), Value::Str("mirrored"), Value::Double(12.5),
              Value::Int(3)};
    ops.push_back(std::move(op));
  }
  auto ts = f.ExecuteMirrored(std::move(ops));
  ASSERT_TRUE(ts.ok()) << ts.status().ToString();
  f.AdvanceBy(20000);

  auto strict = f.router()->RouteSql(
      "SELECT isbn FROM Books B WHERE B.isbn >= 9001 "
      "CURRENCY BOUND 1 SECONDS ON (B)",
      {});
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(strict->result.rows.size(), 2u);
  auto loose = f.router()->RouteSql(
      "SELECT isbn FROM Books B WHERE B.isbn >= 9001 "
      "CURRENCY BOUND 1 HOUR ON (B)",
      {});
  ASSERT_TRUE(loose.ok()) << loose.status().ToString();
  EXPECT_EQ(loose->result.rows.size(), 2u);
  ExpectNoLeakedPins(&f);
}

}  // namespace
}  // namespace rcc
