// Simulation-harness unit and integration tests: the history recorder and
// its serialization, the conformance oracle's rules against hand-crafted
// histories (proving each rule can fire), determinism of the seeded runner,
// and a reduced oracle sweep across fault mixes.
//
// Every "the oracle is green" assertion is gated on the mutation defines
// (RCC_SIM_MUTATE's skewed guard comparison, RCC_MVCC_MUTATE's stale
// snapshot heartbeat): in a mutated build the same runs must instead
// produce violations — that inversion is the evidence the oracle checks
// the engine rather than echoing it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/history.h"
#include "sim/oracle.h"
#include "sim/runner.h"
#include "test_util.h"

namespace rcc {
namespace sim {
namespace {

// -- recorder ---------------------------------------------------------------------

TEST(HistoryRecorderTest, AssignsQueryIdsAndSequenceNumbers) {
  HistoryRecorder recorder(42);
  EXPECT_EQ(recorder.BeginQuery(100), 1u);
  EXPECT_EQ(recorder.BeginQuery(200), 2u);

  CommittedTxn txn;
  txn.id = 1;
  txn.commit_time = 150;
  RowOp op;
  op.table = "Books";
  txn.ops.push_back(op);
  txn.ops.push_back(op);  // same table twice: must dedup
  recorder.OnCommit(txn, 150);

  InstallObservation inst;
  inst.kind = InstallObservation::Kind::kInitial;
  inst.region = 1;
  inst.at = 0;
  inst.as_of = 0;
  inst.heartbeat = 0;
  recorder.OnInstall(inst);

  recorder.OnHealth(1, RegionHealth::kHealthy, RegionHealth::kSuspect, 300);
  recorder.OnSessionMode(7, true, 300);

  History h = recorder.Snapshot();
  EXPECT_EQ(h.seed, 42u);
  ASSERT_EQ(h.events.size(), 4u);
  for (size_t i = 0; i < h.events.size(); ++i) {
    EXPECT_EQ(h.events[i].seq, i + 1);
  }
  EXPECT_EQ(h.events[0].kind, HistoryEvent::Kind::kCommit);
  EXPECT_EQ(h.events[0].tables, std::vector<std::string>{"Books"});
  EXPECT_EQ(h.events[3].kind, HistoryEvent::Kind::kSession);
  EXPECT_TRUE(h.events[3].timeordered);
}

// -- serialization ----------------------------------------------------------------

History SampleHistory() {
  HistoryRecorder recorder(777);

  InstallObservation inst;
  inst.kind = InstallObservation::Kind::kInitial;
  inst.region = 1;
  inst.at = 0;
  inst.as_of = 0;
  inst.heartbeat = 0;
  recorder.OnInstall(inst);

  CommittedTxn txn;
  txn.id = 1;
  txn.commit_time = 4000;
  RowOp op;
  op.table = "Books";
  txn.ops.push_back(op);
  recorder.OnCommit(txn, 4000);

  inst.kind = InstallObservation::Kind::kDelivery;
  inst.at = 9000;
  inst.as_of = 1;
  inst.heartbeat = 8000;
  inst.ops = 3;
  recorder.OnInstall(inst);

  uint64_t q = recorder.BeginQuery(10000);
  GuardObservation guard;
  guard.query_id = q;
  guard.region = 1;
  guard.at = 10000;
  guard.heartbeat_known = true;
  guard.heartbeat = 8000;
  guard.bound_ms = 5000;
  guard.verdict_local = true;
  recorder.OnGuardProbe(guard);

  ServeObservation serve;
  serve.query_id = q;
  serve.at = 10000;
  serve.local = true;
  serve.region = 1;
  serve.heartbeat_known = true;
  serve.heartbeat = 8000;
  serve.operands = {0};
  recorder.OnServe(serve);

  AnswerObservation ans;
  ans.query_id = q;
  ans.session = 3;
  ans.at = 10000;
  ans.ok = true;
  ans.rows = 12;
  ans.operand_tables = {"Books"};
  ans.tuples = {{5000, {0}}};
  recorder.OnAnswer(ans);

  recorder.OnHealth(1, RegionHealth::kHealthy, RegionHealth::kSuspect, 11000);
  return recorder.Snapshot();
}

TEST(HistorySerializationTest, RoundTripsThroughParse) {
  History h = SampleHistory();
  std::string text = h.Serialize();
  EXPECT_NE(text.find("rcc.history.v1 seed=777"), std::string::npos);

  auto parsed = History::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, h.seed);
  ASSERT_EQ(parsed->events.size(), h.events.size());
  EXPECT_EQ(parsed->Serialize(), text);
  EXPECT_EQ(parsed->Digest(), h.Digest());
}

TEST(HistorySerializationTest, ParseRejectsGarbage) {
  EXPECT_FALSE(History::Parse("not a history").ok());
  EXPECT_FALSE(History::Parse("rcc.history.v2 seed=1\n").ok());
  EXPECT_FALSE(
      History::Parse("rcc.history.v1 seed=1\nwat seq=1 at=0\n").ok());
}

TEST(HistorySerializationTest, DigestIsContentSensitive) {
  History h = SampleHistory();
  History mutated = h;
  mutated.events[3].heartbeat += 1;  // the guard's observed heartbeat
  EXPECT_NE(h.Digest(), mutated.Digest());
}

// -- oracle rules against hand-crafted histories ----------------------------------
// Each history below is minimal and engine-free: it proves the rule *can*
// fire, which is what makes green sweeps over real runs meaningful.

HistoryEvent Install(uint64_t seq, SimTimeMs at, RegionId region,
                     TxnTimestamp as_of, SimTimeMs hb) {
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kInstall;
  ev.seq = seq;
  ev.at = at;
  ev.region = region;
  ev.install_kind = InstallObservation::Kind::kDelivery;
  ev.as_of = as_of;
  ev.heartbeat_known = true;
  ev.heartbeat = hb;
  return ev;
}

HistoryEvent Commit(uint64_t seq, SimTimeMs at, TxnTimestamp id,
                    std::vector<std::string> tables) {
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kCommit;
  ev.seq = seq;
  ev.at = at;
  ev.txn = id;
  ev.tables = std::move(tables);
  return ev;
}

HistoryEvent LocalServe(uint64_t seq, SimTimeMs at, uint64_t query,
                        RegionId region, SimTimeMs hb,
                        std::vector<InputOperandId> operands) {
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kServe;
  ev.seq = seq;
  ev.at = at;
  ev.query = query;
  ev.region = region;
  ev.local = true;
  ev.heartbeat_known = true;
  ev.heartbeat = hb;
  ev.operands = std::move(operands);
  return ev;
}

HistoryEvent RemoteServe(uint64_t seq, SimTimeMs at, uint64_t query,
                         std::vector<InputOperandId> operands) {
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kServe;
  ev.seq = seq;
  ev.at = at;
  ev.query = query;
  ev.region = kBackendRegion;
  ev.local = false;
  ev.operands = std::move(operands);
  return ev;
}

HistoryEvent Answer(uint64_t seq, SimTimeMs at, uint64_t query,
                    std::vector<std::string> tables,
                    std::vector<std::pair<SimTimeMs,
                                          std::vector<InputOperandId>>>
                        tuples,
                    SimTimeMs floor_ms = -1) {
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kAnswer;
  ev.seq = seq;
  ev.at = at;
  ev.query = query;
  ev.ok = true;
  ev.tables = std::move(tables);
  ev.tuples = std::move(tuples);
  ev.floor_ms = floor_ms;
  return ev;
}

const Violation* FindRule(const OracleReport& report,
                          const std::string& rule) {
  for (const Violation& v : report.violations) {
    if (v.rule == rule) return &v;
  }
  return nullptr;
}

TEST(OracleRuleTest, CatchesWrongGuardVerdict) {
  History h;
  h.events.push_back(Install(1, 1000, 1, 0, 1000));
  HistoryEvent guard;
  guard.kind = HistoryEvent::Kind::kGuard;
  guard.seq = 2;
  guard.at = 20000;
  guard.query = 1;
  guard.region = 1;
  guard.heartbeat_known = true;
  guard.heartbeat = 1000;  // 19s stale against a 2s bound...
  guard.bound_ms = 2000;
  guard.verdict_local = true;  // ...yet the guard claims "fresh enough"
  h.events.push_back(guard);

  OracleReport report = CheckHistory(h);
  ASSERT_NE(FindRule(report, "guard-verdict"), nullptr) << report.Summary();
  EXPECT_EQ(report.guards_checked, 1);
}

TEST(OracleRuleTest, CatchesHeartbeatDivergence) {
  History h;
  h.events.push_back(Install(1, 5000, 1, 0, 5000));
  HistoryEvent guard;
  guard.kind = HistoryEvent::Kind::kGuard;
  guard.seq = 2;
  guard.at = 9000;
  guard.query = 1;
  guard.region = 1;
  guard.heartbeat_known = true;
  guard.heartbeat = 8000;  // install stream only ever published 5000
  guard.bound_ms = 2000;
  guard.verdict_local = true;  // consistent with the claimed 8000
  h.events.push_back(guard);

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "heartbeat-divergence"), nullptr)
      << report.Summary();
  EXPECT_EQ(FindRule(report, "guard-verdict"), nullptr) << report.Summary();
}

TEST(OracleRuleTest, WithdrawsHeartbeatWhileQuarantined) {
  History h;
  h.events.push_back(Install(1, 5000, 1, 0, 5000));
  HistoryEvent health;
  health.kind = HistoryEvent::Kind::kHealth;
  health.seq = 2;
  health.at = 6000;
  health.region = 1;
  health.health_from = RegionHealth::kHealthy;
  health.health_to = RegionHealth::kQuarantined;
  h.events.push_back(health);
  // A guard that still sees a heartbeat after quarantine is lying.
  HistoryEvent guard;
  guard.kind = HistoryEvent::Kind::kGuard;
  guard.seq = 3;
  guard.at = 6500;
  guard.query = 1;
  guard.region = 1;
  guard.heartbeat_known = true;
  guard.heartbeat = 5000;
  guard.bound_ms = 10000;
  guard.verdict_local = true;
  h.events.push_back(guard);

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "heartbeat-divergence"), nullptr)
      << report.Summary();
}

TEST(OracleRuleTest, CatchesCurrencyBoundOverrun) {
  History h;
  h.events.push_back(Install(1, 500, 1, 0, 500));
  h.events.push_back(Commit(2, 10000, 1, {"Books"}));
  // Region never catches up, yet a local serve answers a 1s-bound query.
  h.events.push_back(LocalServe(3, 20000, 1, 1, 500, {0}));
  h.events.push_back(Answer(4, 20000, 1, {"Books"}, {{1000, {0}}}));

  OracleReport report = CheckHistory(h);
  const Violation* v = FindRule(report, "currency-bound");
  ASSERT_NE(v, nullptr) << report.Summary();
  EXPECT_EQ(v->query_id, 1u);
}

TEST(OracleRuleTest, AuthorizedDegradedServeIsNotAViolation) {
  History h;
  h.events.push_back(Install(1, 500, 1, 0, 500));
  h.events.push_back(Commit(2, 10000, 1, {"Books"}));
  HistoryEvent serve = LocalServe(3, 20000, 1, 1, 500, {0});
  serve.degraded = true;
  h.events.push_back(serve);
  HistoryEvent ans = Answer(4, 20000, 1, {"Books"}, {{1000, {0}}});
  ans.degrade_mode = 2;  // DegradeMode::kAlways
  h.events.push_back(ans);

  OracleReport report = CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(OracleRuleTest, CatchesInconsistentClass) {
  History h;
  h.events.push_back(Commit(1, 1000, 1, {"Books"}));
  h.events.push_back(Install(2, 2000, 1, 1, 1500));
  // Txn 2 touches Books again; the region stays at snapshot 1.
  h.events.push_back(Commit(3, 5000, 2, {"Books"}));
  // One class spanning a local Books@1 and a remote Sales@2 copy: txn 2 in
  // (1, 2] touched the older copy's table, so no single snapshot explains
  // the pair.
  h.events.push_back(LocalServe(4, 6000, 1, 1, 1500, {0}));
  h.events.push_back(RemoteServe(5, 6000, 1, {1}));
  h.events.push_back(
      Answer(6, 6000, 1, {"Books", "Sales"}, {{3600000, {0, 1}}}));

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "consistency-class"), nullptr)
      << report.Summary();
}

TEST(OracleRuleTest, MidQueryInstallMakesClassConsistent) {
  // Same shape, but the region installs snapshot 2 while the query is in
  // flight: the local serve may be attributed to the newer snapshot, so the
  // class is explainable and the oracle must stay quiet.
  History h;
  h.events.push_back(Commit(1, 1000, 1, {"Books"}));
  h.events.push_back(Install(2, 2000, 1, 1, 1500));
  h.events.push_back(Commit(3, 5000, 2, {"Books"}));
  h.events.push_back(LocalServe(4, 6000, 1, 1, 1500, {0}));
  h.events.push_back(Install(5, 6000, 1, 2, 5800));
  h.events.push_back(RemoteServe(6, 6000, 1, {1}));
  h.events.push_back(
      Answer(7, 6000, 1, {"Books", "Sales"}, {{3600000, {0, 1}}}));

  OracleReport report = CheckHistory(h);
  EXPECT_EQ(FindRule(report, "consistency-class"), nullptr)
      << report.Summary();
}

TEST(OracleRuleTest, CatchesOperandServedTwiceInOneQuery) {
  // A correlated subplan that re-decides per outer row: the Sales operand
  // is fetched remotely for the first row, then served locally for the
  // second. Each serve alone is fresh enough; serving one operand twice is
  // the violation.
  History h;
  h.events.push_back(Install(1, 1000, 1, 0, 1000));
  h.events.push_back(RemoteServe(2, 2000, 1, {1}));
  h.events.push_back(LocalServe(3, 2000, 1, 1, 1000, {0}));
  h.events.push_back(LocalServe(4, 2000, 1, 1, 1000, {1}));
  h.events.push_back(
      Answer(5, 2000, 1, {"Books", "Sales"}, {{3600000, {0}}, {3600000, {1}}}));

  OracleReport report = CheckHistory(h);
  const Violation* v = FindRule(report, "operand-served-once");
  ASSERT_NE(v, nullptr) << report.Summary();
  EXPECT_EQ(v->query_id, 1u);
  EXPECT_EQ(v->seq, 4u);
  EXPECT_EQ(report.violations.size(), 1u) << report.Summary();
}

TEST(OracleRuleTest, CatchesLocalServeBelowTimelineFloor) {
  History h;
  h.events.push_back(Install(1, 3000, 1, 0, 3000));
  h.events.push_back(LocalServe(2, 9000, 1, 1, 3000, {0}));
  h.events.push_back(
      Answer(3, 9000, 1, {"Books"}, {{3600000, {0}}}, /*floor_ms=*/5000));

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "timeline-floor"), nullptr) << report.Summary();
}

TEST(OracleRuleTest, CatchesTimelineFloorMistracking) {
  History h;
  HistoryEvent mode;
  mode.kind = HistoryEvent::Kind::kSession;
  mode.seq = 1;
  mode.at = 1000;
  mode.session = 7;
  mode.timeordered = true;
  h.events.push_back(mode);
  // First query of the session must run with floor -1; claiming 999 means
  // the engine invented a floor (or leaked one across sessions).
  HistoryEvent ans = Answer(2, 2000, 1, {}, {}, /*floor_ms=*/999);
  ans.session = 7;
  h.events.push_back(ans);

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "timeline-tracking"), nullptr)
      << report.Summary();
}

TEST(OracleRuleTest, CleanHistoryPasses) {
  History h;
  h.events.push_back(Install(1, 500, 1, 0, 500));
  h.events.push_back(Commit(2, 1000, 1, {"Books"}));
  h.events.push_back(Install(3, 4000, 1, 1, 3500));
  HistoryEvent guard;
  guard.kind = HistoryEvent::Kind::kGuard;
  guard.seq = 4;
  guard.at = 5000;
  guard.query = 1;
  guard.region = 1;
  guard.heartbeat_known = true;
  guard.heartbeat = 3500;
  guard.bound_ms = 5000;
  guard.verdict_local = true;
  h.events.push_back(guard);
  h.events.push_back(LocalServe(5, 5000, 1, 1, 3500, {0}));
  h.events.push_back(Answer(6, 5000, 1, {"Books"}, {{5000, {0}}}));

  OracleReport report = CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.answers_checked, 1);
  EXPECT_EQ(report.guards_checked, 1);
  EXPECT_EQ(report.serves_checked, 1);
}

// -- multi-node (fleet) rules -----------------------------------------------------
// Fleet histories carry node tags and route events; each cross-node rule
// gets a minimal synthetic history proving it can fire, plus a clean fleet
// history proving they stay quiet on conforming runs.

HistoryEvent NodeInstall(uint64_t seq, SimTimeMs at, int node, RegionId region,
                         TxnTimestamp as_of, SimTimeMs hb) {
  HistoryEvent ev = Install(seq, at, region, as_of, hb);
  ev.node = node;
  return ev;
}

RouteProbe Probe(int node, RegionId region, SimTimeMs bound, SimTimeMs hb,
                 bool eligible, SimTimeMs floor = -1) {
  RouteProbe p;
  p.node = node;
  p.region = region;
  p.bound_ms = bound;
  p.floor_ms = floor;
  p.heartbeat_known = hb >= 0;
  p.heartbeat = hb;
  p.eligible = eligible;
  return p;
}

HistoryEvent Route(uint64_t seq, SimTimeMs at, uint64_t query, int node,
                   bool backend_tier, std::vector<RouteProbe> probes,
                   int degrade_mode = 0) {
  HistoryEvent ev;
  ev.kind = HistoryEvent::Kind::kRoute;
  ev.seq = seq;
  ev.at = at;
  ev.query = query;
  ev.node = node;
  ev.backend_tier = backend_tier;
  ev.degrade_mode = degrade_mode;
  ev.probes = std::move(probes);
  return ev;
}

TEST(OracleFleetRuleTest, CatchesForeignNodeRegionEvent) {
  History h;
  h.events.push_back(NodeInstall(1, 500, 1, 101, 0, 500));
  // Node 2 installing into node 1's region: two nodes' streams would blend
  // under every per-region rule, so the binding itself is the violation.
  h.events.push_back(NodeInstall(2, 800, 2, 101, 0, 800));

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "node-region-binding"), nullptr)
      << report.Summary();
}

TEST(OracleFleetRuleTest, CatchesRouteProbeTrustingWithdrawnHeartbeat) {
  // The RCC_FLEET_MUTATE shape: region 201 is quarantined, so its certified
  // heartbeat is withdrawn — yet the route probe still claims one.
  History h;
  h.events.push_back(NodeInstall(1, 5000, 2, 201, 0, 5000));
  HistoryEvent health;
  health.kind = HistoryEvent::Kind::kHealth;
  health.seq = 2;
  health.at = 6000;
  health.region = 201;
  health.node = 2;
  health.health_from = RegionHealth::kHealthy;
  health.health_to = RegionHealth::kQuarantined;
  h.events.push_back(health);
  h.events.push_back(
      Route(3, 7000, 1, 1, false, {Probe(2, 201, 10000, 5000, true)}));

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "route-heartbeat"), nullptr) << report.Summary();
  EXPECT_EQ(report.routes_checked, 1);
}

TEST(OracleFleetRuleTest, CatchesRouteProbeHeartbeatValueDivergence) {
  History h;
  h.events.push_back(NodeInstall(1, 5000, 1, 101, 0, 5000));
  // The probe invents 9000; the install stream only ever published 5000.
  // The claimed value makes the eligibility self-consistent, so only the
  // heartbeat cross-check can notice.
  h.events.push_back(
      Route(2, 10000, 1, 1, false, {Probe(1, 101, 2000, 9000, true)}));

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "route-heartbeat"), nullptr) << report.Summary();
  EXPECT_EQ(FindRule(report, "route-verdict"), nullptr) << report.Summary();
}

TEST(OracleFleetRuleTest, CatchesWrongRouteVerdict) {
  History h;
  h.events.push_back(NodeInstall(1, 1000, 1, 101, 0, 1000));
  // 19s stale against a 2s bound under DEGRADE NONE, yet marked eligible.
  h.events.push_back(
      Route(2, 20000, 1, 1, false, {Probe(1, 101, 2000, 1000, true)}));

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "route-verdict"), nullptr) << report.Summary();
  EXPECT_EQ(FindRule(report, "route-heartbeat"), nullptr) << report.Summary();
}

TEST(OracleFleetRuleTest, AlwaysDegradeMakesAnyStalenessEligible) {
  History h;
  h.events.push_back(NodeInstall(1, 1000, 1, 101, 0, 1000));
  // Same staleness, but the attempt runs under DEGRADE ALWAYS (mode 2): the
  // node may serve stale-flagged, so the eligible mark is correct.
  h.events.push_back(Route(2, 20000, 1, 1, false,
                           {Probe(1, 101, 2000, 1000, true)},
                           /*degrade_mode=*/2));

  OracleReport report = CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(OracleFleetRuleTest, CatchesDispatchToIneligibleNode) {
  History h;
  h.events.push_back(NodeInstall(1, 1000, 1, 101, 0, 1000));
  // The probe's verdict is honest (ineligible) — but the router dispatched
  // to the node anyway.
  h.events.push_back(
      Route(2, 20000, 1, 1, false, {Probe(1, 101, 2000, 1000, false)}));

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "route-choice"), nullptr) << report.Summary();
  EXPECT_EQ(FindRule(report, "route-verdict"), nullptr) << report.Summary();
}

TEST(OracleFleetRuleTest, CatchesServeFromUnroutedNode) {
  History h;
  h.events.push_back(NodeInstall(1, 4000, 2, 201, 0, 3500));
  h.events.push_back(
      Route(2, 5000, 1, 2, false, {Probe(2, 201, 5000, 3500, true)}));
  // Routed to node 2, but node 1 serves and answers.
  HistoryEvent serve = LocalServe(3, 5000, 1, 101, 3500, {0});
  serve.node = 1;
  h.events.push_back(serve);
  HistoryEvent ans = Answer(4, 5000, 1, {"Books"}, {{5000, {0}}});
  ans.node = 1;
  h.events.push_back(ans);

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "route-serve-node"), nullptr) << report.Summary();
}

TEST(OracleFleetRuleTest, CatchesLocalServeOnBackendTierDispatch) {
  History h;
  h.events.push_back(NodeInstall(1, 4000, 1, 101, 0, 3500));
  // Backend tier promises an all-remote plan; a local serve contradicts it.
  h.events.push_back(Route(2, 5000, 1, 1, true, {}));
  HistoryEvent serve = LocalServe(3, 5000, 1, 101, 3500, {0});
  serve.node = 1;
  h.events.push_back(serve);

  OracleReport report = CheckHistory(h);
  EXPECT_NE(FindRule(report, "route-serve-node"), nullptr) << report.Summary();
}

TEST(OracleFleetRuleTest, CleanFleetHistoryPasses) {
  History h;
  h.events.push_back(NodeInstall(1, 500, 1, 101, 0, 500));
  h.events.push_back(NodeInstall(2, 600, 2, 201, 0, 550));
  h.events.push_back(Commit(3, 1000, 1, {"Books"}));
  h.events.push_back(NodeInstall(4, 4000, 1, 101, 1, 3500));
  h.events.push_back(NodeInstall(5, 4200, 2, 201, 1, 3800));
  h.events.push_back(Route(6, 5000, 1, 2, false,
                           {Probe(1, 101, 5000, 3500, true),
                            Probe(2, 201, 5000, 3800, true)}));
  HistoryEvent guard;
  guard.kind = HistoryEvent::Kind::kGuard;
  guard.seq = 7;
  guard.at = 5000;
  guard.query = 1;
  guard.region = 201;
  guard.node = 2;
  guard.heartbeat_known = true;
  guard.heartbeat = 3800;
  guard.bound_ms = 5000;
  guard.verdict_local = true;
  h.events.push_back(guard);
  HistoryEvent serve = LocalServe(8, 5000, 1, 201, 3800, {0});
  serve.node = 2;
  h.events.push_back(serve);
  HistoryEvent ans = Answer(9, 5000, 1, {"Books"}, {{5000, {0}}});
  ans.node = 2;
  h.events.push_back(ans);

  OracleReport report = CheckHistory(h);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.routes_checked, 1);
  EXPECT_EQ(report.answers_checked, 1);
}

TEST(HistorySerializationTest, FleetHistoryRoundTripsThroughParse) {
  History h;
  h.seed = 9;
  h.events.push_back(NodeInstall(1, 500, 1, 101, 0, 500));
  // A cache-tier route with a real probe plus a coverage-failure probe
  // (kBackendRegion, withdrawn heartbeat), and a probe-less backend route —
  // every branch of the probes token format.
  RouteProbe coverage_failure;
  coverage_failure.node = 2;
  h.events.push_back(Route(2, 1000, 1, 1, false,
                           {Probe(1, 101, 5000, 400, true), coverage_failure}));
  h.events.push_back(Route(3, 2000, 2, 1, true, {}));

  std::string text = h.Serialize();
  EXPECT_NE(text.find("route "), std::string::npos);
  EXPECT_NE(text.find("tier=backend"), std::string::npos);
  EXPECT_NE(text.find("probes=-"), std::string::npos);
  EXPECT_NE(text.find("node=1"), std::string::npos);

  auto parsed = History::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->events.size(), h.events.size());
  ASSERT_EQ(parsed->events[1].probes.size(), 2u);
  EXPECT_EQ(parsed->events[1].probes[0].heartbeat, 400);
  EXPECT_FALSE(parsed->events[1].probes[1].heartbeat_known);
  EXPECT_EQ(parsed->Serialize(), text);
  EXPECT_EQ(parsed->Digest(), h.Digest());
}

TEST(HistorySerializationTest, ParseRejectsMalformedRouteLines) {
  const std::string header = "rcc.history.v1 seed=1\n";
  // Unknown tier.
  EXPECT_FALSE(History::Parse(header +
                              "route seq=1 at=0 q=1 node=1 tier=wat mode=0 "
                              "probes=-\n")
                   .ok());
  // Probe with too few fields.
  EXPECT_FALSE(History::Parse(header +
                              "route seq=1 at=0 q=1 node=1 tier=cache mode=0 "
                              "probes=1:101:5000\n")
                   .ok());
  // Route lines are strict about the node token — they were born with it,
  // so a missing one is corruption, not a legacy file.
  EXPECT_FALSE(History::Parse(header +
                              "route seq=1 at=0 q=1 tier=cache mode=0 "
                              "probes=-\n")
                   .ok());
}

TEST(HistorySerializationTest, PreFleetLinesParseAsNodeZero) {
  // Histories recorded before the fleet existed have no node tokens; they
  // must parse with node 0 (the single-cache default), not fail.
  const std::string text =
      "rcc.history.v1 seed=1\n"
      "install seq=1 at=0 region=1 kind=initial as_of=0 hb=0 ops=0\n"
      "guard seq=2 at=5000 q=1 region=1 hb=4000 bound=5000 floor=-1 "
      "verdict=local epoch=0\n";
  auto parsed = History::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[0].node, 0);
  EXPECT_EQ(parsed->events[1].node, 0);
}

// -- determinism ------------------------------------------------------------------

TEST(SimRunnerTest, SameSeedSameDigest) {
  SimRunConfig cfg;
  cfg.seed = 12345;
  cfg.faults = FaultMix::kCombined;
  cfg.steps = 50;
  auto a = RunSimulation(cfg);
  auto b = RunSimulation(cfg);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->history.events.size(), b->history.events.size());
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_EQ(a->history.Serialize(), b->history.Serialize());
}

TEST(SimRunnerTest, DifferentSeedDifferentDigest) {
  SimRunConfig cfg;
  cfg.seed = 1;
  cfg.steps = 40;
  auto a = RunSimulation(cfg);
  cfg.seed = 2;
  auto b = RunSimulation(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->digest, b->digest);
}

TEST(SimRunnerTest, HistorySurvivesSerializationAndReplay) {
  SimRunConfig cfg;
  cfg.seed = 5150;
  cfg.faults = FaultMix::kReplication;
  cfg.steps = 40;
  auto run = RunSimulation(cfg);
  ASSERT_TRUE(run.ok());
  // Persist, reload, re-check: the file is the evidence, not the process.
  auto parsed = History::Parse(run->history.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Digest(), run->digest);
  OracleReport replayed = CheckHistory(*parsed);
  EXPECT_EQ(replayed.violations.size(), run->report.violations.size());
  EXPECT_EQ(replayed.answers_checked, run->report.answers_checked);
}

// -- reduced oracle sweep (the full 25-seed matrix lives in sim_seeds_test) ------

TEST(SimRunnerTest, ReducedSweepConformsAcrossFaultMixes) {
  const FaultMix kMixes[] = {FaultMix::kNone, FaultMix::kOutage,
                             FaultMix::kReplication, FaultMix::kCombined,
                             FaultMix::kCombined};
  size_t mutation_catches = 0;
  for (uint64_t seed = 21; seed < 26; ++seed) {
    SimRunConfig cfg;
    cfg.seed = seed;
    cfg.faults = kMixes[seed - 21];
    cfg.workload = seed == 25 ? SimWorkload::kTpcd : SimWorkload::kBookstore;
    cfg.steps = 60;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run->report.answers_checked, 0);
#if defined(RCC_SIM_MUTATE) || defined(RCC_MVCC_MUTATE)
    mutation_catches += run->report.violations.size();
#else
    EXPECT_TRUE(run->report.ok())
        << "seed " << seed << " mix " << FaultMixName(cfg.faults) << "\n"
        << run->report.Summary();
#endif
  }
#if defined(RCC_SIM_MUTATE)
  // The skewed guard must be observable from history alone.
  EXPECT_GE(mutation_catches, 1u);
#elif defined(RCC_MVCC_MUTATE)
  // Reduced sweep only accumulates; the full 25-seed matrix in
  // sim_seeds_test enforces that the stale-heartbeat publish is caught.
#else
  EXPECT_EQ(mutation_catches, 0u);
#endif
}

// -- multi-worker batches (thread-safety of the sink; no digest assertions) ------

TEST(SimRunnerTest, ConcurrentBatchRecordingConforms) {
  HistoryRecorder recorder(99);
  RccSystem sys;
  sys.SetHistorySink(&recorder);
  ASSERT_TRUE(LoadBookstore(&sys, {.books = 100, .reviews_per_book = 2,
                                   .sales_per_book = 2, .seed = 99})
                  .ok());
  ASSERT_TRUE(SetupBookstoreCache(&sys, 8000, 3000).ok());
  sys.AdvanceTo(30000);
  auto session = sys.CreateSession();

  std::vector<std::string> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(
        i % 2 == 0 ? "SELECT isbn, price FROM Books B WHERE B.isbn < 30 "
                     "CURRENCY BOUND 10 SECONDS ON (B)"
                   : "SELECT isbn, stock FROM Books B WHERE B.isbn < 20 "
                     "CURRENCY BOUND 4 SECONDS ON (B)");
  }
  auto results = session->ExecuteBatch(batch, /*workers=*/4);
  for (auto& r : results) {
    EXPECT_TRUE(r.ok());
  }
  sys.AdvanceBy(5000);

  OracleReport report = CheckHistory(recorder.Snapshot());
  EXPECT_EQ(report.answers_checked, 16);
#if !defined(RCC_SIM_MUTATE) && !defined(RCC_MVCC_MUTATE)
  EXPECT_TRUE(report.ok()) << report.Summary();
#endif
  sys.SetHistorySink(nullptr);
}

}  // namespace
}  // namespace sim
}  // namespace rcc
