// Fleet routing study: throughput and degraded-serve rate of the C&C-aware
// FleetRouter as the fleet grows (1 / 3 / 8 cache nodes) and per-node
// replication faults intensify, plus a deterministic quarantine-reroute
// demonstration. Reads are SQL text through a fleet Session, the path
// sessions and the server take: every node's plan comes from its own plan
// cache. Every recorded history replays through the multi-node
// conformance oracle; a single violation fails the bench.
//
// Acceptance (ISSUE): a quarantined node's traffic is rerouted to its peers
// with zero constraint-violating serves — the tie-winning node receives all
// cache-tier dispatches while healthy, none while its certification is
// withdrawn, and the oracle finds nothing to flag across every run.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fleet/fleet.h"
#include "fleet/router.h"
#include "sim/history.h"
#include "sim/oracle.h"

using namespace rcc;         // NOLINT
using namespace rcc::bench;  // NOLINT

namespace {

constexpr uint64_t kSeed = 20040613;  // SIGMOD 2004 vintage
constexpr int kQueries = 600;
constexpr SimTimeMs kStart = 35000;
constexpr SimTimeMs kStep = 497;  // co-prime-ish with every refresh cadence

/// Query pool: two Books bounds bracketing the fleet's staleness range and a
/// Reviews query the partial nodes fail coverage on.
const char* kPool[] = {
    "SELECT title, price FROM Books B WHERE B.isbn = 7 "
    "CURRENCY BOUND 5 SECONDS ON (B)",
    "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
    "CURRENCY BOUND 20 SECONDS ON (B)",
    "SELECT isbn, rating FROM Reviews R WHERE R.isbn < 20 "
    "CURRENCY BOUND 20 SECONDS ON (R)",
};

/// Heterogeneous fleet, same cycled specs as the simulation runner: a
/// complete default-cadence node, a fast partial node without Reviews, and a
/// slow complete node.
fleet::FleetConfig MakeFleetConfig(int nodes) {
  fleet::FleetConfig fc;
  fc.seed = kSeed;
  for (int i = 0; i < nodes; ++i) {
    fleet::FleetNodeConfig nc;
    if (i % 3 == 1) {
      nc.update_interval = 4000;
      nc.update_delay = 1500;
      nc.reviews = false;
    } else if (i % 3 == 2) {
      nc.update_interval = 12000;
      nc.update_delay = 5000;
    } else {
      nc.update_interval = 8000;
      nc.update_delay = 3000;
    }
    fc.nodes.push_back(nc);
  }
  return fc;
}

std::unique_ptr<fleet::FleetSystem> MakeFleet(int nodes,
                                              sim::HistoryRecorder* recorder) {
  auto f = std::make_unique<fleet::FleetSystem>(MakeFleetConfig(nodes));
  f->SetHistorySink(recorder);
  BookstoreConfig w;
  w.books = 200;
  w.reviews_per_book = 2;
  w.sales_per_book = 2;
  w.seed = 7;
  Status st = f->LoadBookstore(w);
  if (st.ok()) st = f->SetupBookstore();
  if (!st.ok()) {
    std::fprintf(stderr, "fleet setup failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  f->AdvanceTo(kStart - 2000);  // steady state
  return f;
}

/// Per-node replication fault mix scaled by `intensity` in [0, 1]; every
/// node faults independently (per-node seeds, fleet-unique region ids).
ReplicationFaultConfig MakeFaults(double intensity, int node) {
  ReplicationFaultConfig cfg;
  cfg.seed = kSeed ^ 0x7E911u ^ (static_cast<uint64_t>(node) << 9);
  cfg.drop_probability = 0.20 * intensity;
  cfg.delay_probability = 0.20 * intensity;
  cfg.delay_ms = 9000;
  cfg.duplicate_probability = 0.10 * intensity;
  cfg.stall_probability = 0.08 * intensity;
  cfg.stall_wakeups = 2;
  cfg.poison_probability = 0.10 * intensity;
  return cfg;
}

struct RunResult {
  int total = 0;
  int ok = 0;
  int failed = 0;
  double wall_ms = 0;
  int64_t cache_routes = 0;
  int64_t backend_routes = 0;
  int64_t fallthroughs = 0;
  int64_t serves = 0;
  int64_t degraded_serves = 0;
  int64_t quarantines = 0;
  size_t violations = 0;

  double Qps() const { return wall_ms > 0 ? 1000.0 * total / wall_ms : 0.0; }
  double AnswerRate() const { return 100.0 * ok / total; }
  double BackendShare() const {
    int64_t routes = cache_routes + backend_routes;
    return routes > 0 ? 100.0 * backend_routes / routes : 0.0;
  }
  double DegradedRate() const {
    return serves > 0 ? 100.0 * degraded_serves / serves : 0.0;
  }
};

/// One cell of the sweep: `nodes` cache nodes at fault `intensity`. Routed
/// queries arrive every kStep ms with an UPDATE every third arrival (so
/// delivery batches carry ops and poisons can fire); the recorded history is
/// replayed through the conformance oracle at the end.
RunResult Run(int nodes, double intensity, bool dump_metrics = false) {
  sim::HistoryRecorder recorder(kSeed);
  std::unique_ptr<fleet::FleetSystem> f = MakeFleet(nodes, &recorder);
  if (intensity > 0) {
    for (int n = 1; n <= nodes; ++n) {
      f->SetNodeReplicationFaults(n, MakeFaults(intensity, n));
    }
  }
  std::unique_ptr<Session> dml = f->anchor()->CreateSession();
  std::unique_ptr<Session> reader = f->CreateSession();

  RunResult out;
  out.total = kQueries;
  out.wall_ms = TimeMs([&] {
    for (int i = 0; i < kQueries; ++i) {
      SimTimeMs arrival = kStart + static_cast<SimTimeMs>(i) * kStep;
      if (arrival > f->Now()) f->AdvanceTo(arrival);
      if (i % 3 == 0) {
        auto upd = dml->Execute(StrPrintf(
            "UPDATE Books SET price = %d WHERE isbn = %d", 10 + i,
            1 + i % 200));
        if (!upd.ok()) {
          std::fprintf(stderr, "update failed: %s\n",
                       upd.status().ToString().c_str());
          std::exit(1);
        }
      }
      auto r = reader->Execute(kPool[i % 3]);
      if (r.ok()) {
        ++out.ok;
      } else {
        ++out.failed;
      }
    }
  });

  obs::MetricsRegistry& m = f->anchor()->metrics();
  out.fallthroughs = m.counter("rcc.fleet.fallthroughs")->value();
  for (int n = 1; n <= nodes; ++n) {
    for (const auto& agent : f->node(n)->agents()) {
      out.quarantines += agent->quarantines();
    }
  }

  sim::History h = recorder.Snapshot();
  for (const sim::HistoryEvent& ev : h.events) {
    if (ev.kind == sim::HistoryEvent::Kind::kRoute) {
      ev.backend_tier ? ++out.backend_routes : ++out.cache_routes;
    } else if (ev.kind == sim::HistoryEvent::Kind::kServe) {
      ++out.serves;
      if (ev.degraded) ++out.degraded_serves;
    }
  }
  out.violations = sim::CheckHistory(h).violations.size();
  f->SetHistorySink(nullptr);
  if (dump_metrics) {
    WriteMetricsJson(m, "bench_fleet_routing", kSeed);
  }
  return out;
}

void PrintRow(int nodes, double intensity, const RunResult& r) {
  std::printf("%-6d %-10.2f %9.0f %9.1f%% %9.1f%% %9.1f%% %7lld %8lld %6zu\n",
              nodes, intensity, r.Qps(), r.AnswerRate(), r.BackendShare(),
              r.DegradedRate(), static_cast<long long>(r.fallthroughs),
              static_cast<long long>(r.quarantines), r.violations);
}

/// The deterministic reroute demonstration: with every node eligible and
/// equal plan costs, the lowest-id tie-break sends all cache-tier traffic to
/// node 1; poisoning node 1's pipeline withdraws its certification, and the
/// same query stream must shift entirely to node 2 — with the oracle finding
/// no constraint-violating serve anywhere.
struct DemoResult {
  int64_t healthy_node1 = 0;
  int64_t healthy_other = 0;
  int64_t quarantined_node1 = 0;
  int64_t quarantined_node2 = 0;
  size_t violations = 0;
  bool quarantined = false;
};

DemoResult RunDemo() {
  constexpr const char* kDemoQuery =
      "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
      "CURRENCY BOUND 1 HOUR ON (B)";
  sim::HistoryRecorder recorder(kSeed);
  std::unique_ptr<fleet::FleetSystem> f = MakeFleet(3, &recorder);
  std::unique_ptr<Session> reader = f->CreateSession();
  DemoResult out;

  // Phase A: healthy fleet, 100 loose-bound queries — all to node 1.
  for (int i = 0; i < 100; ++i) {
    f->AdvanceBy(200);
    auto r = reader->Execute(kDemoQuery);
    if (!r.ok()) std::exit(1);
  }
  {
    sim::History h = recorder.Snapshot();
    for (const sim::HistoryEvent& ev : h.events) {
      if (ev.kind != sim::HistoryEvent::Kind::kRoute || ev.backend_tier) {
        continue;
      }
      ev.node == 1 ? ++out.healthy_node1 : ++out.healthy_other;
    }
  }

  // Poison node 1's deliveries; the next batch carrying ops quarantines its
  // Books region and withdraws the certified heartbeat.
  ReplicationFaultConfig rf;
  rf.seed = kSeed;
  rf.poison_probability = 1.0;
  f->SetNodeReplicationFaults(1, rf);
  std::unique_ptr<Session> dml = f->anchor()->CreateSession();
  auto upd =
      dml->Execute("UPDATE Books SET price = price + 1 WHERE isbn <= 50");
  if (!upd.ok()) std::exit(1);
  for (int i = 0; i < 60 && !out.quarantined; ++i) {
    f->AdvanceBy(500);
    out.quarantined =
        !f->node(1)->LocalHeartbeat(fleet::BooksRegion(1)).has_value();
  }
  size_t phase_b_from = recorder.event_count();

  // Phase B: same stream with virtual time frozen (no resync can land) —
  // every dispatch must shift to node 2.
  for (int i = 0; i < 100; ++i) {
    auto r = reader->Execute(kDemoQuery);
    if (!r.ok()) std::exit(1);
  }
  sim::History h = recorder.Snapshot();
  for (size_t i = phase_b_from; i < h.events.size(); ++i) {
    const sim::HistoryEvent& ev = h.events[i];
    if (ev.kind != sim::HistoryEvent::Kind::kRoute || ev.backend_tier) {
      continue;
    }
    if (ev.node == 1) ++out.quarantined_node1;
    if (ev.node == 2) ++out.quarantined_node2;
  }
  out.violations = sim::CheckHistory(h).violations.size();
  f->SetHistorySink(nullptr);
  return out;
}

}  // namespace

int main() {
  PrintHeader(
      "Fleet routing: throughput + degraded-serve rate vs fleet size and "
      "per-node replication-fault intensity");
  std::printf(
      "Bookstore, %d routed queries per cell, arrivals every %lldms, an "
      "UPDATE every 3rd arrival; every history oracle-checked\n\n",
      kQueries, static_cast<long long>(kStep));
  std::printf("%-6s %-10s %9s %10s %10s %10s %7s %8s %6s\n", "nodes",
              "intensity", "qps", "answered", "backend", "degraded",
              "fallthr", "quarant", "viol");

  size_t total_violations = 0;
  bool all_answered = true;
  const int kSizes[] = {1, 3, 8};
  const double kIntensities[] = {0.0, 0.5, 1.0};
  for (int nodes : kSizes) {
    for (double intensity : kIntensities) {
      bool dump = nodes == 8 && intensity == 1.0;
      RunResult r = Run(nodes, intensity, dump);
      PrintRow(nodes, intensity, r);
      total_violations += r.violations;
      all_answered = all_answered && r.failed == 0;
    }
  }

  PrintHeader("Quarantine reroute demonstration (3 nodes, loose bound)");
  DemoResult demo = RunDemo();
  std::printf("healthy fleet:      node 1 served %lld/%lld cache-tier "
              "dispatches (lowest-id tie-break)\n",
              static_cast<long long>(demo.healthy_node1),
              static_cast<long long>(demo.healthy_node1 + demo.healthy_other));
  std::printf("node 1 quarantined: node 1 got %lld dispatches, node 2 got "
              "%lld  (traffic rerouted)\n",
              static_cast<long long>(demo.quarantined_node1),
              static_cast<long long>(demo.quarantined_node2));
  std::printf("oracle violations across the demo history: %zu\n",
              demo.violations);

  PrintHeader("Acceptance check");
  bool healthy_tie = demo.healthy_node1 > 0 && demo.healthy_other == 0;
  bool rerouted = demo.quarantined && demo.quarantined_node1 == 0 &&
                  demo.quarantined_node2 > 0;
  bool clean = total_violations == 0 && demo.violations == 0;
  std::printf("healthy fleet routes through tie-winner:  %s\n",
              healthy_tie ? "yes" : "NO");
  std::printf("quarantined node's traffic rerouted:      %s  (must shift "
              "entirely to the peer)\n",
              rerouted ? "yes" : "NO");
  std::printf("answer rate under every cell:             %s\n",
              all_answered ? "100%" : "DEGRADED");
  std::printf("constraint-violating serves (oracle):     %zu  (must be 0)\n",
              total_violations + demo.violations);
  bool pass = healthy_tie && rerouted && clean && all_answered;
  std::printf("\n%s\n", pass ? "ACCEPTANCE: PASS" : "ACCEPTANCE: FAIL");
  return pass ? 0 : 1;
}
