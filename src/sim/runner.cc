#include "sim/runner.h"

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/session.h"
#include "fleet/fleet.h"
#include "workload/bookstore.h"
#include "workload/tpcd.h"

namespace rcc {
namespace sim {

namespace {

/// Bookstore statement pool: mixed tight/loose bounds, same-region and
/// cross-region consistency classes, multi-tuple constraints, and an
/// unguarded query. Regions refresh every 8s with 3s delay, so heartbeat lag
/// swings between 3s and 11s — tight bounds flip between local and remote
/// across a run, which is exactly the behaviour the oracle must certify.
const char* kBookstoreQueries[] = {
    "SELECT isbn, price FROM Books B WHERE B.isbn < 40 "
    "CURRENCY BOUND 5 SECONDS ON (B)",
    "SELECT isbn, price FROM Books B WHERE B.isbn < 60 "
    "CURRENCY BOUND 20 SECONDS ON (B)",
    "SELECT isbn, stock FROM Books B WHERE B.isbn < 25 "
    "CURRENCY BOUND 2 SECONDS ON (B)",
    "SELECT isbn, price FROM Books B WHERE B.isbn < 80 "
    "CURRENCY BOUND 1 HOUR ON (B)",
    "SELECT B.isbn, S.amount FROM Books B, Sales S "
    "WHERE B.isbn = S.isbn AND B.isbn < 15 "
    "CURRENCY BOUND 15 SECONDS ON (B, S)",
    "SELECT B.isbn, R.rating FROM Books B, Reviews R "
    "WHERE B.isbn = R.isbn AND B.isbn < 15 "
    "CURRENCY BOUND 12 SECONDS ON (B, R)",
    "SELECT B.isbn, S.amount FROM Books B, Sales S "
    "WHERE B.isbn = S.isbn AND B.isbn < 12 "
    "CURRENCY BOUND 30 SECONDS ON (B), 6 SECONDS ON (S)",
    "SELECT isbn FROM Books B WHERE B.isbn < 30",
};

/// TPCD pool over the paper's cache (CR1 15s/5s, CR2 10s/5s). The (C, O)
/// class is cross-region, so its plan must go all-remote to be consistent.
const char* kTpcdQueries[] = {
    "SELECT c_custkey FROM Customer C WHERE c_acctbal > 1000 "
    "CURRENCY BOUND 10 SECONDS ON (C)",
    "SELECT c_custkey FROM Customer C WHERE c_acctbal > 9000 "
    "CURRENCY BOUND 60 SECONDS ON (C)",
    "SELECT o_orderkey, o_totalprice FROM Orders O WHERE O.o_custkey < 40 "
    "CURRENCY BOUND 8 SECONDS ON (O)",
    "SELECT C.c_custkey, O.o_totalprice FROM Customer C, Orders O "
    "WHERE C.c_custkey = O.o_custkey AND C.c_custkey < 20 "
    "CURRENCY BOUND 25 SECONDS ON (C, O)",
    "SELECT C.c_custkey, O.o_totalprice FROM Customer C, Orders O "
    "WHERE C.c_custkey = O.o_custkey AND C.c_custkey < 15 "
    "CURRENCY BOUND 40 SECONDS ON (C), 12 SECONDS ON (O)",
    "SELECT c_custkey FROM Customer C WHERE C.c_custkey < 10",
};

/// The fault schedules of one cache. A fleet arms every node with
/// node-distinct seeds so outages and delivery faults hit the nodes
/// asynchronously; node 0 (a single-node run) XORs nothing into them.
void ArmFaults(CacheDbms* cache, const SimRunConfig& config, int node,
               double poison_probability) {
  const uint64_t n = static_cast<uint64_t>(node);
  if (config.faults == FaultMix::kOutage ||
      config.faults == FaultMix::kCombined) {
    // Query channel down 30% of the time; the resilient policy rides the
    // short outages out and the degrade modes absorb the rest.
    FaultInjectorConfig fi;
    fi.seed = config.seed ^ 0xFA17ABCDu ^ (n << 17);
    fi.outage_period_ms = 20000;
    fi.outage_down_ms = 6000;
    fi.base_latency_ms = 2;
    fi.transient_error_probability = 0.05;
    cache->SetFaultInjector(fi);
    RemotePolicy policy;
    policy.timeout_ms = 400;
    policy.max_retries = 2;
    policy.backoff_base_ms = 200;
    policy.backoff_jitter_ms = 60;
    policy.breaker_threshold = 4;
    policy.breaker_cooldown_ms = 4000;
    policy.seed = config.seed ^ 0x5EED51u ^ n;
    cache->SetRemotePolicy(policy);
  }
  if (config.faults == FaultMix::kReplication ||
      config.faults == FaultMix::kCombined) {
    ReplicationFaultConfig rf;
    rf.seed = config.seed ^ 0x7E911u ^ (n << 9);
    rf.drop_probability = 0.15;
    rf.delay_probability = 0.2;
    rf.delay_ms = 9000;
    rf.duplicate_probability = 0.1;
    rf.stall_probability = 0.08;
    rf.stall_wakeups = 2;
    rf.poison_probability = poison_probability;
    cache->SetReplicationFaults(rf);
  }
}

BookstoreConfig BookstoreData(const SimRunConfig& config) {
  BookstoreConfig w;
  w.books = 120;
  w.reviews_per_book = 2;
  w.sales_per_book = 3;
  w.seed = config.seed * 977 + 11;
  return w;
}

/// Heterogeneous node specs, cycled for fleets larger than three: a
/// complete node at the default cadence, a fast partial node (no Reviews —
/// review-constrained queries must route around it), and a slow complete
/// node whose delivered currency misses tight bounds most of the time.
fleet::FleetConfig BuildFleetConfig(const SimRunConfig& config) {
  fleet::FleetConfig fc;
  fc.seed = config.seed;
  for (int i = 0; i < config.fleet_nodes; ++i) {
    fleet::FleetNodeConfig n;
    switch (i % 3) {
      case 0:
        n.update_interval = 8000;
        n.update_delay = 3000;
        break;
      case 1:
        n.update_interval = 4000;
        n.update_delay = 1500;
        n.reviews = false;
        break;
      default:
        n.update_interval = 12000;
        n.update_delay = 5000;
        break;
    }
    fc.nodes.push_back(n);
  }
  return fc;
}

/// How a serial batch of pooled queries is issued.
using IssueBatch = void (*)(Session& session,
                            const std::vector<std::string>& batch);

/// The seeded statement schedule both runs drive, from the sessions' first
/// statement to the drained history and its oracle report. The runs differ
/// only in what they pass: `clock` (the system whose virtual time the steps
/// advance), the workload (its query pool and whether steps commit inline
/// DML), `analyzed` (the caches a statistics tick refreshes) and
/// `issue_batch`.
SimRunOutcome RunSchedule(const SimRunConfig& config, SimWorkload workload,
                          RccSystem& clock,
                          const std::vector<CacheDbms*>& analyzed,
                          IssueBatch issue_batch, Session& main_session,
                          Session& time_session, HistoryRecorder& recorder) {
  const bool bookstore = workload == SimWorkload::kBookstore;
  const char* const* pool = bookstore ? kBookstoreQueries : kTpcdQueries;
  int64_t pool_size = bookstore
                          ? static_cast<int64_t>(std::size(kBookstoreQueries))
                          : static_cast<int64_t>(std::size(kTpcdQueries));

  Rng rng(config.seed * 0x9E3779B9u + 1);
  SimRunOutcome out;
  int64_t next_sale_id = 1000000;
  auto pick = [&]() { return pool[rng.Uniform(0, pool_size - 1)]; };

  // Sessions arrive with a configured degrade policy, not always the
  // default: draw the starting mode per run. This also seeds the plan cache
  // with pool plans created under varied modes, which is what gives the
  // oracle a shot at a degrade-blind cache key (RCC_PLANCACHE_MUTATE): a
  // run that warms up under ALWAYS and later rotates to NONE would serve
  // degraded answers the session never authorized.
  {
    static const char* kInitModes[] = {"SET DEGRADE = NONE",
                                       "SET DEGRADE = BOUNDED",
                                       "SET DEGRADE = ALWAYS"};
    ++out.statements;
    (void)main_session.Execute(kInitModes[rng.Uniform(0, 2)]);
  }

  for (int step = 0; step < config.steps; ++step) {
    clock.AdvanceBy(rng.Uniform(300, 2600));
    int64_t roll = rng.Uniform(0, 99);
    if (roll < 45) {
      ++out.statements;
      // A seeded fraction of queries carries the admission layer's shed
      // hint, exactly as RccServer sets it under queue pressure. The hint
      // is advisory: the guard ladder still decides, so histories must stay
      // oracle-clean at any shed rate.
      Session::StatementOptions sopts;
      sopts.shed_hint = rng.Uniform(0, 99) <
                        static_cast<int64_t>(config.shed_percent);
      (void)main_session.Execute(pick(), sopts);
    } else if (roll < 60) {
      ++out.statements;
      (void)time_session.Execute(pick());
    } else if (roll < 72) {
      ++out.statements;
      if (bookstore) {
        switch (rng.Uniform(0, 2)) {
          case 0:
            (void)main_session.Execute(StrPrintf(
                "UPDATE Books SET price = price + 1 WHERE isbn <= %lld",
                static_cast<long long>(rng.Uniform(2, 12))));
            break;
          case 1:
            (void)main_session.Execute(StrPrintf(
                "UPDATE Reviews SET rating = %lld WHERE isbn = %lld",
                static_cast<long long>(rng.Uniform(1, 5)),
                static_cast<long long>(rng.Uniform(1, 100))));
            break;
          default:
            (void)main_session.Execute(StrPrintf(
                "INSERT INTO Sales (sale_id, isbn, year, amount) "
                "VALUES (%lld, %lld, 2004, 9.99)",
                static_cast<long long>(next_sale_id++),
                static_cast<long long>(rng.Uniform(1, 100))));
            break;
        }
      } else {
        // TPCD commits come from the update-traffic stream; spend the step
        // on another query so the statement rate stays comparable.
        (void)main_session.Execute(pick());
      }
    } else if (roll < 80) {
      ++out.statements;
      static const char* kModes[] = {"SET DEGRADE = NONE",
                                     "SET DEGRADE = BOUNDED",
                                     "SET DEGRADE = ALWAYS"};
      (void)main_session.Execute(kModes[rng.Uniform(0, 2)]);
    } else if (roll < 83) {
      // Statistics refresh (an ANALYZE tick): re-publishes the current stats
      // for a hot table. Content-identical, so plan choices are unchanged —
      // but it bumps the plan-cache version, forcing re-optimization and
      // re-publication of pooled plans under the *current* session modes.
      // This is the churn that makes a degrade-blind cache key (the
      // RCC_PLANCACHE_MUTATE planted bug) observable to the oracle: plans
      // re-created under ALWAYS get served after the mode rotates away.
      // A fleet refreshes every node: the router prices per-node plans, so
      // each node's plan cache must survive re-optimization independently.
      const char* table = bookstore ? "Books" : "Customer";
      for (CacheDbms* cache : analyzed) {
        (void)cache->UpdateStatistics(table, cache->catalog().GetStats(table));
      }
    } else if (roll < 92) {
      std::vector<std::string> batch = {pick(), pick(), pick()};
      out.statements += static_cast<int64_t>(batch.size());
      issue_batch(main_session, batch);
    } else {
      ++out.statements;
      (void)time_session.Execute(time_session.in_timeordered()
                                     ? "END TIMEORDERED"
                                     : "BEGIN TIMEORDERED");
    }
  }
  // Drain: let in-flight deliveries land so histories end at a quiet point.
  clock.AdvanceBy(15000);

  out.history = recorder.Snapshot();
  out.digest = out.history.Digest();
  out.report = CheckHistory(out.history);
  for (const HistoryEvent& ev : out.history.events) {
    if (ev.kind == HistoryEvent::Kind::kCommit) ++out.commits;
    if (ev.kind == HistoryEvent::Kind::kServe && ev.shed) ++out.shed_serves;
    if (ev.kind == HistoryEvent::Kind::kRoute) ++out.routes;
    if (ev.kind == HistoryEvent::Kind::kAnswer) {
      ++(ev.ok ? out.answered : out.failed);
    }
  }
  return out;
}

}  // namespace

const char* FaultMixName(FaultMix mix) {
  switch (mix) {
    case FaultMix::kNone:
      return "none";
    case FaultMix::kOutage:
      return "outage";
    case FaultMix::kReplication:
      return "replication";
    case FaultMix::kCombined:
      return "combined";
  }
  return "?";
}

const char* SimWorkloadName(SimWorkload workload) {
  switch (workload) {
    case SimWorkload::kBookstore:
      return "bookstore";
    case SimWorkload::kTpcd:
      return "tpcd";
  }
  return "?";
}

Result<SimRunOutcome> RunSimulation(const SimRunConfig& config) {
  // The recorder must outlive the system (the system holds a raw pointer to
  // it until destruction).
  HistoryRecorder recorder(config.seed);
  if (config.fleet_nodes >= 2) {
    // Every plain SELECT goes through the FleetRouter, nodes fault
    // independently, and the recorded history carries route events for the
    // oracle's cross-node rules. Poison is boosted: node quarantines (and
    // the router routing around them) are the point of the fleet run.
    fleet::FleetSystem fleet(BuildFleetConfig(config));
    // Before regions exist, so initial populations are on record.
    fleet.SetHistorySink(&recorder);
    RCC_RETURN_NOT_OK(fleet.LoadBookstore(BookstoreData(config)));
    RCC_RETURN_NOT_OK(fleet.SetupBookstore());
    std::vector<CacheDbms*> nodes;
    for (int node = 1; node <= fleet.node_count(); ++node) {
      nodes.push_back(fleet.node(node));
      ArmFaults(fleet.node(node), config, node, /*poison_probability=*/0.05);
    }
    std::unique_ptr<Session> main_session = fleet.CreateSession();
    std::unique_ptr<Session> time_session = fleet.CreateSession();
    // Steady state: a few full refresh cycles on the slowest node.
    fleet.AdvanceTo(30000);
    // The router owns dispatch, so the batch executor's concurrent-batch
    // contract does not apply: a batch is three sequential routed queries.
    SimRunOutcome out = RunSchedule(
        config, SimWorkload::kBookstore, *fleet.anchor(), nodes,
        [](Session& session, const std::vector<std::string>& batch) {
          for (const std::string& sql : batch) (void)session.Execute(sql);
        },
        *main_session, *time_session, recorder);
    fleet.SetHistorySink(nullptr);
    return out;
  }

  SystemConfig sys_cfg;
  sys_cfg.seed = config.seed;
  RccSystem sys(sys_cfg);
  // Before any region exists, so their initial population is on record.
  sys.SetHistorySink(&recorder);

  bool bookstore = config.workload == SimWorkload::kBookstore;
  if (bookstore) {
    RCC_RETURN_NOT_OK(LoadBookstore(&sys, BookstoreData(config)));
    RCC_RETURN_NOT_OK(SetupBookstoreCache(&sys, /*refresh_interval_ms=*/8000,
                                          /*delay_ms=*/3000));
  } else {
    TpcdConfig w;
    w.scale = 0.004;  // 600 customers / 6,000 orders
    w.seed = config.seed * 977 + 11;
    RCC_RETURN_NOT_OK(LoadTpcd(&sys, w));
    RCC_RETURN_NOT_OK(SetupPaperCache(&sys));
    // Continuous seeded update stream; the bookstore run uses inline DML
    // instead, so both commit paths are exercised across the seed matrix.
    StartUpdateTraffic(&sys, /*period_ms=*/1200, config.seed ^ 0x0DDB411u);
  }
  ArmFaults(sys.cache(), config, /*node=*/0, /*poison_probability=*/0.02);

  std::unique_ptr<Session> main_session = sys.CreateSession();
  std::unique_ptr<Session> time_session = sys.CreateSession();

  // Steady state: a few full refresh cycles.
  sys.AdvanceTo(bookstore ? 30000 : 65000);

  // Serial batch under the concurrent-batch contract (workers=1 keeps the
  // history deterministic; multi-worker runs are covered by tests that
  // don't assert on digests).
  SimRunOutcome out = RunSchedule(
      config, config.workload, sys, {sys.cache()},
      [](Session& session, const std::vector<std::string>& batch) {
        (void)session.ExecuteBatch(batch, /*workers=*/1);
      },
      *main_session, *time_session, recorder);
  sys.SetHistorySink(nullptr);
  return out;
}

}  // namespace sim
}  // namespace rcc
