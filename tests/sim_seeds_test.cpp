// The acceptance sweep: 25 oracle-checked seeds spanning every fault mix
// (none / query-channel outage / replication faults / combined) and both
// workloads. In the normal build every seed must replay with zero
// conformance violations; in the mutation builds the same seeds must
// surface at least one — the matched pair is what demonstrates the
// oracle's independence from the engine under test. Three planted bugs:
//  - RCC_SIM_MUTATE: the guard check is skewed by one refresh interval;
//  - RCC_PLANCACHE_MUTATE: the plan-cache key drops the degrade mode, so
//    the runner's SET DEGRADE rotation serves plans cached under the wrong
//    mode (e.g. an ALWAYS-behaving plan on a NONE session — a degraded
//    answer the session never authorized, oracle rule R3), on one cache and
//    on every node of a routed fleet;
//  - RCC_MVCC_MUTATE: delivery publishes the batch's data with the *old*
//    heartbeat, so snapshots certify currency bounds the fresh data doesn't
//    satisfy — the oracle's guard/serve heartbeat cross-check disagrees
//    with what its own replay of the delivery schedule derives;
//  - RCC_FLEET_MUTATE: the fleet router's probes on the highest-numbered
//    node fall back to the raw snapshot heartbeat when certification was
//    withdrawn, so quarantined nodes keep receiving dispatches — the
//    oracle's route-heartbeat rule re-derives certified state from the
//    install + health streams and disagrees (fleet runs only).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "sim/runner.h"

namespace rcc {
namespace sim {
namespace {

struct SeedCase {
  uint64_t seed;
  FaultMix faults;
  SimWorkload workload;
};

class SimSeedMatrixTest : public ::testing::TestWithParam<SeedCase> {};

TEST_P(SimSeedMatrixTest, HistoryConformsToModel) {
  const SeedCase& param = GetParam();
  SimRunConfig cfg;
  cfg.seed = param.seed;
  cfg.faults = param.faults;
  cfg.workload = param.workload;
  cfg.steps = 80;

  auto run = RunSimulation(cfg);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // A vacuous run proves nothing: require real coverage.
  EXPECT_GT(run->report.answers_checked, 0);
  EXPECT_GT(run->report.guards_checked, 0);
  EXPECT_GT(run->report.serves_checked, 0);
  EXPECT_GT(run->commits, 0);
  EXPECT_EQ(run->digest, run->history.Digest());

#if defined(RCC_SIM_MUTATE) || defined(RCC_PLANCACHE_MUTATE) || \
    defined(RCC_MVCC_MUTATE) || defined(RCC_FLEET_MUTATE)
  // Collected across the matrix by the *IsCaughtSomewhere tests below; a
  // single seed need not trip (loose bounds can mask the skew, and a seed's
  // degrade rotation may never cross a cached plan), so no per-seed
  // assertion here.
#else
  EXPECT_TRUE(run->report.ok())
      << "seed " << param.seed << " mix " << FaultMixName(param.faults)
      << " workload " << SimWorkloadName(param.workload) << "\n"
      << run->report.Summary();
#endif
}

std::vector<SeedCase> BuildMatrix() {
  // 25 seeds cycling the four mixes; every fifth runs TPCD instead of the
  // bookstore so both schemas, cache layouts and commit paths are covered.
  const FaultMix kMixes[] = {FaultMix::kNone, FaultMix::kOutage,
                             FaultMix::kReplication, FaultMix::kCombined};
  std::vector<SeedCase> cases;
  for (uint64_t i = 0; i < 25; ++i) {
    SeedCase c;
    c.seed = 1000 + i * 37;
    c.faults = kMixes[i % 4];
    c.workload = i % 5 == 4 ? SimWorkload::kTpcd : SimWorkload::kBookstore;
    cases.push_back(c);
  }
  return cases;
}

#if !defined(RCC_SIM_MUTATE) && !defined(RCC_PLANCACHE_MUTATE) && \
    !defined(RCC_MVCC_MUTATE) && !defined(RCC_FLEET_MUTATE)
TEST(SimSeedMatrixTest, ShedHintsProduceRecordedOracleCleanSheds) {
  // Overload shedding must be *visible* in histories (serve lines carry
  // shed=1) and *sound* (the oracle's R3/R7 rules hold: every shed is a
  // degraded local serve the session's mode authorized). Drive a slice of
  // the matrix with every main-session query carrying the admission
  // layer's shed hint; at that rate the stale-replica windows that make a
  // guard fail while DEGRADE ALWAYS permits a local serve are hit reliably.
  int64_t total_sheds = 0;
  for (uint64_t seed : {1000u, 1037u, 1111u, 1259u}) {
    SimRunConfig cfg;
    cfg.seed = seed;
    cfg.faults = FaultMix::kCombined;
    cfg.steps = 120;
    cfg.shed_percent = 100;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->report.ok())
        << "seed " << seed << "\n"
        << run->report.Summary();
    total_sheds += run->shed_serves;
  }
  EXPECT_GT(total_sheds, 0);
}

TEST(SimSeedMatrixTest, FleetMatrixStaysOracleClean) {
  // A slice of the matrix re-run as a three-node fleet: every SELECT goes
  // through the FleetRouter, nodes fault independently, and the four
  // cross-node oracle rules (node-region-binding, route-heartbeat,
  // route-verdict, route-choice / route-serve-node) are in force on top of
  // R1–R7. The slice covers every fault mix; routes_checked > 0 guards
  // against a vacuously green run where nothing was actually dispatched.
  for (const SeedCase& c : BuildMatrix()) {
    if (c.seed % 3 == 2) continue;  // ~2/3 of the matrix, all mixes
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.steps = 80;
    cfg.fleet_nodes = 3;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run->report.routes_checked, 0) << "seed " << c.seed;
    EXPECT_GT(run->report.answers_checked, 0) << "seed " << c.seed;
    EXPECT_TRUE(run->report.ok())
        << "seed " << c.seed << " mix " << FaultMixName(c.faults) << "\n"
        << run->report.Summary();
  }
}

TEST(SimSeedMatrixTest, DigestsMatchGolden) {
  // Every History::Digest() of the matrix and of its three-node fleet
  // slice, pinned in a golden file: a change to any recorded behaviour
  // shows up as a diff of that file and has to be declared.
  std::string actual;
  auto record = [&actual](const char* run, const SeedCase& c,
                          const SimRunConfig& cfg) {
    auto out = RunSimulation(cfg);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    actual += StrPrintf("%s seed%llu %s %016llx\n", run,
                        static_cast<unsigned long long>(c.seed),
                        FaultMixName(c.faults),
                        static_cast<unsigned long long>(out->digest));
  };
  for (const SeedCase& c : BuildMatrix()) {
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.workload = c.workload;
    cfg.steps = 80;
    record(SimWorkloadName(c.workload), c, cfg);
  }
  for (const SeedCase& c : BuildMatrix()) {
    if (c.seed % 3 == 2) continue;
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.steps = 80;
    cfg.fleet_nodes = 3;
    record("fleet3", c, cfg);
  }
  const std::string golden_path =
      std::string(RCC_TESTS_GOLDEN_DIR) + "/sim_digests.golden";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << "; the digests are:\n"
                         << actual;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "simulation digests drifted from " << golden_path;
}
#endif

std::string SeedCaseName(const ::testing::TestParamInfo<SeedCase>& info) {
  return std::string("seed") + std::to_string(info.param.seed) + "_" +
         FaultMixName(info.param.faults) + "_" +
         SimWorkloadName(info.param.workload);
}

INSTANTIATE_TEST_SUITE_P(Matrix, SimSeedMatrixTest,
                         ::testing::ValuesIn(BuildMatrix()), SeedCaseName);

#ifdef RCC_SIM_MUTATE
TEST(SimSeedMatrixTest, MutationIsCaughtSomewhere) {
  // Re-run a slice of the matrix and require the skewed guard to show up as
  // conformance violations. With 5s bounds against an 8s/3s region the skew
  // flips verdicts on most stale probes, so "somewhere" is in practice
  // "almost everywhere".
  size_t total = 0;
  for (const SeedCase& c : BuildMatrix()) {
    if (c.seed % 3 != 0 && total > 0) continue;  // keep the mutate run cheap
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.workload = c.workload;
    cfg.steps = 80;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok());
    total += run->report.violations.size();
  }
  EXPECT_GE(total, 1u);
}
#endif

#ifdef RCC_PLANCACHE_MUTATE
TEST(SimSeedMatrixTest, PlanCacheMutationIsCaughtSomewhere) {
  // The degrade-blind cache key only bites when the runner re-executes a
  // pooled text under a different mode than the one its plan was cached
  // under, *while* remote is unavailable and the replica is stale enough
  // for the modes to disagree — either as an unauthorized stale serve (R3)
  // or as a refusal on an ALWAYS session with certified guards (R6). The
  // coincidence is much sparser than the guard skew's, so this sweep runs
  // the full matrix at 200 steps and requires the oracle to flag at least
  // one seed.
  size_t total = 0;
  for (const SeedCase& c : BuildMatrix()) {
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.workload = c.workload;
    cfg.steps = 200;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok());
    total += run->report.violations.size();
  }
  EXPECT_GE(total, 1u);
}
#endif

#if defined(RCC_PLANCACHE_MUTATE)
TEST(SimSeedMatrixTest, FleetPlanCacheMutationIsCaughtSomewhere) {
  // Routed statements take each node's plan from that node's plan cache, so
  // the degrade-blind key reaches the fleet too: after a SET DEGRADE
  // rotation a node serves a plan cached under another mode, and the plan
  // behaves under its creation mode while the answer is audited under the
  // session's. The router only dispatches to nodes its probes judge under
  // the session's mode, so the bug shows as R6 alone: an ALWAYS session
  // routed to a stale certified node whose plan was cached under NONE or
  // BOUNDED refuses while that node's back-end link is down. That needs a
  // guarded plan (tight bounds plan remote-only on slow nodes), a mode
  // rotation and an outage to coincide, so the fleet slice of the matrix
  // (the FleetMatrixStaysOracleClean seeds, every fault mix, three nodes)
  // runs 600 steps per seed and must flag at least one violation.
  size_t total = 0;
  for (const SeedCase& c : BuildMatrix()) {
    if (c.seed % 3 == 2) continue;
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.steps = 600;
    cfg.fleet_nodes = 3;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run->routes, 0) << "seed " << c.seed;
    total += run->report.violations.size();
  }
  EXPECT_GE(total, 1u);
}
#endif

#ifdef RCC_FLEET_MUTATE
TEST(SimSeedMatrixTest, FleetMutationIsCaughtSomewhere) {
  // The mutated probe only lies when the highest-numbered node's
  // certification is withdrawn at route time, i.e. while a poisoned delivery
  // has it quarantined or resyncing — and only replication-fault mixes
  // poison. Queries are ~60% of steps, so any quarantine window of the
  // mutated node that overlaps one routed query is caught by the
  // route-heartbeat rule. Sweep the full 25-seed matrix as three-node fleets
  // and require at least one flagged violation.
  size_t total = 0;
  for (const SeedCase& c : BuildMatrix()) {
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.steps = 80;
    cfg.fleet_nodes = 3;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok());
    total += run->report.violations.size();
  }
  EXPECT_GE(total, 1u);
}
#endif

#ifdef RCC_MVCC_MUTATE
TEST(SimSeedMatrixTest, MvccMutationIsCaughtSomewhere) {
  // The stale-heartbeat publication only matters when a guard probes or a
  // local serve records a heartbeat *after* a delivery that should have
  // advanced it — the oracle replays the delivery schedule independently and
  // derives the heartbeat each snapshot ought to carry, so any region that
  // receives at least one non-empty batch before being read disagrees. Sweep
  // the full 25-seed matrix and require at least one flagged violation.
  size_t total = 0;
  for (const SeedCase& c : BuildMatrix()) {
    SimRunConfig cfg;
    cfg.seed = c.seed;
    cfg.faults = c.faults;
    cfg.workload = c.workload;
    cfg.steps = 80;
    auto run = RunSimulation(cfg);
    ASSERT_TRUE(run.ok());
    total += run->report.violations.size();
  }
  EXPECT_GE(total, 1u);
}
#endif

}  // namespace
}  // namespace sim
}  // namespace rcc
