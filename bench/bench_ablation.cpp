// Ablation benchmarks for the design choices DESIGN.md calls out:
//  1. cost-model fidelity — the analytic p of Eq. (1) vs the fraction of
//     executions the guard actually sent to the local branch;
//  2. view matching on/off — how much of the workload the cache absorbs;
//  3. currency guards on/off — demonstrating that unguarded use of matched
//     views (what a C&C-unaware cache does) silently violates the query's
//     currency bound, while guarded plans never do.

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "optimizer/cost_model.h"
#include "workload/driver.h"

using namespace rcc;         // NOLINT
using namespace rcc::bench;  // NOLINT

namespace {

void CostModelFidelity() {
  PrintHeader("Ablation 1: Eq. (1) inside the cost model vs measured routing");
  std::printf("%-10s %-12s %-12s %-8s\n", "bound(s)", "analytic p",
              "measured", "|err|");
  // CR1: f = 15s, d = 5s.
  for (int bound_s : {6, 8, 10, 12, 14, 16, 18, 20, 25}) {
    auto sys = MakePaperSystem(0.01);
    std::string sql = StrPrintf(
        "SELECT c_custkey FROM Customer C WHERE c_acctbal > 1000 "
        "CURRENCY BOUND %d SECONDS ON (C)",
        bound_s);
    auto run = RunUniformWorkload(sys.get(), sql, 400, 400000,
                                  static_cast<uint64_t>(bound_s));
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      std::exit(1);
    }
    double p = EstimateLocalProbability(bound_s * 1000, 5000, 15000);
    double measured = run->LocalFraction();
    std::printf("%-10d %-12.3f %-12.3f %-8.3f\n", bound_s, p, measured,
                std::abs(p - measured));
  }
}

void ViewMatchingAblation() {
  PrintHeader("Ablation 2: view matching on/off (workload absorbed locally)");
  auto sys = MakePaperSystem(0.01);
  const char* sql =
      "SELECT c_custkey FROM Customer C WHERE c_acctbal > 1000 "
      "CURRENCY BOUND 10 MIN ON (C)";
  auto select = ParseSelect(sql);
  for (bool matching : {true, false}) {
    OptimizerOptions opts = sys->cache()->default_options();
    opts.enable_view_matching = matching;
    auto plan = sys->cache()->Prepare(**select, opts);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
      std::exit(1);
    }
    int64_t remote_queries = 0;
    for (int i = 0; i < 50; ++i) {
      auto outcome = sys->cache()->ExecutePrepared(*plan);
      if (outcome.ok()) remote_queries += outcome->stats.remote_queries;
      sys->AdvanceBy(700);
    }
    std::printf(
        "  view matching %-3s: shape=%-26s remote queries=%lld of 50, est "
        "cost=%.3f\n",
        matching ? "ON" : "OFF",
        std::string(PlanShapeName(plan->Shape())).c_str(),
        static_cast<long long>(remote_queries), plan->est_cost);
  }
  DumpMetricsJson(*sys, "bench_ablation");
}

void GuardSoundnessAblation() {
  PrintHeader(
      "Ablation 3: currency guards on/off under update traffic "
      "(constraint-violation rate)");
  const char* sql =
      "SELECT c_custkey, c_acctbal FROM Customer C WHERE c_custkey = 7 "
      "CURRENCY BOUND 8 SECONDS ON (C)";
  for (bool guards : {true, false}) {
    auto sys = MakePaperSystem(0.01);
    StartUpdateTraffic(sys.get(), /*period_ms=*/400, /*seed=*/3);
    auto session = sys->CreateSession();
    auto select = ParseSelect(sql);
    OptimizerOptions opts = sys->cache()->default_options();
    opts.enable_currency_guards = guards;
    auto plan = sys->cache()->Prepare(**select, opts);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
      std::exit(1);
    }
    int violations = 0;
    int checks = 200;
    Rng rng(17);
    for (int i = 0; i < checks; ++i) {
      sys->AdvanceBy(rng.Uniform(200, 900));
      if (session->VerifyConstraint(*plan).IsConstraintViolation()) {
        ++violations;
      }
    }
    std::printf("  guards %-3s: %3d/%d probes would violate the 8s bound\n",
                guards ? "ON" : "OFF", violations, checks);
  }
  std::printf(
      "  (guarded plans never violate; unguarded matched views do whenever "
      "staleness > bound)\n");
}

}  // namespace

int main() {
  CostModelFidelity();
  ViewMatchingAblation();
  GuardSoundnessAblation();
  return 0;
}
