// Plan-cache acceptance bench (DESIGN.md §12): the cost of the plan phase
// with and without the cache, and the cache's behaviour under the paper's
// fixed-pool workload.
//
//  - cold: lexer -> parser -> resolver -> optimizer (what a miss pays);
//  - L1 hit: exact-text lookup (skips even the lexer);
//  - L2 hit: normalized-template lookup (one lex pass, fresh literals).
//
// Acceptance: the p50 plan phase on a hit must be at least 10x cheaper than
// the cold plan phase. The run also drives a session workload to report the
// steady-state hit rate, then dumps the metrics registry (which carries
// rcc.plancache.hits/misses/lookup_ms plus the gauges computed here) to
// bench_plan_cache.metrics.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "guard_bench_common.h"
#include "plan/plan_cache.h"
#include "sql/parser.h"

namespace rcc {
namespace {

// The paper's Q1/Q2-shaped pool: point lookups and a join, mixed bounds, so
// both switch-union and remote-only plan shapes sit in the cache.
const char* kPool[] = {
    "SELECT c_name, c_acctbal FROM Customer C WHERE C.c_custkey = 42 "
    "CURRENCY BOUND 10 MIN ON (C)",
    "SELECT c_name, c_acctbal FROM Customer C WHERE C.c_custkey = 42 "
    "CURRENCY BOUND 1 SECONDS ON (C)",
    "SELECT C.c_name, O.o_orderkey FROM Customer C, Orders O "
    "WHERE C.c_custkey = 7 AND O.o_custkey = C.c_custkey "
    "CURRENCY BOUND 10 MIN ON (C), 30 SECONDS ON (O)",
    "SELECT o_orderkey, o_totalprice FROM Orders O WHERE O.o_custkey < 20 "
    "CURRENCY BOUND 45 SECONDS ON (O)",
};
constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

/// Per-iteration latency of `fn` in nanoseconds, `iters` samples after a
/// small warm-up.
template <typename Fn>
std::vector<double> Sample(int iters, Fn&& fn) {
  for (int i = 0; i < 32; ++i) fn(i);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    double t0 = NowNs();
    fn(i);
    out.push_back(NowNs() - t0);
  }
  return out;
}

}  // namespace

int Run() {
  auto sys = bench::MakePaperSystem(0.01);
  bench::PrintRegionSettings(sys.get());
  auto session = sys->CreateSession();
  PlanCache& cache = sys->cache()->plan_cache();

  // --- Plan-phase latency: cold vs hit -----------------------------------
  constexpr int kIters = 2000;

  // Cold: the full pipeline a miss pays before execution can start.
  std::vector<double> cold = Sample(kIters, [&](int i) {
    const char* sql = kPool[static_cast<size_t>(i) % kPoolSize];
    ParseOptions popts;
    popts.record_literal_offsets = true;
    auto stmt = ParseSelect(sql, popts);
    if (!stmt.ok()) std::abort();
    auto plan = sys->cache()->Prepare(**stmt);
    if (!plan.ok()) std::abort();
  });

  // Warm the cache through the real session path.
  for (size_t q = 0; q < kPoolSize; ++q) (void)session->Execute(kPool[q]);

  // L1: exact text, repeated verbatim (the fixed-pool steady state).
  std::vector<double> l1 = Sample(kIters, [&](int i) {
    auto looked = cache.Lookup(kPool[static_cast<size_t>(i) % kPoolSize],
                               DegradeMode::kNone, false);
    if (!looked.hit.has_value()) std::abort();
  });

  // L2: same template, a literal never seen before -> one lex pass, then the
  // normalized-template entry binds the fresh value.
  (void)session->Execute(
      "SELECT c_name FROM Customer C WHERE C.c_custkey = 1 "
      "CURRENCY BOUND 10 MIN ON (C)");
  std::vector<double> l2 = Sample(kIters, [&](int i) {
    std::string sql = StrPrintf(
        "SELECT c_name FROM Customer C WHERE C.c_custkey = %d "
        "CURRENCY BOUND 10 MIN ON (C)",
        100000 + i);
    auto looked = cache.Lookup(sql, DegradeMode::kNone, false);
    if (!looked.hit.has_value()) std::abort();
  });

  double cold_p50 = Percentile(cold, 0.5);
  double l1_p50 = Percentile(l1, 0.5);
  double l2_p50 = Percentile(l2, 0.5);
  double speedup_l1 = cold_p50 / std::max(l1_p50, 1.0);
  double speedup_l2 = cold_p50 / std::max(l2_p50, 1.0);

  bench::PrintHeader("Plan-phase latency (p50 over 2000 iterations)");
  std::printf("  %-34s %12.0f ns\n", "cold (lex+parse+resolve+optimize)",
              cold_p50);
  std::printf("  %-34s %12.0f ns   (%.1fx cheaper)\n", "L1 hit (exact text)",
              l1_p50, speedup_l1);
  std::printf("  %-34s %12.0f ns   (%.1fx cheaper)\n",
              "L2 hit (template, fresh literal)", l2_p50, speedup_l2);
  bool pass = speedup_l1 >= 10.0 && speedup_l2 >= 10.0;
  std::printf("  acceptance (>=10x on hits): %s\n", pass ? "PASS" : "FAIL");

  // --- Steady-state hit rate under the session workload ------------------
  int64_t hits0 = cache.hits();
  int64_t misses0 = cache.misses();
  constexpr int kWorkload = 4000;
  for (int i = 0; i < kWorkload; ++i) {
    // Mostly verbatim pool texts; every 8th statement varies the literal so
    // the L2 path stays exercised.
    if (i % 8 == 7) {
      (void)session->Execute(StrPrintf(
          "SELECT c_name FROM Customer C WHERE C.c_custkey = %d "
          "CURRENCY BOUND 10 MIN ON (C)",
          i % 97));
    } else {
      (void)session->Execute(kPool[static_cast<size_t>(i) % kPoolSize]);
    }
    if (i % 16 == 0) sys->AdvanceBy(40);
  }
  int64_t hits = cache.hits() - hits0;
  int64_t misses = cache.misses() - misses0;
  double hit_rate =
      static_cast<double>(hits) / std::max<double>(1.0, hits + misses);

  bench::PrintHeader("Fixed-pool session workload");
  std::printf("  statements: %d   hits: %lld   misses: %lld   "
              "hit rate: %.3f   invalidations: %lld\n",
              kWorkload, static_cast<long long>(hits),
              static_cast<long long>(misses), hit_rate,
              static_cast<long long>(cache.invalidations()));

  obs::MetricsRegistry& metrics = sys->metrics();
  metrics.gauge("rcc.plancache.hit_rate")->Set(hit_rate);
  metrics.gauge("rcc.plancache.cold_plan_p50_ns")->Set(cold_p50);
  metrics.gauge("rcc.plancache.l1_lookup_p50_ns")->Set(l1_p50);
  metrics.gauge("rcc.plancache.l2_lookup_p50_ns")->Set(l2_p50);
  metrics.gauge("rcc.plancache.hit_speedup_l1")->Set(speedup_l1);
  metrics.gauge("rcc.plancache.hit_speedup_l2")->Set(speedup_l2);
  bench::DumpMetricsJson(*sys, "bench_plan_cache");
  return pass ? 0 : 1;
}

}  // namespace rcc

int main() { return rcc::Run(); }
