// Fault-injection study on the cache↔back-end link: a scripted 30% outage
// schedule (20s period, 6s down) plus transient errors, measured against four
// link configurations: a bare link (single attempt, no fallback), the retry
// policy alone, and the retry policy combined with DEGRADE BOUNDED / ALWAYS.
//
// Acceptance (ISSUE): with the 30% outage and DEGRADE BOUNDED the cache keeps
// answering >= 99% of the queries whose currency bound is satisfiable at the
// moment they give up, while the bare link drops below 75% overall; every
// degraded answer carries its real, nonzero staleness.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "workload/bookstore.h"

using namespace rcc;         // NOLINT
using namespace rcc::bench;  // NOLINT

namespace {

constexpr int kQueries = 2000;
constexpr SimTimeMs kStart = 60000;
constexpr SimTimeMs kStep = 997;  // co-prime-ish with the 10s/20s cycles
constexpr SimTimeMs kBoundMs = 5000;

constexpr const char* kQuery =
    "SELECT isbn FROM Books B WHERE B.isbn = 1 "
    "CURRENCY BOUND 5 SECONDS ON (B)";

/// Bookstore with f = 10s, d = 2s: replica staleness sweeps ~3s..13s, so a
/// 5s bound answers ~30% of arrivals locally and sends the rest remote.
std::unique_ptr<RccSystem> MakeSystem() {
  auto sys = std::make_unique<RccSystem>();
  Status st = LoadBookstore(sys.get(), BookstoreConfig{});
  if (st.ok()) st = SetupBookstoreCache(sys.get(), 10000, 2000);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  sys->AdvanceTo(35000);  // steady state
  return sys;
}

FaultInjectorConfig MakeFaults(SimTimeMs down_ms) {
  FaultInjectorConfig faults;
  faults.outage_period_ms = 20000;
  faults.outage_down_ms = down_ms;
  faults.transient_error_probability = 0.2;
  faults.base_latency_ms = 2;
  return faults;
}

RemotePolicy MakePolicy() {
  RemotePolicy policy;
  policy.timeout_ms = 1000;
  // ~3.5s budget: rides out transient errors and outage tails, but hands
  // queries arriving early in an outage window over to degradation.
  policy.max_retries = 3;
  policy.backoff_base_ms = 500;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter_ms = 50;
  policy.breaker_threshold = 0;
  return policy;
}

struct RunResult {
  int total = 0;
  int ok = 0;
  int failed = 0;
  int unsatisfiable = 0;  // failures with the bound genuinely out of reach
  int degraded = 0;
  SimTimeMs staleness_sum = 0;
  SimTimeMs staleness_max = 0;
  int zero_staleness_degrades = 0;  // must stay 0
  ExecStats stats;

  double SuccessRate() const { return 100.0 * ok / total; }
  double SatisfiableRate() const {
    int satisfiable = total - unsatisfiable;
    return satisfiable > 0 ? 100.0 * ok / satisfiable : 100.0;
  }
};

/// When `dump_name` is set, this configuration's metrics registry is written
/// to `<dump_name>.metrics.json` before the system is torn down.
RunResult Run(SimTimeMs down_ms, bool with_policy, const char* degrade,
              const char* dump_name = nullptr) {
  std::unique_ptr<RccSystem> sys = MakeSystem();
  sys->cache()->SetFaultInjector(MakeFaults(down_ms));
  if (with_policy) sys->cache()->SetRemotePolicy(MakePolicy());
  std::unique_ptr<Session> session = sys->CreateSession();
  auto set = session->Execute(StrPrintf("SET DEGRADE %s", degrade));
  if (!set.ok()) {
    std::fprintf(stderr, "SET DEGRADE failed: %s\n",
                 set.status().ToString().c_str());
    std::exit(1);
  }

  RunResult out;
  out.total = kQueries;
  for (int i = 0; i < kQueries; ++i) {
    SimTimeMs arrival = kStart + static_cast<SimTimeMs>(i) * kStep;
    if (arrival > sys->Now()) sys->AdvanceTo(arrival);
    auto r = session->Execute(kQuery);
    if (r.ok()) {
      ++out.ok;
      if (r->degraded) {
        ++out.degraded;
        out.staleness_sum += r->staleness_ms;
        if (r->staleness_ms > out.staleness_max)
          out.staleness_max = r->staleness_ms;
        if (r->staleness_ms <= 0) ++out.zero_staleness_degrades;
      }
    } else {
      ++out.failed;
      // At the moment the query gave up, could any branch have satisfied the
      // bound? The replica heartbeat is the ground truth.
      SimTimeMs staleness =
          sys->Now() - sys->cache()->region(1)->local_heartbeat();
      if (staleness > kBoundMs) ++out.unsatisfiable;
    }
  }
  // Link-wide resilience counters, as the cache publishes them.
  obs::MetricsRegistry& m = sys->metrics();
  out.stats.remote_retries = m.counter("rcc.remote.retries")->value();
  out.stats.remote_timeouts = m.counter("rcc.remote.timeouts")->value();
  out.stats.breaker_opens = m.counter("rcc.remote.breaker_opens")->value();
  if (dump_name != nullptr) DumpMetricsJson(*sys, dump_name);
  return out;
}

void PrintRow(const char* label, const RunResult& r) {
  std::printf("%-22s %7.1f%% %9d %9d %9d", label, r.SuccessRate(), r.ok,
              r.failed, r.degraded);
  if (r.degraded > 0) {
    std::printf(" %8.0fms %7lldms", double(r.staleness_sum) / r.degraded,
                static_cast<long long>(r.staleness_max));
  } else {
    std::printf(" %10s %9s", "-", "-");
  }
  std::printf(" %8lld %8lld %8lld\n",
              static_cast<long long>(r.stats.remote_retries),
              static_cast<long long>(r.stats.remote_timeouts),
              static_cast<long long>(r.stats.breaker_opens));
}

}  // namespace

int main() {
  PrintHeader("Fault model: 30% scripted outage (20s period, 6s down), "
              "20% transient errors");
  std::printf("Bookstore f=10s d=2s, %d queries, bound %llds, arrivals every "
              "%lldms\n\n",
              kQueries, static_cast<long long>(kBoundMs / 1000),
              static_cast<long long>(kStep));

  std::printf("%-22s %8s %9s %9s %9s %10s %9s %8s %8s %8s\n", "link config",
              "success", "ok", "failed", "degraded", "avg-stale", "max-stale",
              "retries", "timeouts", "breaker");
  RunResult vanilla = Run(6000, /*with_policy=*/false, "NONE");
  PrintRow("bare link", vanilla);
  RunResult retry_only = Run(6000, /*with_policy=*/true, "NONE");
  PrintRow("retry policy", retry_only);
  RunResult bounded =
      Run(6000, /*with_policy=*/true, "BOUNDED", "bench_fault_degradation");
  PrintRow("retry + DEGRADE BOUNDED", bounded);
  RunResult always = Run(6000, /*with_policy=*/true, "ALWAYS");
  PrintRow("retry + DEGRADE ALWAYS", always);

  PrintHeader("Success rate vs outage severity (down ms per 20s period)");
  std::printf("%-10s %12s %14s %22s\n", "down(ms)", "bare link",
              "retry policy", "retry + DEGRADE BOUNDED");
  for (SimTimeMs down : {SimTimeMs{0}, SimTimeMs{2000}, SimTimeMs{4000},
                         SimTimeMs{6000}, SimTimeMs{8000}}) {
    RunResult v = Run(down, false, "NONE");
    RunResult p = Run(down, true, "NONE");
    RunResult b = Run(down, true, "BOUNDED");
    std::printf("%-10lld %11.1f%% %13.1f%% %21.1f%%\n",
                static_cast<long long>(down), v.SuccessRate(), p.SuccessRate(),
                b.SuccessRate());
  }

  PrintHeader("Acceptance check");
  std::printf("bare link overall success:              %6.1f%%  (must be "
              "< 75%%)\n",
              vanilla.SuccessRate());
  std::printf("DEGRADE BOUNDED on satisfiable queries: %6.1f%%  (must be "
              ">= 99%%; %d of %d failures were genuinely unsatisfiable)\n",
              bounded.SatisfiableRate(), bounded.unsatisfiable,
              bounded.failed);
  std::printf("degraded serves reporting staleness=0:  %6d   (must be 0)\n",
              bounded.zero_staleness_degrades + always.zero_staleness_degrades);
  bool pass = vanilla.SuccessRate() < 75.0 &&
              bounded.SatisfiableRate() >= 99.0 && bounded.degraded > 0 &&
              bounded.zero_staleness_degrades == 0 &&
              always.zero_staleness_degrades == 0;
  std::printf("\n%s\n", pass ? "ACCEPTANCE: PASS" : "ACCEPTANCE: FAIL");
  return pass ? 0 : 1;
}
