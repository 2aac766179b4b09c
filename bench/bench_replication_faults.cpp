// Fault-injection study on the replication pipeline (the backend→cache
// maintenance stream): a sweep over fault intensity — drops, out-of-order
// delays, duplicates, stalls, and poisoned batches — measuring how often the
// cache must serve degraded (remote instead of local, because quarantine
// withdrew the region's certified heartbeat) and how quickly a quarantined
// region resyncs back to HEALTHY from the back-end master snapshot.
//
// Acceptance (ISSUE): with no faults nothing quarantines and queries split
// local/remote on staleness alone; under heavy faults every quarantine is
// followed by a resync, no query is ever answered from a quarantined
// replica, the overall answer rate stays 100% (the remote branch absorbs the
// displaced queries), and mean resync latency stays within the bound implied
// by the wakeup cadence (stall drain + one wakeup to enter RESYNCING + the
// propagation delay).

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "workload/bookstore.h"

using namespace rcc;         // NOLINT
using namespace rcc::bench;  // NOLINT

namespace {

constexpr int kQueries = 1500;
constexpr SimTimeMs kStart = 40000;
constexpr SimTimeMs kStep = 997;  // co-prime-ish with the 10s wakeup cycle
constexpr SimTimeMs kBoundMs = 5000;

constexpr const char* kQuery =
    "SELECT title, price FROM Books B WHERE B.isbn = 7 "
    "CURRENCY BOUND 5 SECONDS ON (B)";

/// Bookstore with f = 10s, d = 2s: replica staleness sweeps ~2s..12s, so the
/// 5s bound answers ~30% of arrivals locally when the pipeline is healthy —
/// a visible local share for the faults to displace.
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

/// One fault mix, scaled by `intensity` in [0, 1]. The mix exercises every
/// fault class at once; intensity 0 is the fault-free control.
ReplicationFaultConfig MakeFaults(double intensity) {
  ReplicationFaultConfig cfg;
  cfg.drop_probability = 0.30 * intensity;
  cfg.delay_probability = 0.30 * intensity;
  cfg.delay_ms = 12000;  // > update_interval: arrives out of order
  cfg.duplicate_probability = 0.30 * intensity;
  cfg.stall_probability = 0.10 * intensity;
  cfg.stall_wakeups = 2;
  cfg.poison_probability = 0.10 * intensity;
  return cfg;
}

struct RunResult {
  int total = 0;
  int ok = 0;
  int failed = 0;
  int64_t quarantines = 0;
  int64_t resyncs = 0;
  int64_t stale_rejected = 0;
  SimTimeMs resync_latency_total = 0;
  ExecStats stats;

  double AnswerRate() const { return 100.0 * ok / total; }
  double LocalRate() const { return ok > 0 ? 100.0 * stats.switch_local / ok : 0.0; }
  double QuarantineRefusalRate() const {
    return stats.guard_evaluations > 0
               ? 100.0 * stats.guard_quarantined_region /
                     stats.guard_evaluations
               : 0.0;
  }
  double AvgResyncMs() const {
    return resyncs > 0 ? double(resync_latency_total) / resyncs : 0.0;
  }
};

/// Runs the query/update workload against one fault intensity. The plan is
/// prepared once while the pipeline is healthy and then re-executed — the
/// production shape for a hot query — so quarantine is met by the *runtime*
/// guard (heartbeat withdrawn, probe sees health=quarantined, switch routes
/// remote), not papered over by per-query re-optimization. Updates ride
/// along with the queries so every delivery batch carries row ops (a poison
/// only fires inside a non-empty batch). When `dump_name` is set, the run's
/// metrics registry is written to `<dump_name>.metrics.json`.
RunResult Run(double intensity, const char* dump_name = nullptr) {
  std::unique_ptr<RccSystem> sys = MakeSystem();
  std::unique_ptr<Session> session = sys->CreateSession();
  auto plan = session->Prepare(kQuery);
  if (!plan.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  if (intensity > 0) sys->cache()->SetReplicationFaults(MakeFaults(intensity));

  RunResult out;
  out.total = kQueries;
  for (int i = 0; i < kQueries; ++i) {
    SimTimeMs arrival = kStart + static_cast<SimTimeMs>(i) * kStep;
    if (arrival > sys->Now()) sys->AdvanceTo(arrival);
    if (i % 3 == 0) {
      auto upd = session->Execute(
          StrPrintf("UPDATE Books SET price = %d WHERE isbn = 7", 10 + i));
      if (!upd.ok()) {
        std::fprintf(stderr, "update failed: %s\n",
                     upd.status().ToString().c_str());
        std::exit(1);
      }
    }
    auto r = sys->cache()->ExecutePrepared(*plan);
    if (r.ok()) {
      ++out.ok;
      out.stats.switch_local += r->stats.switch_local;
      out.stats.guard_evaluations += r->stats.guard_evaluations;
      out.stats.guard_quarantined_region += r->stats.guard_quarantined_region;
    } else {
      ++out.failed;
    }
  }
  for (const auto& agent : sys->cache()->agents()) {
    out.quarantines += agent->quarantines();
    out.resyncs += agent->resyncs();
    out.stale_rejected += agent->stale_batches_rejected();
    out.resync_latency_total += agent->resync_latency_total_ms();
  }
  if (dump_name != nullptr) DumpMetricsJson(*sys, dump_name);
  return out;
}

void PrintRow(double intensity, const RunResult& r) {
  std::printf("%-10.2f %8.1f%% %7.1f%% %11.1f%% %7lld %7lld %7lld",
              intensity, r.AnswerRate(), r.LocalRate(),
              r.QuarantineRefusalRate(),
              static_cast<long long>(r.quarantines),
              static_cast<long long>(r.resyncs),
              static_cast<long long>(r.stale_rejected));
  if (r.resyncs > 0) {
    std::printf(" %11.0fms\n", r.AvgResyncMs());
  } else {
    std::printf(" %13s\n", "-");
  }
}

}  // namespace

int main() {
  PrintHeader(
      "Replication faults: drop/delay/duplicate/stall/poison mix vs "
      "degraded-serve rate and resync latency");
  std::printf(
      "Bookstore f=10s d=2s, %d queries, bound %llds, arrivals every %lldms; "
      "an UPDATE every 3rd arrival keeps delivery batches non-empty\n\n",
      kQueries, static_cast<long long>(kBoundMs / 1000),
      static_cast<long long>(kStep));

  std::printf("%-10s %9s %8s %12s %7s %7s %7s %13s\n", "intensity", "answered",
              "local", "guard-refuse", "quarant", "resyncs", "stale-rej",
              "avg-resync");
  RunResult control = Run(0.0);
  PrintRow(0.0, control);
  RunResult light = Run(0.25);
  PrintRow(0.25, light);
  RunResult medium = Run(0.5);
  PrintRow(0.5, medium);
  RunResult heavy = Run(1.0, "bench_replication_faults");
  PrintRow(1.0, heavy);

  PrintHeader("Acceptance check");
  // Resync latency bound: quarantine is noticed at the next wakeup (<= one
  // 10s interval away, or after the in-progress stall drains — at most
  // stall_wakeups more intervals), then the snapshot propagates in d = 2s.
  constexpr double kResyncBoundMs = (1 + 2) * 10000 + 2000;
  bool faulted_resynced = heavy.quarantines > 0 && heavy.resyncs > 0;
  bool no_spurious = control.quarantines == 0 && control.resyncs == 0;
  bool all_answered = control.failed == 0 && light.failed == 0 &&
                      medium.failed == 0 && heavy.failed == 0;
  bool latency_bounded =
      heavy.resyncs == 0 || heavy.AvgResyncMs() <= kResyncBoundMs;
  std::printf("fault-free control quarantines/resyncs:  %lld/%lld  (must be "
              "0/0)\n",
              static_cast<long long>(control.quarantines),
              static_cast<long long>(control.resyncs));
  std::printf("heavy-fault quarantines -> resyncs:      %lld -> %lld  (must "
              "both be > 0)\n",
              static_cast<long long>(heavy.quarantines),
              static_cast<long long>(heavy.resyncs));
  std::printf("answer rate under every mix:             %s  (remote branch "
              "must absorb displaced queries)\n",
              all_answered ? "100%" : "DEGRADED");
  std::printf("heavy-fault mean resync latency:         %.0fms  (must be <= "
              "%.0fms)\n",
              heavy.AvgResyncMs(), kResyncBoundMs);
  bool pass =
      faulted_resynced && no_spurious && all_answered && latency_bounded;
  std::printf("\n%s\n", pass ? "ACCEPTANCE: PASS" : "ACCEPTANCE: FAIL");
  return pass ? 0 : 1;
}
