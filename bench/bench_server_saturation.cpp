// Network front-end saturation: how many concurrent client connections the
// RccServer sustains, and what statement latency looks like under load
// (DESIGN.md §14). A multi-threaded load driver opens N connections (each
// its own socket + server-side Session), then pumps the paper's guard
// workload — clustered point lookups with relaxed currency bounds, so
// guards pass and statements stay on the cache — through every connection
// and reports p50/p99 round-trip latency and aggregate QPS per tier.
//
// Every response is checked: a statement error, a malformed frame, or an
// unexpected disconnect counts as a failure, and the acceptance bar is
// zero across all tiers. Results land in bench_server_saturation.metrics.json
// (schema rcc.metrics.v1) stamped with the run seed, alongside the
// rcc.server.* counters the server itself maintains.
//
// Driver threads are fixed (8) regardless of tier: each thread round-robins
// over its share of the connections with one statement outstanding at a
// time, so "concurrent connections" measures open sockets and per-connection
// server state, while aggregate QPS is bounded by the host's core count —
// the harness prints hardware_concurrency so numbers from small containers
// read correctly.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace rcc {
namespace bench {
namespace {

using server::RccClient;

constexpr int kDriverThreads = 8;
constexpr int kQueriesPerConnection = 4;

std::string QueryForIndex(int i) {
  int key = 1 + (i * 37) % 1000;
  return "SELECT c_custkey, c_name, c_acctbal FROM Customer C "
         "WHERE C.c_custkey = " +
         std::to_string(key) + " CURRENCY BOUND 10 MIN ON (C)";
}

struct TierResult {
  int connections = 0;
  int queries = 0;
  int failures = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
  double connect_ms = 0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

TierResult RunTier(const std::string& uds_path, int connections) {
  TierResult out;
  out.connections = connections;

  // Phase 1: open every connection and shake hands. All sockets stay open
  // for the whole tier — this is the "concurrent connections" under test.
  std::vector<RccClient> clients(static_cast<size_t>(connections));
  std::atomic<int> connect_failures{0};
  out.connect_ms = TimeMs([&] {
    std::vector<std::thread> threads;
    threads.reserve(kDriverThreads);
    for (int t = 0; t < kDriverThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = t; i < connections; i += kDriverThreads) {
          RccClient& c = clients[static_cast<size_t>(i)];
          if (!c.ConnectUds(uds_path).ok()) {
            connect_failures.fetch_add(1);
            continue;
          }
          auto hello = c.Hello("bench_server_saturation");
          if (!hello.ok()) connect_failures.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
  });
  out.failures += connect_failures.load();

  // Phase 2: every connection runs kQueriesPerConnection statements, driver
  // threads round-robining with one statement in flight each. Per-statement
  // round-trip latency (send -> terminal status frame) is recorded.
  std::vector<std::vector<double>> lat_per_thread(kDriverThreads);
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  double run_ms = TimeMs([&] {
    std::vector<std::thread> threads;
    threads.reserve(kDriverThreads);
    for (int t = 0; t < kDriverThreads; ++t) {
      threads.emplace_back([&, t] {
        auto& lat = lat_per_thread[static_cast<size_t>(t)];
        for (int round = 0; round < kQueriesPerConnection; ++round) {
          for (int i = t; i < connections; i += kDriverThreads) {
            RccClient& c = clients[static_cast<size_t>(i)];
            if (!c.connected()) continue;
            std::string sql = QueryForIndex(i * kQueriesPerConnection + round);
            bool ok = false;
            double ms = TimeMs([&] {
              auto resp = c.Query(sql);
              ok = resp.ok() && resp->ok() && !resp->rows.empty();
            });
            if (ok) {
              lat.push_back(ms);
              completed.fetch_add(1, std::memory_order_relaxed);
            } else {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  });

  // Phase 3: polite teardown — goodbye flushes anything pending, then close.
  for (auto& c : clients) {
    if (c.connected()) (void)c.Goodbye();
  }

  std::vector<double> all;
  for (auto& v : lat_per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  out.queries = completed.load();
  out.failures += failures.load();
  out.p50_ms = Percentile(all, 0.50);
  out.p99_ms = Percentile(all, 0.99);
  out.qps = run_ms > 0 ? 1000.0 * static_cast<double>(out.queries) / run_ms : 0;
  return out;
}

// -- overload tier ------------------------------------------------------------
//
// The survivability tier (DESIGN.md §15): far more pipelined statements than
// the admission limit, through few connections, so the server's overload
// machinery — admission refusal, C&C-aware shedding, per-statement
// deadlines — all fire at once. Each event loop decodes a connection's
// whole burst before running it, so the backlog is visible to admission and
// to the decode-time stamps rather than waiting unseen in socket buffers. Every connection first runs
// SET DEGRADE ALWAYS and then pipelines tight-bound lookups (10s bound:
// plan-time feasible, since the region's refresh delay keeps minimum
// staleness at 5s, but failing at run time against the replica's current
// 15s staleness — exactly the switch-union shape where a shed hint can
// serve degraded-local); every 8th statement carries a 1ms wire deadline
// that queue wait alone blows. The acceptance bar: every single frame in
// the storm is answered with rows or a structured status (Overloaded /
// DeadlineExceeded) — a malformed frame, an unexpected status code, or a
// dead connection is a protocol failure and fails the bench.

struct OverloadResult {
  int connections = 0;
  int statements = 0;
  int ok = 0;
  int shed = 0;        ///< answered degraded (client-visible shed marker)
  int overloaded = 0;  ///< structured kOverloaded refusals
  int deadline = 0;    ///< structured kDeadlineExceeded timeouts
  int protocol_failures = 0;
  double run_ms = 0;
};

OverloadResult RunOverloadTier(const std::string& uds_path, int connections,
                               int burst_per_connection) {
  OverloadResult out;
  out.connections = connections;

  std::vector<RccClient> clients(static_cast<size_t>(connections));
  for (auto& c : clients) {
    if (!c.ConnectUds(uds_path).ok() ||
        !c.Hello("bench_overload").ok() ||
        !c.Set("SET DEGRADE ALWAYS").ok()) {
      out.protocol_failures++;
    }
  }

  std::atomic<int> ok{0}, shed{0}, overloaded{0}, deadline{0}, bad{0};
  out.run_ms = TimeMs([&] {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(connections));
    for (int i = 0; i < connections; ++i) {
      threads.emplace_back([&, i] {
        RccClient& c = clients[static_cast<size_t>(i)];
        if (!c.connected()) return;
        // One contiguous burst: the connection's loop decodes all of it
        // that its socket holds into its run queue before running any, so
        // the admission limit (counting queued plus running statements
        // server-wide) refuses the excess, and the statements that wait
        // behind the rest carry their decode-time stamps into the
        // queue-delay shed hint and the 1ms wire deadlines.
        std::string batch;
        for (int q = 0; q < burst_per_connection; ++q) {
          std::string sql =
              "SELECT c_custkey, c_acctbal FROM Customer C WHERE "
              "C.c_custkey = " +
              std::to_string(1 + (i * 131 + q * 37) % 1000) +
              " CURRENCY BOUND 10 SEC ON (C)";
          if (q % 8 == 7) {
            server::AppendFrame(
                &batch, server::Opcode::kQueryDeadline, c.NextSeq(),
                server::EncodeQueryDeadlinePayload(1, sql));
          } else {
            server::AppendFrame(&batch, server::Opcode::kQuery, c.NextSeq(),
                                sql);
          }
        }
        if (!c.SendRaw(batch).ok()) {
          bad.fetch_add(burst_per_connection);
          return;
        }
        for (int q = 0; q < burst_per_connection; ++q) {
          auto resp = c.ReadResponse(nullptr);
          if (!resp.ok()) {
            // Transport/framing failure mid-storm: everything still
            // unanswered on this connection counts against the bar.
            bad.fetch_add(burst_per_connection - q);
            return;
          }
          if (resp->ok()) {
            ok.fetch_add(1);
            if (resp->status.degraded) shed.fetch_add(1);
          } else if (resp->status.code ==
                     static_cast<uint16_t>(StatusCode::kOverloaded)) {
            overloaded.fetch_add(1);
          } else if (resp->status.code ==
                     static_cast<uint16_t>(StatusCode::kDeadlineExceeded)) {
            deadline.fetch_add(1);
          } else {
            bad.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  });

  for (auto& c : clients) {
    if (c.connected()) (void)c.Goodbye();
  }

  out.statements = connections * burst_per_connection;
  out.ok = ok.load();
  out.shed = shed.load();
  out.overloaded = overloaded.load();
  out.deadline = deadline.load();
  out.protocol_failures += bad.load();
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace rcc

int main(int argc, char** argv) {
  using namespace rcc;
  using namespace rcc::bench;

  // Tiers can be overridden from the command line:
  //   bench_server_saturation 512 4096
  std::vector<int> tiers = {256, 1024, 2048};
  if (argc > 1) {
    tiers.clear();
    for (int i = 1; i < argc; ++i) tiers.push_back(std::atoi(argv[i]));
  }

  PrintHeader("server saturation (rcc.wire.v1 over UDS)");
  std::printf("hardware_concurrency=%u driver_threads=%d queries/conn=%d\n",
              std::thread::hardware_concurrency(), kDriverThreads,
              kQueriesPerConnection);

  auto sys = MakePaperSystem(/*scale=*/0.05);

  server::ServerOptions opts;
  opts.uds_path =
      "/tmp/rcc_bench_server_" + std::to_string(::getpid()) + ".sock";
  opts.workers = 4;
  opts.max_connections = 12000;
  // Overload machinery, exercised by the overload tier below. The normal
  // tiers keep one statement in flight per driver thread, so queue delay
  // stays ~0 and neither the shed hint nor the admission limit fires there.
  opts.shed_queue_delay_ms = 1;
  server::RccServer srv(sys.get(), opts);
  Status st = srv.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("\n  %-8s %-9s %-11s %-9s %-9s %-11s %s\n", "conns", "queries",
              "connect(ms)", "p50(ms)", "p99(ms)", "QPS", "failures");
  int total_failures = 0;
  for (int tier : tiers) {
    TierResult r = RunTier(opts.uds_path, tier);
    total_failures += r.failures;
    std::printf("  %-8d %-9d %-11.1f %-9.3f %-9.3f %-11.1f %d\n",
                r.connections, r.queries, r.connect_ms, r.p50_ms, r.p99_ms,
                r.qps, r.failures);

    std::string prefix = "rcc.bench.server.c" + std::to_string(tier);
    sys->metrics().gauge(prefix + ".p50_ms")->Set(r.p50_ms);
    sys->metrics().gauge(prefix + ".p99_ms")->Set(r.p99_ms);
    sys->metrics().gauge(prefix + ".qps")->Set(r.qps);
    sys->metrics()
        .gauge(prefix + ".failures")
        ->Set(static_cast<double>(r.failures));
  }

  // Overload tier: counters snapshot -> storm -> delta, so the gauges show
  // exactly what this tier drove (the normal tiers leave them untouched).
  auto& m = sys->metrics();
  int64_t rejected0 = m.counter("rcc.server.overload_rejected")->value();
  int64_t timeouts0 = m.counter("rcc.server.deadline_timeouts")->value();
  int64_t sheds0 = m.counter("rcc.server.shed_statements")->value();

  OverloadResult o = RunOverloadTier(opts.uds_path, /*connections=*/16,
                                     /*burst_per_connection=*/48);
  total_failures += o.protocol_failures;

  int64_t rejected = m.counter("rcc.server.overload_rejected")->value() -
                     rejected0;
  int64_t timeouts = m.counter("rcc.server.deadline_timeouts")->value() -
                     timeouts0;
  int64_t sheds = m.counter("rcc.server.shed_statements")->value() - sheds0;

  std::printf("\n  overload tier: %d conns x %d pipelined statements\n",
              o.connections, o.statements / o.connections);
  std::printf(
      "  %-9s %-9s %-9s %-9s %-9s %s\n"
      "  %-9d %-9d %-9d %-9d %-9d %d\n",
      "answered", "rows", "shed", "rejected", "timeout", "protocol_failures",
      o.ok + o.overloaded + o.deadline, o.ok, o.shed, o.overloaded,
      o.deadline, o.protocol_failures);
  std::printf(
      "  server counters: overload_rejected=%lld deadline_timeouts=%lld "
      "shed_statements=%lld\n",
      static_cast<long long>(rejected), static_cast<long long>(timeouts),
      static_cast<long long>(sheds));

  const std::string op = "rcc.bench.server.overload";
  m.gauge(op + ".statements")->Set(static_cast<double>(o.statements));
  m.gauge(op + ".rows")->Set(static_cast<double>(o.ok));
  m.gauge(op + ".shed")->Set(static_cast<double>(o.shed));
  m.gauge(op + ".rejected")->Set(static_cast<double>(o.overloaded));
  m.gauge(op + ".timeout")->Set(static_cast<double>(o.deadline));
  m.gauge(op + ".protocol_failures")
      ->Set(static_cast<double>(o.protocol_failures));
  m.gauge(op + ".server_rejected_delta")->Set(static_cast<double>(rejected));
  m.gauge(op + ".server_timeouts_delta")->Set(static_cast<double>(timeouts));
  m.gauge(op + ".server_sheds_delta")->Set(static_cast<double>(sheds));

  srv.Stop();

  if (total_failures > 0) {
    std::printf("\nFAIL: %d protocol/statement failures across tiers\n",
                total_failures);
  } else {
    std::printf("\nall tiers clean: zero protocol errors\n");
  }

  DumpMetricsJson(*sys, "bench_server_saturation");
  return total_failures > 0 ? 1 : 0;
}
