// End-to-end benchmark of the rcc server.
//
//   rcc_perfbench --workload point_hot|currency_rw|fleet_routed --seed N
//                 --seconds S --trace 0|1 [--socket PATH] [--spans-out PATH]
//                 [--commit ID]
//
// Per run: set-up with warm-up (repeated, median reported), a timed
// closed-loop window over the wire, with --trace 1 the traced per-layer run,
// and an in-process oracle check pass. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exit status 1 on any
// failed or wrong answer or oracle violation, 2 on bad arguments or set-up
// failure.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "host.h"
#include "oracle_check.h"
#include "traced_run.h"
#include "wire_run.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Seed kept out of tuning: later changes confirm claims on it.
constexpr uint64_t kHeldOutSeed = 1729;
/// --trace 0 runs set up until kSetupQuiet set-ups ran without steal time
/// (at most kMaxSetups); setup_s is the median of the kSetupQuiet set-ups
/// with the least steal.
constexpr int kSetupQuiet = 5;
constexpr int kMaxSetups = 8;
/// Length of the INSERT-only window of read-only mixes (see
/// kWriteProbeLength).
constexpr double kWriteProbeSeconds = 3;

struct Args {
  Workload workload = Workload::kPointHot;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string socket = "rcc-perfbench.sock";
  std::string spans_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--socket") {
      args->socket = value;
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int Fail(const std::string& what, const rcc::Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return 2;
}

void PrintCounts(const char* pass, const Counts& c) {
  std::printf(
      "# %-7s attempted=%lld refused=%lld failed=%lld wrong=%lld\n", pass,
      static_cast<long long>(c.attempted), static_cast<long long>(c.refused),
      static_cast<long long>(c.failed), static_cast<long long>(c.wrong));
}

int Run(const Args& args) {
  const WorkloadParams params = ParamsFor(args.workload);
  std::printf(
      "# perfbench workload=%s seed=%llu heldout_seed=%llu nproc=%ld "
      "build=%s commit=%s seconds=%g trace=%d\n",
      WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kHeldOutSeed),
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      args.commit.c_str(), args.seconds, args.trace ? 1 : 0);

  // Set-up: load, shadow catalog, regions and views, in-process warm-up,
  // server start and client connect. Repeated (see kSetupQuiet); the last
  // one serves the timed window.
  std::vector<std::pair<double, double>> setups;  // (steal, seconds)
  std::unique_ptr<Deployment> deployment;
  std::vector<std::vector<Statement>> streams;
  std::unique_ptr<WireBench> bench;
  for (int quiet = 0; setups.empty() || (!args.trace && quiet < kSetupQuiet &&
                                         setups.size() < kMaxSetups);) {
    bench.reset();
    deployment.reset();
    const CpuTicks ticks0 = ReadCpuTicks();
    auto t0 = std::chrono::steady_clock::now();
    auto created = Deployment::Create(args.workload, nullptr);
    if (!created.ok()) return Fail("set-up", created.status());
    deployment = std::move(created).value();
    streams = deployment->MakeStreams(args.seed);
    bench = std::make_unique<WireBench>(deployment.get(), &streams,
                                        args.socket);
    rcc::Status st = bench->Warmup();
    if (st.ok()) st = bench->Start();
    if (!st.ok()) return Fail("server start / warm-up", st);
    const double seconds = SecondsSince(t0);
    const double steal = StealShare(ticks0, ReadCpuTicks());
    if (steal <= kQuietSteal) ++quiet;
    setups.emplace_back(steal, seconds);
  }
  std::stable_sort(setups.begin(), setups.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<double> setup_s;
  for (size_t i = 0; i < setups.size() && i < kSetupQuiet; ++i) {
    setup_s.push_back(setups[i].second);
  }

  // Peak memory through set-up. The timed window's transient memory
  // (snapshot copies awaiting reclamation, allocator arenas of the server
  // threads) depends on thread timing and is left out.
  const double peak_rss_mb = PeakRssMb();

  WireResult wire = bench->RunTimed(args.seconds);
  if (params.write_probe) {
    const std::vector<Statement> probe = deployment->MakeWriteProbe(args.seed);
    WireResult writes =
        bench->RunWriteProbe(probe, std::min(args.seconds, kWriteProbeSeconds));
    wire.write_us = std::move(writes.write_us);
    wire.counts.Add(writes.counts);
  }
  bench->Stop();
  bench.reset();
  const double read_p50 = Percentile(wire.read_us, 50);

  deployment.reset();

  TracedResult traced;
  if (args.trace) {
    auto t = RunTraced(args.workload, args.seed, read_p50, args.spans_out);
    if (!t.ok()) return Fail("traced run", t.status());
    traced = std::move(t).value();
  }

  auto checked = RunOracleCheck(args.workload, args.seed);
  if (!checked.ok()) return Fail("oracle check pass", checked.status());
  const OracleResult& oracle = *checked;

  PrintCounts("timed", wire.counts);
  if (args.trace) PrintCounts("traced", traced.counts);
  PrintCounts("oracle", oracle.counts);
  std::printf("# oracle answers_checked=%lld routes_checked=%lld "
              "violations=%zu %s\n",
              static_cast<long long>(oracle.answers_checked),
              static_cast<long long>(oracle.routes_checked), oracle.violations,
              oracle.first_violation.c_str());
  std::printf("# samples read=%zu write=%zu spans=%zu replay_selects=%lld\n",
              wire.read_us.size(), wire.write_us.size(), traced.spans,
              static_cast<long long>(traced.selects));
  std::printf("# local share clock_every=%d share_steps=%lld "
              "share_selects=%lld\n",
              params.clock_every, static_cast<long long>(wire.share_steps),
              static_cast<long long>(wire.share_selects));
  std::printf("# host window_s=%.1f quiet_slices=%d steal_pct=%.1f "
              "setups=%zu\n",
              wire.window_s, wire.quiet_slices, wire.steal_pct, setups.size());

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = traced.metrics;
  } else {
    metrics = {
        {"read_qps", "1/s", wire.read_qps},
        {"read_p50_us", "us", read_p50},
        {"read_p90_us", "us", Percentile(wire.read_us, 90)},
        {"write_p50_us", "us", Percentile(wire.write_us, 50)},
        {"local_serve_pct", "%", wire.local_serve_pct},
        {"setup_s", "s", Median(setup_s)},
        {"peak_rss_mb", "MB", peak_rss_mb},
    };
  }
  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const bool correct = wire.counts.bad() == 0 && traced.counts.bad() == 0 &&
                       oracle.counts.bad() == 0 && oracle.violations == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(wire.counts.attempted),
              static_cast<long long>(wire.counts.bad()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload point_hot|currency_rw|fleet_routed "
                 "--seed N --seconds S [--trace 0|1] [--socket PATH] "
                 "[--spans-out PATH] [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
