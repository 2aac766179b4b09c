// Google-benchmark microbenchmarks for the pipeline stages: parsing the
// extended SQL (currency clause included), constraint normalization,
// cache-mode optimization, guard evaluation, and end-to-end execution of the
// paper's Q1. These are the building blocks behind Tables 4.4/4.5. The DML
// pair times a one-key UPDATE against an INSERT through Session::Execute;
// BM_CorrelatedExists times a subplan re-opened per outer row;
// BM_ExecuteRemoteRangeRead one range template shipped with fresh literals,
// BM_ExecuteLocalRangeRead the same range served by the local view.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/strings.h"
#include "exec/event_stream.h"
#include "exec/switch_union.h"
#include "semantics/resolver.h"

namespace rcc {
namespace {

const char* kJoinSql =
    "SELECT C.c_name, O.o_orderkey, O.o_totalprice "
    "FROM Customer C, Orders O "
    "WHERE C.c_custkey = 42 AND O.o_custkey = C.c_custkey "
    "CURRENCY BOUND 10 MIN ON (C), 30 SECONDS ON (O)";

RccSystem* System() {
  static RccSystem* sys = [] {
    auto owned = bench::MakePaperSystem(0.01);
    return owned.release();
  }();
  return sys;
}

void BM_ParseCurrencyClauseQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = ParseSelect(kJoinSql);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseCurrencyClauseQuery);

void BM_ResolveAndNormalize(benchmark::State& state) {
  auto stmt = ParseSelect(kJoinSql);
  const Catalog& catalog = System()->cache()->catalog();
  for (auto _ : state) {
    auto rq = ResolveQuery(**stmt, catalog);
    benchmark::DoNotOptimize(rq);
  }
}
BENCHMARK(BM_ResolveAndNormalize);

void BM_NormalizeConstraint(benchmark::State& state) {
  // A chain of overlapping tuples forcing repeated merging.
  CcConstraint raw;
  for (uint32_t i = 0; i + 1 < 8; ++i) {
    CcTuple t;
    t.bound_ms = 1000 * (i + 1);
    t.operands = {i, i + 1};
    raw.tuples.push_back(std::move(t));
  }
  for (auto _ : state) {
    auto n = NormalizeConstraint(raw, 8);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_NormalizeConstraint);

void BM_OptimizeCacheMode(benchmark::State& state) {
  auto stmt = ParseSelect(kJoinSql);
  CacheDbms* cache = System()->cache();
  for (auto _ : state) {
    auto plan = cache->Prepare(**stmt);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeCacheMode);

void BM_GuardEvaluation(benchmark::State& state) {
  RccSystem* sys = System();
  PhysicalOp op;
  op.kind = PhysOpKind::kSwitchUnion;
  op.guard_region = 1;
  op.guard_bound_ms = 600000;
  EventStream events;
  CacheDbms::Reader reader(sys->cache());
  ExecContext ctx;
  ctx.reader = &reader;
  ctx.clock = sys->clock();
  ctx.events = &events;
  for (auto _ : state) {
    bool ok = SwitchUnionIterator::EvaluateGuard(op, &ctx);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_GuardEvaluation);

void BM_ExecuteLocalPointLookup(benchmark::State& state) {
  RccSystem* sys = System();
  auto stmt = ParseSelect(
      "SELECT c_custkey, c_name, c_acctbal FROM Customer C "
      "WHERE C.c_custkey = 42 CURRENCY BOUND 10 MIN ON (C)");
  auto plan = sys->cache()->Prepare(**stmt);
  if (!plan.ok()) state.SkipWithError("prepare failed");
  for (auto _ : state) {
    auto outcome = sys->cache()->ExecutePrepared(*plan);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ExecuteLocalPointLookup);

void BM_ExecuteRemotePointLookup(benchmark::State& state) {
  RccSystem* sys = System();
  auto stmt = ParseSelect(
      "SELECT c_custkey, c_name, c_acctbal FROM Customer C "
      "WHERE C.c_custkey = 42");
  auto plan = sys->cache()->Prepare(**stmt);
  if (!plan.ok()) state.SkipWithError("prepare failed");
  for (auto _ : state) {
    auto outcome = sys->cache()->ExecutePrepared(*plan);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ExecuteRemotePointLookup);

// A 4-customer Orders range read, the shape of perfbench currency_rw's range
// reads: one cached plan, a new literal on every iteration. Without a
// currency clause it is served by the remote branch, so the back end's plan
// cache sees one range template over a stream of values; with one, by a
// scan of the local orders view. Either way about 40 rows come back.
void RunRangeRead(benchmark::State& state, const std::string& currency,
                  int64_t remote_queries) {
  RccSystem* sys = System();
  auto cached = sys->cache()->LookupOrPlan(
      "SELECT o_custkey, o_orderkey, o_totalprice FROM Orders O "
      "WHERE O.o_custkey >= 1 AND O.o_custkey <= 4" +
          currency,
      DegradeMode::kNone, /*timeordered=*/false);
  if (!cached.ok() || cached->params.size() != 2) {
    state.SkipWithError("plan failed");
    return;
  }
  std::vector<Value> params = cached->params;
  PreparedExecOptions opts;
  opts.params = &params;
  int64_t lo = 0;
  for (auto _ : state) {
    lo = lo % 1000 + 1;
    params[0] = Value::Int(lo);
    params[1] = Value::Int(lo + 3);
    auto outcome = sys->cache()->ExecutePrepared(*cached->entry->plan, opts);
    benchmark::DoNotOptimize(outcome);
    if (!outcome.ok() || outcome->stats.remote_queries != remote_queries) {
      state.SkipWithError("unexpected outcome");
      break;
    }
  }
}

void BM_ExecuteRemoteRangeRead(benchmark::State& state) {
  RunRangeRead(state, "", 1);
}
BENCHMARK(BM_ExecuteRemoteRangeRead);

void BM_ExecuteLocalRangeRead(benchmark::State& state) {
  RunRangeRead(state, " CURRENCY BOUND 10 MIN ON (O)", 0);
}
BENCHMARK(BM_ExecuteLocalRangeRead);

// A correlated EXISTS over 1,000 outer customers. Its subplan is built once
// per execution and re-opened per customer; the inner side seeks the local
// orders_prj view (arg 0) or, with no currency clause, fetches from the
// back-end once per customer (arg 1).
void BM_CorrelatedExists(benchmark::State& state) {
  const bool remote = state.range(0) != 0;
  RccSystem* sys = System();
  auto stmt = ParseSelect(
      std::string("SELECT C.c_custkey FROM Customer C "
                  "WHERE C.c_custkey <= 1000 AND EXISTS ("
                  " SELECT 1 FROM Orders O WHERE O.o_custkey = C.c_custkey") +
      (remote ? ")" : " CURRENCY BOUND 10 MIN ON (O))") +
      " CURRENCY BOUND 10 MIN ON (C)");
  auto plan = sys->cache()->Prepare(**stmt);
  if (!plan.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  const int64_t fetches = remote ? 1000 : 0;
  for (auto _ : state) {
    auto outcome = sys->cache()->ExecutePrepared(*plan);
    benchmark::DoNotOptimize(outcome);
    if (!outcome.ok() || outcome->stats.remote_queries != fetches) {
      state.SkipWithError("unexpected outcome");
      break;
    }
  }
  state.SetLabel(remote ? "remote inner" : "local inner");
}
BENCHMARK(BM_CorrelatedExists)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

constexpr int64_t kDmlCustomers = 7500;  // TPCD scale 0.05

// The DML pair writes to its own system, loaded like perfbench's
// currency_rw, so the shared one above never sees its commits.
Session* DmlSession() {
  static Session* session = [] {
    RccSystem* sys = bench::MakePaperSystem(0.05).release();
    return sys->CreateSession().release();
  }();
  return session;
}

void BM_UpdateOneKey(benchmark::State& state) {
  Session* session = DmlSession();
  int64_t key = 0;
  for (auto _ : state) {
    key = key % kDmlCustomers + 1;
    auto r = session->Execute(StrPrintf(
        "UPDATE Customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %lld",
        static_cast<long long>(key)));
    benchmark::DoNotOptimize(r);
    if (!r.ok() || r->rows_affected != 1) {
      state.SkipWithError("update failed");
      break;
    }
  }
}
BENCHMARK(BM_UpdateOneKey);

void BM_InsertOneRow(benchmark::State& state) {
  Session* session = DmlSession();
  static int64_t key = kDmlCustomers;  // new keys, across repetitions too
  for (auto _ : state) {
    ++key;
    auto r = session->Execute(StrPrintf(
        "INSERT INTO Customer (c_custkey, c_name, c_nationkey, c_acctbal) "
        "VALUES (%lld, 'Customer#%09lld', 1, 0.00)",
        static_cast<long long>(key), static_cast<long long>(key)));
    benchmark::DoNotOptimize(r);
    if (!r.ok()) {
      state.SkipWithError("insert failed");
      break;
    }
  }
}
BENCHMARK(BM_InsertOneRow);

void BM_ReplicationDelivery(benchmark::State& state) {
  // One full sync cycle of both regions, including heartbeats.
  RccSystem* sys = System();
  for (auto _ : state) {
    sys->AdvanceBy(15000);
  }
}
BENCHMARK(BM_ReplicationDelivery);

}  // namespace
}  // namespace rcc

// Expanded BENCHMARK_MAIN() so the shared system's metrics registry (which
// outlives RunSpecifiedBenchmarks — System() leaks it on purpose) can be
// dumped after the run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rcc::bench::DumpMetricsJson(*rcc::System(), "bench_microbench");
  return 0;
}
