#ifndef RCC_BENCH_GUARD_BENCH_COMMON_H_
#define RCC_BENCH_GUARD_BENCH_COMMON_H_

// Shared fixture for the currency-guard overhead experiments (paper §4.3,
// Tables 4.4 and 4.5): the three query types and three plan variants per
// query — traditional local (view, no guard), traditional remote, and the
// dynamic plan with currency guards. The dynamic plan is measured twice,
// once with guards passing (local branches) and once with the regions'
// heartbeats artificially aged so every guard fails (remote branches),
// mirroring the paper's "ran the plan with currency checking twice".

#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/event_stream.h"
#include "exec/executor.h"

namespace rcc {
namespace bench {

struct GuardQuery {
  const char* id;
  const char* description;
  std::string base_sql;        // without currency clause
  std::string relaxed_clause;  // clause making the local branch qualify
  int local_iters;
  int remote_iters;
};

inline std::vector<GuardQuery> PaperGuardQueries() {
  std::vector<GuardQuery> out;
  // Q1: single-row clustered-index lookup.
  out.push_back({"Q1", "point lookup (1 row)",
                 "SELECT c_custkey, c_name, c_acctbal FROM Customer C "
                 "WHERE C.c_custkey = 42",
                 " CURRENCY BOUND 10 MIN ON (C)", 200000, 10000});
  // Q2: one-customer nested-loop join (paper: 6 rows).
  out.push_back({"Q2", "1-customer join (~10 rows)",
                 "SELECT C.c_name, O.o_orderkey, O.o_totalprice "
                 "FROM Customer C, Orders O "
                 "WHERE C.c_custkey = 42 AND O.o_custkey = C.c_custkey",
                 " CURRENCY BOUND 10 MIN ON (C), 10 MIN ON (O)", 100000,
                 5000});
  // Q3: a scan query returning thousands of rows (paper: 5975 rows). The
  // range is wide enough that the local view scan beats the remote index,
  // so the dynamic plan keeps a local branch (the paper's Q3 used a full
  // table scan on both servers).
  out.push_back({"Q3", "45% range scan (~6800 rows)",
                 "SELECT c_custkey, c_acctbal FROM Customer C "
                 "WHERE C.c_acctbal > 5000",
                 " CURRENCY BOUND 10 MIN ON (C)", 1000, 100});
  return out;
}

struct PlanVariants {
  QueryPlan local_plain;   // matched view, no guard (traditional local)
  QueryPlan guarded;       // SwitchUnion plan (branch chosen by the guard)
  QueryPlan remote_plain;  // pure remote (traditional remote)
};

inline QueryPlan PrepareWith(RccSystem* sys, const std::string& sql,
                             bool view_matching, bool guards) {
  auto select = ParseSelect(sql);
  if (!select.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 select.status().ToString().c_str());
    std::exit(1);
  }
  OptimizerOptions opts = sys->cache()->default_options();
  opts.enable_view_matching = view_matching;
  opts.enable_currency_guards = guards;
  auto plan = sys->cache()->Prepare(**select, opts);
  if (!plan.ok()) {
    std::fprintf(stderr, "optimize failed for %s: %s\n", sql.c_str(),
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*plan);
}

inline PlanVariants MakeVariants(RccSystem* sys, const GuardQuery& q) {
  PlanVariants v;
  v.local_plain = PrepareWith(sys, q.base_sql + q.relaxed_clause, true, false);
  v.guarded = PrepareWith(sys, q.base_sql + q.relaxed_clause, true, true);
  v.remote_plain = PrepareWith(sys, q.base_sql, false, true);
  return v;
}

/// RAII helper: while alive, every region's local heartbeat is aged far into
/// the past so all currency guards fail and dynamic plans execute their
/// remote branches.
class ForcedStaleness {
 public:
  explicit ForcedStaleness(RccSystem* sys) : sys_(sys) {
    for (const RegionDef& def : sys->cache()->catalog().AllRegions()) {
      CurrencyRegion* region = sys->cache()->region(def.cid);
      saved_[def.cid] = region->local_heartbeat();
      region->set_local_heartbeat(-1000000000);
    }
  }
  ~ForcedStaleness() {
    for (const auto& [cid, hb] : saved_) {
      sys_->cache()->region(cid)->set_local_heartbeat(hb);
    }
  }

 private:
  RccSystem* sys_;
  std::map<RegionId, SimTimeMs> saved_;
};

/// Runs a prepared plan `iters` times through the executor (no result
/// post-processing, like an already-optimized server-side plan); returns the
/// average elapsed real time in ms. Phase stats accumulate into `total` when
/// non-null; the produced row count lands in `rows_out`.
inline double RunPlan(RccSystem* sys, const QueryPlan& plan, int iters,
                      ExecStats* total, int64_t* rows_out) {
  EventStream events;
  CacheDbms::Reader reader(sys->cache());
  ExecContext ctx;
  ctx.reader = &reader;
  ctx.clock = sys->clock();
  ctx.events = &events;
  // One warm-up execution (also captures the row count).
  {
    auto result = ExecutePlan(plan, &ctx);
    if (!result.ok()) {
      std::fprintf(stderr, "execution failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (rows_out != nullptr) {
      *rows_out = static_cast<int64_t>(result->rows.size());
    }
  }
  events.BeginExecution(nullptr, 0);  // drop the warm-up's stats
  // Split into chunks and keep the fastest: scheduler noise only ever adds
  // time, so the minimum is the most faithful per-execution estimate.
  constexpr int kChunks = 7;
  int chunk_iters = iters / kChunks + 1;
  double best = -1;
  for (int c = 0; c < kChunks; ++c) {
    double elapsed = TimeMs([&] {
      for (int i = 0; i < chunk_iters; ++i) {
        auto result = ExecutePlan(plan, &ctx);
        if (!result.ok()) std::exit(1);
      }
    });
    double per_iter = elapsed / chunk_iters;
    if (best < 0 || per_iter < best) best = per_iter;
  }
  if (total != nullptr) {
    const ExecStats& stats = events.stats();
    total->setup_ms += stats.setup_ms;
    total->run_ms += stats.run_ms;
    total->shutdown_ms += stats.shutdown_ms;
  }
  return best;
}

}  // namespace bench
}  // namespace rcc

#endif  // RCC_BENCH_GUARD_BENCH_COMMON_H_
