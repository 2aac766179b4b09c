#include "traced_run.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/statement_router.h"
#include "host.h"
#include "optimizer/optimizer.h"
#include "plan/plan_cache.h"
#include "semantics/resolver.h"
#include "server/wire.h"

namespace perfbench {

namespace {

/// Rows per kRows frame, as the server encodes them.
constexpr size_t kRowsPerFrame = 256;

/// In-memory span store. A span's self time is its duration minus the part
/// its children cover.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t request;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  int Open(const char* name, int64_t request, int parent) {
    spans_.push_back(Span{name, request, parent, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id`; returns its duration in µs.
  double Close(int id) {
    spans_[id].end_ns = NowNs();
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) / 1e3;
  }
  void Rename(int id, const char* name) { spans_[id].name = name; }

  /// Self times in µs, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name].push_back(
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e3);
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"request\":%lld,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.parent, static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// What the server does to an answer (encode rows and status) plus what the
/// client does with it (decode rows).
void WireCodec(const rcc::QueryResult& r) {
  std::vector<rcc::Row> decoded;
  for (size_t i = 0; i < r.rows.size(); i += kRowsPerFrame) {
    size_t end = std::min(r.rows.size(), i + kRowsPerFrame);
    std::string payload = rcc::server::EncodeRowsPayload(r.rows, i, end);
    rcc::Status st = rcc::server::DecodeRowsPayload(payload, &decoded);
    (void)st;
  }
  rcc::server::StatusFramePayload status;
  status.message = r.message;
  status.degraded = r.degraded;
  status.staleness_ms = r.staleness_ms;
  status.rows_affected = r.rows_affected;
  status.executed_at = r.executed_at;
  std::string payload = rcc::server::EncodeStatusPayload(status);
  (void)payload;
}

}  // namespace

rcc::Result<TracedResult> RunTraced(Workload w, uint64_t seed,
                                    double wire_read_p50_us,
                                    const std::string& spans_out) {
  auto created = Deployment::Create(w, nullptr);
  if (!created.ok()) return created.status();
  std::unique_ptr<Deployment> owned = std::move(created).value();
  Deployment* deployment = owned.get();
  const std::vector<std::vector<Statement>> streams =
      deployment->MakeStreams(seed);
  Replay replay(deployment, &streams);
  RCC_RETURN_NOT_OK(replay.Warmup());
  const WorkloadParams params = ParamsFor(w);
  const bool fleet = deployment->router() != nullptr;
  rcc::RccSystem* sys = deployment->system();
  rcc::CacheDbms* cache = sys->cache();
  rcc::PlanCache& plan_cache = cache->plan_cache();
  rcc::obs::MetricsRegistry& metrics = sys->metrics();
  rcc::obs::Counter* deliveries = metrics.counter("rcc.replication.deliveries");
  rcc::obs::Counter* backend_serves =
      metrics.counter("rcc.fleet.backend_serves");

  SpanLog log;
  TracedResult out;
  // Session::Execute of SELECTs with spans on / off, per stratum.
  std::map<int, std::vector<double>> select_on_us, select_off_us;
  std::vector<double> unattributed_us;  // core.select minus its layer spans
  std::vector<double> scan_ns_per_row;
  // Local executions with the metrics registry attached minus detached,
  // one pair per local-served statement.
  std::vector<double> metrics_cost_us;
  rcc::obs::MetricsRegistry* registry = cache->metrics_registry();
  int64_t selects = 0, hits = 0, misses = 0, guard_evals = 0, backend_tier = 0;
  int64_t steps = 0, delivered = 0;

  for (int n = 0; n < params.replay_statements; ++n) {
    const int64_t i = replay.position();
    const Statement& st = replay.statement();
    rcc::Session* session = replay.session();
    // Four of every five positions of each stream run with spans on, the
    // fifth with spans off; the difference in Session::Execute time is the
    // tracing overhead. (The period 5 is co-prime with the workloads'
    // statement patterns, so every kind lands on both sides.)
    const bool traced = (i / kConnections) % 5 != 0;
    const int64_t hits0 = plan_cache.hits(), misses0 = plan_cache.misses();
    const int64_t backend0 = backend_serves->value();

    int req = traced ? log.Open("request", i, -1) : -1;
    int core = traced ? log.Open(st.is_select() ? "core.select" : "core.update",
                                 i, req)
                      : -1;
    int64_t t0 = NowNs();
    rcc::Result<rcc::QueryResult> r = session->Execute(st.sql);
    double core_us = static_cast<double>(NowNs() - t0) / 1e3;
    if (traced) core_us = log.Close(core);
    out.counts.Record(CheckAnswer(st, r));
    const bool missed = plan_cache.misses() > misses0;
    if (st.is_select()) {
      ++selects;
      hits += plan_cache.hits() - hits0;
      misses += plan_cache.misses() - misses0;
      backend_tier += backend_serves->value() - backend0;
      if (r.ok()) {
        guard_evals += r->stats.guard_evaluations;
        // Stratified by statement kind and serving branch, whose costs
        // differ several-fold; compared stratum by stratum.
        const int stratum = static_cast<int>(st.kind) * 2 +
                            (r->stats.switch_local > 0 ? 1 : 0);
        (traced ? select_on_us : select_off_us)[stratum].push_back(core_us);
      }
    }

    if (traced && st.is_select() && r.ok()) {
      double layers_us = 0;
      if (fleet) {
        int s = log.Open("sql.parse", i, req);
        auto stmt = rcc::ParseSelect(st.sql);
        layers_us += log.Close(s);
        if (!stmt.ok()) return stmt.status();
        const rcc::Catalog& catalog = cache->catalog();
        s = log.Open("semantics.resolve", i, req);
        auto resolved = rcc::ResolveQuery(**stmt, catalog);
        log.Close(s);
        if (!resolved.ok()) return resolved.status();
        s = log.Open("optimizer.optimize", i, req);
        auto plan = rcc::Optimize(std::move(resolved).value(), catalog,
                                  cache->default_options());
        log.Close(s);
        if (!plan.ok()) return plan.status();
        s = log.Open("fleet.route", i, req);
        auto routed = deployment->router()->RouteSelect(**stmt, {});
        layers_us += log.Close(s);
        if (!routed.ok()) return routed.status();
      } else {
        int s = log.Open("plan.lookup", i, req);
        rcc::PlanCache::LookupResult looked =
            plan_cache.Lookup(st.sql, rcc::DegradeMode::kNone, false);
        layers_us += log.Close(s);
        if (missed) {
          // Session::Execute missed the plan cache: it ran the front end.
          rcc::ParseOptions popts;
          popts.record_literal_offsets = true;
          s = log.Open("sql.parse", i, req);
          auto stmt = rcc::ParseSelect(st.sql, popts);
          layers_us += log.Close(s);
          if (!stmt.ok()) return stmt.status();
          s = log.Open("semantics.resolve", i, req);
          auto resolved = rcc::ResolveQuery(**stmt, cache->catalog());
          layers_us += log.Close(s);
          if (!resolved.ok()) return resolved.status();
          s = log.Open("optimizer.optimize", i, req);
          auto plan = rcc::Optimize(std::move(resolved).value(),
                                    cache->catalog(), cache->default_options());
          layers_us += log.Close(s);
          if (!plan.ok()) return plan.status();
        }
        if (looked.hit.has_value()) {
          const rcc::QueryPlan& plan = *looked.hit->entry->plan;
          rcc::CacheDbms::PreparedExecOptions eo;
          eo.degrade = looked.hit->entry->created_degrade;
          eo.params = &looked.hit->params;
          s = log.Open("exec.local", i, req);
          auto executed = cache->ExecutePrepared(plan, eo);
          layers_us += log.Close(s);
          if (!executed.ok()) return executed.status();
          const bool local = executed->stats.switch_local > 0;
          if (!local) log.Rename(s, "exec.remote");
          if (local) {
            // Same plan, same instant, registry off then on (the order
            // alternates so neither side always runs cache-warm).
            double pair_us[2] = {0, 0};
            for (int k = 0; k < 2; ++k) {
              const bool attach = (k == 0) == (i % 2 == 0);
              cache->SetMetricsRegistry(attach ? registry : nullptr);
              int64_t t0 = NowNs();
              auto again = cache->ExecutePrepared(plan, eo);
              pair_us[attach ? 1 : 0] =
                  static_cast<double>(NowNs() - t0) / 1e3;
              if (!again.ok()) {
                cache->SetMetricsRegistry(registry);
                return again.status();
              }
            }
            cache->SetMetricsRegistry(registry);
            metrics_cost_us.push_back(pair_us[1] - pair_us[0]);
          }

          s = log.Open("obs.describe", i, req);
          std::string text = plan.DescribeTree();
          log.Close(s);

          if (!local) {
            auto stmt = rcc::ParseSelect(st.sql);
            if (!stmt.ok()) return stmt.status();
            s = log.Open("backend.query", i, req);
            auto fetched = sys->backend()->ExecuteQuery(**stmt);
            log.Close(s);
            if (!fetched.ok()) return fetched.status();
          }
          if (st.kind == StmtKind::kOrdersRange) {
            auto view = cache->view("orders_prj");
            if (view != nullptr) {
              rcc::TableKey lo{rcc::Value::Int(st.key)};
              rcc::TableKey hi{rcc::Value::Int(st.last)};
              int64_t rows = 0;
              int64_t s0 = NowNs();
              view->data().RangeScan(&lo, &hi, [&rows](const rcc::Row&) {
                ++rows;
                return true;
              });
              int64_t ns = NowNs() - s0;
              if (rows > 0) {
                scan_ns_per_row.push_back(static_cast<double>(ns) /
                                          static_cast<double>(rows));
              }
            }
          }
        }
      }
      unattributed_us.push_back(core_us - layers_us);
      int s = log.Open("server.codec", i, req);
      WireCodec(*r);
      log.Close(s);
    }
    if (traced) log.Close(req);

    if (replay.Done()) {
      const int64_t d0 = deliveries->value();
      int s = log.Open("replication.step", -1 - i, -1);
      replay.StepClock();
      log.Close(s);
      ++steps;
      delivered += deliveries->value() - d0;
    }
  }

  std::map<std::string, std::vector<double>> self = log.SelfTimesUs();
  auto med = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  double overhead_sum = 0;
  size_t overhead_n = 0;
  for (const auto& [stratum, on] : select_on_us) {
    auto off = select_off_us.find(stratum);
    if (off == select_off_us.end()) continue;
    overhead_sum += static_cast<double>(on.size()) *
                    (Median(on) - Median(off->second));
    overhead_n += on.size();
  }
  const double core_select = med("core.select");
  out.metrics = {
      {"server.overhead_us", "us", wire_read_p50_us - core_select},
      {"server.codec_us", "us", med("server.codec")},
      {"core.select_us", "us", core_select},
      {"core.update_us", "us", med("core.update")},
      {"core.unattributed_us", "us", Median(unattributed_us)},
      {"plan.lookup_us", "us", med("plan.lookup")},
      {"plan.hit_pct", "%", 100.0 * ratio(hits, hits + misses)},
      {"sql.parse_us", "us", med("sql.parse")},
      {"semantics.resolve_us", "us", med("semantics.resolve")},
      {"optimizer.optimize_us", "us", med("optimizer.optimize")},
      {"fleet.route_us", "us", med("fleet.route")},
      {"fleet.backend_tier_pct", "%",
       fleet ? 100.0 * ratio(backend_tier, selects) : 0.0},
      {"exec.local_us", "us", med("exec.local")},
      {"exec.remote_us", "us", med("exec.remote")},
      {"exec.guard_evals_per_read", "count", ratio(guard_evals, selects)},
      {"obs.describe_us", "us", med("obs.describe")},
      {"obs.metrics_us", "us", Median(metrics_cost_us)},
      {"backend.query_us", "us", med("backend.query")},
      {"replication.step_ms", "ms", med("replication.step") / 1e3},
      {"replication.deliveries_per_step", "count", ratio(delivered, steps)},
      {"storage.scan_ns_per_row", "ns", Median(scan_ns_per_row)},
      {"trace.overhead_us", "us",
       overhead_n > 0 ? overhead_sum / static_cast<double>(overhead_n) : 0.0},
  };

  out.spans = log.size();
  out.selects = selects;
  if (!spans_out.empty() && !log.Write(spans_out)) {
    return rcc::Status::Internal("cannot write spans to " + spans_out);
  }
  return out;
}

}  // namespace perfbench
