#include "exec/switch_union.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/strings.h"
#include "exec/read_handle.h"
#include "replication/region.h"

namespace rcc {

namespace {

RegionHealth HealthOf(const RegionSnapshot* snap) {
  return snap != nullptr ? snap->health : RegionHealth::kHealthy;
}

/// Judges the guard region's certified heartbeat on the statement's pinned
/// snapshot, after moving that snapshot to the current published version —
/// a no-op once the statement has served local rows from the region (served
/// data stays on its snapshot; see ReadHandle::RefreshUnlessServed). An
/// unknown heartbeat (region undefined, never synced, or certification
/// withdrawn) never qualifies — explicitly, not via a fake "stale since time
/// 0" value. Health only explains why, in stats and trace.
CurrencyVerdict Reprobe(const PhysicalOp& op, ExecContext* ctx) {
  ctx->reader->RefreshUnlessServed(op.guard_region);
  const RegionSnapshot* snap = ctx->reader->Snapshot(op.guard_region);
  const CurrencyVerdict v = JudgeCurrency(
      snap != nullptr ? snap->certified_heartbeat() : std::nullopt,
      HealthOf(snap), ctx->clock->Now(), op.guard_bound_ms,
      ctx->timeline_floor_ms);
  ++ctx->stats->guard_evaluations;
  if (!v.known) {
    ++ctx->stats->guard_unknown_region;
    if (v.withdrawn) ++ctx->stats->guard_quarantined_region;
  }
  return v;
}

std::string GuardProbeDetail(const GuardObservation& probe) {
  return StrPrintf(
      "region=%d heartbeat=%s bound=%s floor=%s verdict=%s health=%s",
      probe.region,
      probe.heartbeat_known ? FormatSimTime(probe.heartbeat).c_str()
                            : "unknown",
      FormatSimTime(probe.bound_ms).c_str(),
      FormatSimTime(probe.floor_ms).c_str(),
      probe.verdict_local ? "local" : "stale",
      std::string(RegionHealthName(probe.health)).c_str());
}

/// The guard probe proper: Reprobe, reported once as a GuardObservation to
/// the trace (rendered) and the audit sink.
CurrencyVerdict ProbeGuard(const PhysicalOp& op, ExecContext* ctx) {
  // Heartbeat_R.TimeStamp > now - B  <=>  the region reflects a snapshot no
  // older than the currency bound. The snapshot is immutable once published,
  // so concurrent delivery installs can never be observed torn — the probe
  // is race-free by construction.
  const CurrencyVerdict v = Reprobe(op, ctx);
  if (ctx->trace == nullptr && ctx->history == nullptr) return v;
  const RegionSnapshot* snap = ctx->reader->Snapshot(op.guard_region);
  GuardObservation probe;
  probe.query_id = ctx->history_query_id;
  probe.region = op.guard_region;
  probe.at = ctx->clock->Now();
  probe.heartbeat_known = v.known;
  probe.heartbeat = v.heartbeat;
  probe.bound_ms = op.guard_bound_ms;
  probe.floor_ms = ctx->timeline_floor_ms;
  probe.verdict_local = v.Fresh();
  probe.health = HealthOf(snap);
  probe.epoch = snap != nullptr ? snap->epoch : 0;
  if (ctx->trace != nullptr) {
    ctx->trace->Record(obs::TraceEventKind::kGuardProbe, probe.at,
                       GuardProbeDetail(probe), probe.region);
  }
  if (ctx->history != nullptr) ctx->history->OnGuardProbe(probe);
  return v;
}

/// The audit record of a local serve by `branch` from `region`'s pinned
/// snapshot. Operands are listed only when an audit sink will read them.
ServeObservation LocalServe(const ExecContext& ctx, const PhysicalOp& branch,
                            RegionId region, SimTimeMs heartbeat) {
  ServeObservation serve;
  serve.query_id = ctx.history_query_id;
  serve.at = ctx.clock->Now();
  serve.local = true;
  serve.region = region;
  serve.heartbeat_known = true;
  serve.heartbeat = heartbeat;
  const RegionSnapshot* snap = ctx.reader->Snapshot(region);
  serve.epoch = snap != nullptr ? snap->epoch : 0;
  if (ctx.history != nullptr) {
    for (InputOperandId oid : branch.delivered.AllOperands()) {
      serve.operands.push_back(oid);
    }
  }
  return serve;
}

std::string DegradedServeDetail(const ServeObservation& serve,
                                const CurrencyVerdict& v,
                                const Status& remote_error) {
  std::string detail =
      StrPrintf("region=%d staleness=%s within_bound=%s", serve.region,
                FormatSimTime(v.staleness).c_str(),
                v.within_bound ? "yes" : "no");
  if (!serve.shed) detail += " remote_error=" + remote_error.ToString();
  return detail;
}

}  // namespace

bool SwitchUnionIterator::EvaluateGuard(const PhysicalOp& op,
                                        ExecContext* ctx) {
  return ProbeGuard(op, ctx).Fresh();
}

Status SwitchUnionIterator::Open(const EvalScope* outer) {
  if (cached_decision_ < 0) {
    const CurrencyVerdict v = ProbeGuard(op_, ctx_);
    const bool local_ok = v.Fresh();
    if (!local_ok && !op_.remote_fallback_allowed) {
      // Replica-only mode: report instead of silently serving stale data or
      // forwarding to the back-end (paper §1, "return the data but with an
      // error code" / "abort the request").
      return Status::Unavailable(
          "local replica of region " + std::to_string(op_.guard_region) +
          " is staler than the currency bound and remote fallback is "
          "disabled");
    }
    cached_decision_ = local_ok ? 1 : 0;
    if (local_ok) {
      // The local branch is the final serving branch: a local open failure
      // is a hard error, never a silent re-route.
      ++ctx_->stats->switch_local;
      ctx_->stats->max_seen_heartbeat =
          std::max(ctx_->stats->max_seen_heartbeat, v.heartbeat);
    } else {
      // Only an *attempt* so far — the remote branch may still fail and
      // degrade back to local; switch_remote is counted when the remote
      // branch actually opens and serves.
      ++ctx_->stats->switch_remote_attempted;
    }
    if (ctx_->trace != nullptr) {
      ctx_->trace->Record(obs::TraceEventKind::kSwitchDecision,
                          ctx_->clock->Now(), local_ok ? "local" : "remote",
                          op_.guard_region);
    }
    if (local_ok) {
      // Freeze the pinned snapshot: from here on every probe and row of this
      // query reads the region at exactly this published version.
      ctx_->reader->MarkServed(op_.guard_region);
      if (ctx_->history != nullptr) {
        ctx_->history->OnServe(
            LocalServe(*ctx_, *op_.children[0], op_.guard_region, v.heartbeat));
      }
    } else if (ctx_->shed_hint && DegradeAllowed() &&
               v.Permits(ctx_->degrade)) {
      // Overload shedding: under admission pressure, prefer the (permitted)
      // degraded-local branch over a remote round-trip, judged by the probe
      // that just routed us remote. When the degrade rule says no, the
      // statement executes remote exactly as without the hint — shedding can
      // only re-order permitted branches, never manufacture a refusal or
      // stretch a bound.
      return ServeDegraded(outer, v, /*shed=*/true, Status::OK());
    }
  }
  chosen_ = cached_decision_ == 1 ? local_.get() : remote_.get();
  Status st = chosen_->Open(outer);
  if (!st.ok() && chosen_ == remote_.get()) {
    return DegradeToLocal(outer, std::move(st));
  }
  if (st.ok() && chosen_ == remote_.get() && !served_remote_) {
    served_remote_ = true;
    // Now the remote branch truly serves this execution; count it once, not
    // per re-open (inner side of a nested-loop join re-opens the iterator).
    ++ctx_->stats->switch_remote;
  }
  return st;
}

Status SwitchUnionIterator::ServeDegraded(const EvalScope* outer,
                                          const CurrencyVerdict& v, bool shed,
                                          const Status& remote_error) {
  // Serve the local view, flagged stale (the paper's "return the data but
  // with an error code"). Later re-opens (inner side of nested-loop joins)
  // must stick to the local branch so all probes read one snapshot.
  cached_decision_ = 1;
  ++ctx_->stats->degraded_serves;
  if (shed) ++ctx_->stats->shed_serves;
  // The query was directed at the remote branch (switch_remote_attempted)
  // but is finally served by the local one; record the serving branch
  // truthfully instead of leaving it counted as a remote switch.
  ++ctx_->stats->switch_local;
  ctx_->stats->degraded_staleness_ms =
      std::max(ctx_->stats->degraded_staleness_ms, v.staleness);
  ctx_->stats->max_seen_heartbeat =
      std::max(ctx_->stats->max_seen_heartbeat, v.heartbeat);
  ctx_->reader->MarkServed(op_.guard_region);
  if (ctx_->trace != nullptr || ctx_->history != nullptr) {
    ServeObservation serve =
        LocalServe(*ctx_, *op_.children[0], op_.guard_region, v.heartbeat);
    serve.degraded = true;
    serve.shed = shed;
    if (ctx_->trace != nullptr) {
      ctx_->trace->Record(shed ? obs::TraceEventKind::kShedServe
                               : obs::TraceEventKind::kDegradedServe,
                          serve.at, DegradedServeDetail(serve, v, remote_error),
                          serve.region);
    }
    if (ctx_->history != nullptr) ctx_->history->OnServe(serve);
  }
  chosen_ = local_.get();
  return chosen_->Open(outer);
}

Status SwitchUnionIterator::DegradeToLocal(const EvalScope* outer,
                                           Status remote_error) {
  if (!DegradeAllowed()) return remote_error;
  // Re-probe the guard: the retry policy may have waited through a
  // replication delivery, so the local view can be fresher than at the first
  // probe (possibly even within the bound again). Re-pin to the current
  // published snapshot first so the re-probe and the rows it certifies are
  // one version.
  const CurrencyVerdict v = Reprobe(op_, ctx_);
  if (v.Permits(ctx_->degrade)) {
    return ServeDegraded(outer, v, /*shed=*/false, remote_error);
  }
  const std::string region = std::to_string(op_.guard_region);
  const std::string cause =
      "; remote branch failed with: " + remote_error.ToString();
  if (!v.known && v.withdrawn) {
    // Quarantined/resyncing: the replication pipeline withdrew the
    // heartbeat, so even SET DEGRADE ALWAYS refuses — the replica may be
    // mid-rebuild and its staleness bound is unknowable.
    return Status::Unavailable(
        "cannot degrade: region " + region + " is " +
        std::string(RegionHealthName(
            HealthOf(ctx_->reader->Snapshot(op_.guard_region)))) +
        " (replication pipeline invalidated its heartbeat)" + cause);
  }
  if (!v.known) {
    // No local heartbeat was ever installed: the replica's staleness is
    // unknown, so there is nothing safe to degrade to in any mode.
    return Status::Unavailable(
        "cannot degrade: region " + region +
        " has no local heartbeat (never synced), staleness unknown" + cause);
  }
  if (v.below_floor) {
    // The timeline-consistency floor is never relaxed, not even in kAlways
    // mode: serving data older than what the session already saw would
    // break the §2.3 contract outright rather than merely stretch a bound.
    return Status::ConstraintViolation(
        "cannot degrade: local replica of region " + region + " (heartbeat " +
        FormatSimTime(v.heartbeat) + ") is older than the session timeline " +
        "floor " + FormatSimTime(ctx_->timeline_floor_ms) + cause);
  }
  // kBounded past the bound.
  return Status::Unavailable(
      "cannot degrade within bound: local replica of region " + region +
      " is " + FormatSimTime(v.staleness) + " stale, bound is " +
      FormatSimTime(op_.guard_bound_ms) + cause);
}

Status SwitchUnionIterator::Close() {
  if (chosen_ == nullptr) return Status::OK();
  Status st = chosen_->Close();
  chosen_ = nullptr;
  return st;
}

}  // namespace rcc
