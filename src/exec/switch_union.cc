#include "exec/switch_union.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>

#include "common/strings.h"

namespace rcc {

namespace {

/// Reports a serving decision to the audit sink, attributing the operands
/// delivered by `branch` to `region` (kBackendRegion = remote fetch).
void RecordServe(ExecContext* ctx, const PhysicalOp& branch, RegionId region,
                 bool local, bool degraded,
                 std::optional<SimTimeMs> heartbeat, bool shed = false) {
  if (ctx->history == nullptr) return;
  ServeObservation obs;
  obs.query_id = ctx->history_query_id;
  obs.at = ctx->clock != nullptr ? ctx->clock->Now() : 0;
  obs.local = local;
  obs.degraded = degraded;
  obs.shed = shed;
  obs.region = region;
  obs.heartbeat_known = heartbeat.has_value();
  obs.heartbeat = heartbeat.value_or(-1);
  if (local && ctx->region_epoch) obs.epoch = ctx->region_epoch(region);
  for (InputOperandId oid : branch.delivered.AllOperands()) {
    obs.operands.push_back(oid);
  }
  ctx->history->OnServe(obs);
}

/// Judges the guard region's certified heartbeat on the query's pinned
/// snapshot. A context without a health hook counts the region as healthy.
CurrencyVerdict ProbeRegion(const PhysicalOp& op, const ExecContext* ctx) {
  RegionHealth health = ctx->region_health ? ctx->region_health(op.guard_region)
                                           : RegionHealth::kHealthy;
  return JudgeCurrency(ctx->local_heartbeat(op.guard_region), health,
                       ctx->clock->Now(), op.guard_bound_ms,
                       ctx->timeline_floor_ms);
}

/// Counts a probe that found no certified heartbeat, breaking out the ones
/// whose certification the replication pipeline withdrew.
void CountUncertified(ExecStats* stats, const CurrencyVerdict& v) {
  if (stats == nullptr || v.known) return;
  ++stats->guard_unknown_region;
  if (v.withdrawn) ++stats->guard_quarantined_region;
}

}  // namespace

bool SwitchUnionIterator::EvaluateGuard(const PhysicalOp& op,
                                        ExecContext* ctx) {
  // Heartbeat_R.TimeStamp > now - B  <=>  the region reflects a snapshot no
  // older than the currency bound. The heartbeat is one atomic acquire-load
  // (see CurrencyRegion::local_heartbeat), so concurrent delivery installs
  // can never be observed torn — the probe is race-free by construction.
  std::chrono::steady_clock::time_point t0;
  if (ctx->guard_probe_hist != nullptr) t0 = std::chrono::steady_clock::now();
  // Advance the query's pinned snapshot of the region to the current
  // published version so the probe judges the replica as it stands *now* —
  // a no-op once the query has served local rows from the region (served
  // data stays on its snapshot; see ExecContext::refresh_region).
  if (ctx->refresh_region) ctx->refresh_region(op.guard_region);
  // An unknown heartbeat (region undefined, never synced, or certification
  // withdrawn) never qualifies — explicitly, not via a fake "stale since
  // time 0" value. Health only explains why, in stats and trace.
  const CurrencyVerdict v = ProbeRegion(op, ctx);
  if (ctx->stats != nullptr) ++ctx->stats->guard_evaluations;
  CountUncertified(ctx->stats, v);
  const bool fresh_enough = v.Fresh();
  if (ctx->guard_probe_hist != nullptr) {
    ctx->guard_probe_hist->Observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  const SimTimeMs now = ctx->clock->Now();
  if (ctx->trace != nullptr) {
    std::string hb_str =
        v.known ? FormatSimTime(v.heartbeat) : std::string("unknown");
    std::string detail =
        StrPrintf("region=%d heartbeat=%s bound=%s floor=%s verdict=%s",
                  op.guard_region, hb_str.c_str(),
                  FormatSimTime(op.guard_bound_ms).c_str(),
                  FormatSimTime(ctx->timeline_floor_ms).c_str(),
                  fresh_enough ? "local" : "stale");
    if (ctx->region_health) {
      detail += StrPrintf(
          " health=%s",
          std::string(RegionHealthName(ctx->region_health(op.guard_region)))
              .c_str());
    }
    ctx->trace->Record(obs::TraceEventKind::kGuardProbe, now,
                       std::move(detail), op.guard_region);
  }
  if (ctx->history != nullptr) {
    GuardObservation gobs;
    gobs.query_id = ctx->history_query_id;
    gobs.region = op.guard_region;
    gobs.at = now;
    gobs.heartbeat_known = v.known;
    gobs.heartbeat = v.heartbeat;
    gobs.bound_ms = op.guard_bound_ms;
    gobs.floor_ms = ctx->timeline_floor_ms;
    gobs.verdict_local = fresh_enough;
    if (ctx->region_epoch) gobs.epoch = ctx->region_epoch(op.guard_region);
    ctx->history->OnGuardProbe(gobs);
  }
  return fresh_enough;
}

Status SwitchUnionIterator::Open(const EvalScope* outer) {
  if (cached_decision_ < 0) {
    bool local_ok = EvaluateGuard(op_, ctx_);
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
    if (ctx_->stats != nullptr) {
      if (local_ok) {
        // The local branch is the final serving branch: a local open failure
        // is a hard error, never a silent re-route.
        ++ctx_->stats->switch_local;
        // The guard passed, so the heartbeat is necessarily known.
        SimTimeMs hb = ctx_->local_heartbeat(op_.guard_region).value_or(0);
        if (hb > ctx_->stats->max_seen_heartbeat) {
          ctx_->stats->max_seen_heartbeat = hb;
        }
      } else {
        // Only an *attempt* so far — the remote branch may still fail and
        // degrade back to local; switch_remote is counted when the remote
        // branch actually opens and serves.
        ++ctx_->stats->switch_remote_attempted;
      }
    }
    if (ctx_->trace != nullptr) {
      ctx_->trace->Record(obs::TraceEventKind::kSwitchDecision,
                          ctx_->clock->Now(), local_ok ? "local" : "remote",
                          op_.guard_region);
    }
    if (local_ok) {
      // Freeze the pinned snapshot: from here on every probe and row of this
      // query reads the region at exactly this published version.
      if (ctx_->note_local_serve) ctx_->note_local_serve(op_.guard_region);
      RecordServe(ctx_, *op_.children[0], op_.guard_region,
                  /*local=*/true, /*degraded=*/false,
                  ctx_->local_heartbeat(op_.guard_region));
    } else if (ctx_->shed_hint && DegradeAllowed()) {
      // Overload shedding: under admission pressure, prefer the (permitted)
      // degraded-local branch over a remote round-trip. The guard probe that
      // routed us remote ran a moment ago on the same pinned snapshot, so no
      // refresh is needed. When the degrade rule says no, the statement
      // executes remote exactly as without the hint — shedding can only
      // re-order permitted branches, never manufacture a refusal or stretch
      // a bound.
      const CurrencyVerdict v = ProbeRegion(op_, ctx_);
      if (v.Permits(ctx_->degrade)) {
        return ServeDegraded(outer, v, /*shed=*/true, Status::OK());
      }
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
    if (ctx_->stats != nullptr) ++ctx_->stats->switch_remote;
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
  if (ctx_->stats != nullptr) {
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
  }
  if (ctx_->trace != nullptr) {
    std::string detail =
        StrPrintf("region=%d staleness=%s within_bound=%s", op_.guard_region,
                  FormatSimTime(v.staleness).c_str(),
                  v.within_bound ? "yes" : "no");
    if (!shed) detail += " remote_error=" + remote_error.ToString();
    ctx_->trace->Record(shed ? obs::TraceEventKind::kShedServe
                             : obs::TraceEventKind::kDegradedServe,
                        ctx_->clock->Now(), std::move(detail),
                        op_.guard_region);
  }
  if (ctx_->note_local_serve) ctx_->note_local_serve(op_.guard_region);
  RecordServe(ctx_, *op_.children[0], op_.guard_region,
              /*local=*/true, /*degraded=*/true, v.heartbeat, shed);
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
  if (ctx_->refresh_region) ctx_->refresh_region(op_.guard_region);
  const CurrencyVerdict v = ProbeRegion(op_, ctx_);
  if (ctx_->stats != nullptr) ++ctx_->stats->guard_evaluations;
  CountUncertified(ctx_->stats, v);
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
        std::string(RegionHealthName(ctx_->region_health(op_.guard_region))) +
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

Status SwitchUnionIterator::CheckCertificationHeld() {
  if (chosen_ != local_.get() || !ctx_->local_heartbeat) return Status::OK();
  if (ctx_->local_heartbeat(op_.guard_region).has_value()) return Status::OK();
  CountUncertified(ctx_->stats, ProbeRegion(op_, ctx_));
  return Status::Unavailable(
      "region " + std::to_string(op_.guard_region) +
      " withdrew its heartbeat certification while the local branch was "
      "being drained (quarantine/resync)");
}

Result<bool> SwitchUnionIterator::Next(Row* out) {
  RCC_RETURN_NOT_OK(CheckCertificationHeld());
  return chosen_->Next(out);
}

Result<bool> SwitchUnionIterator::NextBatch(RowBatch* out, size_t max_rows) {
  // One probe per batch instead of per row — the whole point of the batch
  // protocol for guarded plans.
  RCC_RETURN_NOT_OK(CheckCertificationHeld());
  return chosen_->NextBatch(out, max_rows);
}

Status SwitchUnionIterator::Close() {
  if (chosen_ == nullptr) return Status::OK();
  Status st = chosen_->Close();
  chosen_ = nullptr;
  return st;
}

}  // namespace rcc
