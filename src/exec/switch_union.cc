#include "exec/switch_union.h"

#include <optional>
#include <string>

#include "common/strings.h"
#include "exec/event_stream.h"
#include "exec/read_handle.h"
#include "replication/region.h"

namespace rcc {

namespace {

/// The guard probe: judges the guard region's certified heartbeat on the
/// statement's pinned snapshot, after moving that snapshot to the current
/// published version — a no-op once the statement has served local rows
/// from the region (served data stays on its snapshot; see
/// ReadHandle::RefreshUnlessServed). Heartbeat_R.TimeStamp > now - B <=>
/// the region reflects a snapshot no older than the currency bound. The
/// snapshot is immutable once published, so a concurrent delivery can never
/// be observed torn. An unknown heartbeat (region undefined, never synced,
/// or certification withdrawn) never qualifies — explicitly, not via a fake
/// "stale since time 0" value; health only explains why. `reprobe` is the
/// degrade ladder's re-probe, counted but not reported. `*epoch`, when
/// given, receives the probed snapshot's publication epoch (0 = none).
CurrencyVerdict Probe(const PhysicalOp& op, ExecContext* ctx, bool reprobe,
                      uint64_t* epoch = nullptr) {
  ctx->reader->RefreshUnlessServed(op.guard_region);
  const RegionSnapshot* snap = ctx->reader->Snapshot(op.guard_region);
  const RegionHealth health =
      snap != nullptr ? snap->health : RegionHealth::kHealthy;
  const SimTimeMs now = ctx->clock->Now();
  const CurrencyVerdict v = JudgeCurrency(
      snap != nullptr ? snap->certified_heartbeat() : std::nullopt, health,
      now, op.guard_bound_ms, ctx->timeline_floor_ms);
  ctx->events->Record(GuardRecord{
      .probe = {.region = op.guard_region,
                .at = now,
                .heartbeat_known = v.known,
                .heartbeat = v.heartbeat,
                .bound_ms = op.guard_bound_ms,
                .floor_ms = ctx->timeline_floor_ms,
                .verdict_local = v.Fresh(),
                .health = health,
                .epoch = snap != nullptr ? snap->epoch : 0},
      .reprobe = reprobe});
  if (epoch != nullptr) *epoch = snap != nullptr ? snap->epoch : 0;
  return v;
}

/// A local serve by `sw`'s local branch, from the guard region's pinned
/// snapshot (publication `epoch`), under verdict `v`.
ServeRecord LocalServe(const ExecContext& ctx, const PhysicalOp& sw,
                       const CurrencyVerdict& v, uint64_t epoch) {
  return ServeRecord{.serve = {.at = ctx.clock->Now(),
                               .local = true,
                               .region = sw.guard_region,
                               .heartbeat_known = true,
                               .heartbeat = v.heartbeat,
                               .epoch = epoch},
                     .op = sw.children[0].get(),
                     .verdict = v};
}

}  // namespace

bool SwitchUnionIterator::EvaluateGuard(const PhysicalOp& op,
                                        ExecContext* ctx) {
  return Probe(op, ctx, /*reprobe=*/false).Fresh();
}

Status SwitchUnionIterator::Open(const EvalScope* outer) {
  if (cached_decision_ < 0) {
    uint64_t epoch = 0;
    const CurrencyVerdict v = Probe(op_, ctx_, /*reprobe=*/false, &epoch);
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
    // A remote decision is only an attempt so far: the remote branch may
    // still fail and degrade back to local.
    ctx_->events->Record(SwitchRecord{
        ctx_->clock->Now(), op_.guard_region,
        local_ok ? SwitchRecord::Branch::kLocal
                 : SwitchRecord::Branch::kRemote});
    if (local_ok) {
      // The local branch is the final serving branch: a local open failure
      // is a hard error, never a silent re-route. Freeze the pinned
      // snapshot: from here on every probe and row of this query reads the
      // region at exactly this published version.
      ctx_->reader->MarkServed(op_.guard_region);
      ctx_->events->Record(LocalServe(*ctx_, op_, v, epoch));
    } else if (ctx_->shed_hint && DegradeAllowed() &&
               v.Permits(ctx_->degrade)) {
      // Overload shedding: under admission pressure, prefer the (permitted)
      // degraded-local branch over a remote round-trip, judged by the probe
      // that just routed us remote. When the degrade rule says no, the
      // statement executes remote exactly as without the hint — shedding can
      // only re-order permitted branches, never manufacture a refusal or
      // stretch a bound.
      return ServeDegraded(outer, v, epoch, /*shed=*/true, Status::OK());
    }
  }
  chosen_ = cached_decision_ == 1 ? local_.get() : remote_.get();
  Status st = chosen_->Open(outer);
  if (!st.ok() && chosen_ == remote_.get()) {
    return DegradeToLocal(outer, std::move(st));
  }
  if (st.ok() && chosen_ == remote_.get() && !served_remote_) {
    served_remote_ = true;
    // Now the remote branch truly serves this execution; record it once,
    // not per re-open (inner side of a nested-loop join re-opens it).
    ctx_->events->Record(SwitchRecord{ctx_->clock->Now(), op_.guard_region,
                                      SwitchRecord::Branch::kRemoteServed});
  }
  return st;
}

Status SwitchUnionIterator::ServeDegraded(const EvalScope* outer,
                                          const CurrencyVerdict& v,
                                          uint64_t epoch, bool shed,
                                          const Status& remote_error) {
  // Serve the local view, flagged stale (the paper's "return the data but
  // with an error code"). Later re-opens (inner side of nested-loop joins)
  // must stick to the local branch so all probes read one snapshot.
  cached_decision_ = 1;
  ctx_->reader->MarkServed(op_.guard_region);
  // Directed at the remote branch but served by the local one: the record
  // counts it where the rows came from.
  ServeRecord record = LocalServe(*ctx_, op_, v, epoch);
  record.serve.degraded = true;
  record.serve.shed = shed;
  record.remote_error = &remote_error;
  ctx_->events->Record(record);
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
  uint64_t epoch = 0;
  const CurrencyVerdict v = Probe(op_, ctx_, /*reprobe=*/true, &epoch);
  if (v.Permits(ctx_->degrade)) {
    return ServeDegraded(outer, v, epoch, /*shed=*/false, remote_error);
  }
  const std::string region = std::to_string(op_.guard_region);
  const std::string cause =
      "; remote branch failed with: " + remote_error.ToString();
  if (!v.known && v.withdrawn) {
    // Quarantined/resyncing (so the region has a snapshot): the replication
    // pipeline withdrew the heartbeat, so even SET DEGRADE ALWAYS refuses —
    // the replica may be mid-rebuild and its staleness bound is unknowable.
    return Status::Unavailable(
        "cannot degrade: region " + region + " is " +
        std::string(RegionHealthName(
            ctx_->reader->Snapshot(op_.guard_region)->health)) +
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
