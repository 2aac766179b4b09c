#ifndef RCC_EXEC_SWITCH_UNION_H_
#define RCC_EXEC_SWITCH_UNION_H_

#include <memory>

#include "exec/currency_verdict.h"
#include "exec/exec_context.h"

namespace rcc {

/// The paper's SwitchUnion with a currency guard (§3.2.3): child 0 is the
/// local branch (guarded local view access), child 1 the remote branch. At
/// Open, the guard — equivalent to
///   EXISTS (SELECT 1 FROM Heartbeat_R WHERE TimeStamp > getdate() - B)
/// — probes the region's local heartbeat; if the local data is fresh enough
/// the local branch is opened, otherwise the remote branch. Only the chosen
/// branch is touched.
class SwitchUnionIterator : public RowIterator {
 public:
  SwitchUnionIterator(const PhysicalOp& op, ExecContext* ctx,
                      std::unique_ptr<RowIterator> local,
                      std::unique_ptr<RowIterator> remote)
      : op_(op),
        ctx_(ctx),
        local_(std::move(local)),
        remote_(std::move(remote)) {}

  Status Open(const EvalScope* outer) override;
  /// Next forwards to the chosen branch without re-probing: the currency
  /// decision is fixed at Open, and a local branch reads the snapshot the
  /// guard certified, frozen by ReadHandle::MarkServed — a later quarantine
  /// or delivery publishes a new snapshot this statement never sees, so
  /// certification cannot be withdrawn mid-drain.
  Result<bool> Next(Row* out) override { return chosen_->Next(out); }
  Status Close() override;
  const RowLayout& layout() const override { return op_.layout; }

  /// Evaluates the currency guard against the context (exposed for tests and
  /// for cost-model validation): true = local branch qualifies.
  static bool EvaluateGuard(const PhysicalOp& op, ExecContext* ctx);

 private:
  /// Remote branch failed at Open: per ctx->degrade, re-probe the guard and
  /// serve the local branch (flagged stale via ExecStats) or propagate
  /// `remote_error`. The timeline floor is enforced in every mode.
  Status DegradeToLocal(const EvalScope* outer, Status remote_error);

  /// Whether the degrade ladder may run at all: a mode other than NONE, a
  /// local branch, and no remote rows served yet by this execution (a
  /// branch switch mid-join would mix snapshots within one operand).
  bool DegradeAllowed() const {
    return ctx_->degrade != DegradeMode::kNone && local_ != nullptr &&
           !served_remote_;
  }

  /// Serves the local branch flagged degraded — after a remote failure, or
  /// pre-emptively under overload (`shed`: ctx->shed_hint with a verdict the
  /// degrade rule permits; guard semantics are never weakened) — from the
  /// snapshot the verdict `v` was judged on (publication `epoch`). Later
  /// re-opens stick to the local branch.
  Status ServeDegraded(const EvalScope* outer, const CurrencyVerdict& v,
                       uint64_t epoch, bool shed, const Status& remote_error);

  const PhysicalOp& op_;
  ExecContext* ctx_;
  std::unique_ptr<RowIterator> local_;
  std::unique_ptr<RowIterator> remote_;
  RowIterator* chosen_ = nullptr;
  /// Guard outcome, evaluated once per execution and cached across re-opens
  /// (inner side of nested-loop joins, EXISTS/IN subplans per outer row):
  /// all probes must read the same branch or one operand's rows could mix
  /// snapshots. -1 = not yet evaluated.
  int cached_decision_ = -1;
  /// True once the remote branch opened successfully; blocks a later
  /// degraded switch to the local branch (snapshot mixing).
  bool served_remote_ = false;
};

}  // namespace rcc

#endif  // RCC_EXEC_SWITCH_UNION_H_
