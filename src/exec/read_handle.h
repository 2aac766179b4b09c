#ifndef RCC_EXEC_READ_HANDLE_H_
#define RCC_EXEC_READ_HANDLE_H_

#include "exec/exec_context.h"

namespace rcc {

struct RegionSnapshot;

/// What a running plan reads through: one handle per statement execution.
/// The cache's handle (CacheDbms::Reader) reads every region through one
/// SnapshotPin, so the guard probe, every scan and the audit epoch of a
/// region all see one published version (paper §2.2: one snapshot per
/// consistency class). The region and remote operations default to "no
/// regions, no back-end link", which is all the back-end's own handle needs.
/// Not copyable: an ExecContext holds the handle's address.
class ReadHandle {
 public:
  ReadHandle() = default;
  ReadHandle(const ReadHandle&) = delete;
  ReadHandle& operator=(const ReadHandle&) = delete;
  virtual ~ReadHandle() = default;

  /// The storage behind a scan target; nullptr when unknown.
  virtual const Table* ScanTable(const ScanTarget& target) = 0;

  /// The snapshot of `region` this statement reads, pinned on first use:
  /// its certified heartbeat is the currency-guard input (paper §3.2.3),
  /// and it also carries the region's health, epoch and as_of. nullptr =
  /// unknown region, which guards treat as "cannot certify freshness".
  virtual const RegionSnapshot* Snapshot(RegionId /*region*/) {
    return nullptr;
  }

  /// Re-reads the region's current published snapshot (guard probes and
  /// degrade re-probes), unless this statement already served local rows
  /// from it: served data stays on its snapshot.
  virtual void RefreshUnlessServed(RegionId /*region*/) {}

  /// Marks the region's snapshot as served-from, freezing
  /// RefreshUnlessServed for it.
  virtual void MarkServed(RegionId /*region*/) {}

  /// Ships `call` to the back-end under `ctx.deadline`, recording link
  /// events into `ctx.events`.
  virtual Result<ExecutedQuery> ExecuteRemote(const BackendCall& /*call*/,
                                              const ExecContext& /*ctx*/) {
    return Status::Internal("no remote executor configured");
  }
};

}  // namespace rcc

#endif  // RCC_EXEC_READ_HANDLE_H_
