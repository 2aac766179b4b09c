#ifndef RCC_EXEC_CURRENCY_VERDICT_H_
#define RCC_EXEC_CURRENCY_VERDICT_H_

#include <optional>

#include "exec/exec_context.h"

namespace rcc {

/// What a region's certified heartbeat says against one currency guard. The
/// paper's guard is `Heartbeat_R.TimeStamp > getdate() - B` (§3.2.3); the
/// session timeline floor (§2.3) adds a lower limit on the heartbeat, and
/// SET DEGRADE relaxes the bound. Every site that decides whether local data
/// may serve — the SwitchUnion guard, its degrade and shed ladders, and the
/// fleet router's probes — judges through JudgeCurrency and keeps only its
/// own decision. The conformance oracle (src/sim/) re-derives the rule
/// independently on purpose and must not use this.
struct CurrencyVerdict {
  /// A certified heartbeat was supplied.
  bool known = false;
  /// The region's pipeline withdrew certification (quarantined or
  /// resyncing). The certified heartbeat is then absent, so this says why
  /// `known` is false.
  bool withdrawn = false;
  /// The heartbeat is older than the session's timeline floor.
  bool below_floor = false;
  /// heartbeat > now - bound (strict, as in the paper's guard).
  bool within_bound = false;
  /// The heartbeat, -1 when unknown.
  SimTimeMs heartbeat = -1;
  /// now - heartbeat; 0 when unknown.
  SimTimeMs staleness = 0;

  /// The guard's rule: the local branch qualifies.
  bool Fresh() const { return known && !below_floor && within_bound; }
  /// The degrade, shed and routing rule under `mode`: the floor is never
  /// relaxed, and only ALWAYS serves data past the bound.
  bool Permits(DegradeMode mode) const {
    return known && !below_floor &&
           (within_bound || mode == DegradeMode::kAlways);
  }
};

/// Judges `heartbeat` (the region's certified heartbeat; nullopt when
/// unknown or withdrawn) against `bound_ms` at `now`. `floor_ms` < 0 means
/// no timeline floor.
CurrencyVerdict JudgeCurrency(std::optional<SimTimeMs> heartbeat,
                              RegionHealth health, SimTimeMs now,
                              SimTimeMs bound_ms, SimTimeMs floor_ms);

}  // namespace rcc

#endif  // RCC_EXEC_CURRENCY_VERDICT_H_
