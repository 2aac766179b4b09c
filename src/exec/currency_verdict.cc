#include "exec/currency_verdict.h"

namespace rcc {

#ifdef RCC_SIM_MUTATE
/// Mutation smoke test (build with -DRCC_MUTATE=sim): heartbeats one refresh
/// interval older than the bound allows pass as within it. The conformance
/// oracle must flag runs of this build; if it doesn't, the oracle is vacuous.
constexpr SimTimeMs kSimMutateSkewMs = 15000;
#else
constexpr SimTimeMs kSimMutateSkewMs = 0;
#endif

CurrencyVerdict JudgeCurrency(std::optional<SimTimeMs> heartbeat,
                              RegionHealth health, SimTimeMs now,
                              SimTimeMs bound_ms, SimTimeMs floor_ms) {
  CurrencyVerdict v;
  v.withdrawn = !HeartbeatValid(health);
  if (!heartbeat.has_value()) return v;
  const SimTimeMs hb = *heartbeat;
  v.known = true;
  v.heartbeat = hb;
  v.staleness = now - hb;
  v.below_floor = floor_ms >= 0 && hb < floor_ms;
  v.within_bound = hb + kSimMutateSkewMs > now - bound_ms;
  return v;
}

}  // namespace rcc
