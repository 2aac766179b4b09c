#ifndef RCC_SIM_RUNNER_H_
#define RCC_SIM_RUNNER_H_

#include <cstdint>

#include "common/result.h"
#include "sim/history.h"
#include "sim/oracle.h"

namespace rcc {
namespace sim {

/// Which fault injectors a simulation run arms.
enum class FaultMix {
  kNone,         // clean run: replication lag is the only staleness source
  kOutage,       // periodic query-channel outages + resilient remote policy
  kReplication,  // delivery drops/delays/duplicates/stalls/poison
  kCombined,     // both of the above
};

const char* FaultMixName(FaultMix mix);

enum class SimWorkload {
  kBookstore,  // paper §2 schema: Books/Reviews/Sales, inline DML
  kTpcd,       // paper §4 schema: Customer/Orders, scheduler update traffic
};

const char* SimWorkloadName(SimWorkload workload);

/// One deterministic simulation run. Everything random derives from `seed`
/// (workload data, statement schedule, fault schedules), so the same config
/// always produces the byte-identical history.
struct SimRunConfig {
  uint64_t seed = 1;
  FaultMix faults = FaultMix::kNone;
  SimWorkload workload = SimWorkload::kBookstore;
  /// Scheduled steps; each step advances virtual time and issues one
  /// statement, batch, mode toggle or DML.
  int steps = 80;
  /// Percent [0,100] of main-session queries issued with an overload shed
  /// hint (as the network server's admission layer would under queue
  /// pressure). Sheds serve degraded-local only when the guard ladder
  /// permits, so the oracle must stay violation-free at any rate.
  int shed_percent = 25;
  /// >= 2 drives the same statement schedule against a fleet instead: that
  /// many heterogeneous cache nodes behind one backend, every SELECT
  /// dispatched by the FleetRouter, per-node fault injection, and the
  /// multi-node oracle rules in force. A fleet run is bookstore-only (a
  /// TPCD `workload` is mapped to bookstore). 0 or 1 is a single-node run.
  int fleet_nodes = 0;
};

struct SimRunOutcome {
  History history;
  OracleReport report;
  /// history.Digest(), precomputed — the seed-stability fingerprint.
  uint64_t digest = 0;
  /// Statements issued / answers that succeeded / answers that failed
  /// (fault mixes are expected to fail some under DEGRADE NONE).
  int64_t statements = 0;
  int64_t answered = 0;
  int64_t failed = 0;
  /// Back-end commits recorded (DML + update traffic).
  int64_t commits = 0;
  /// Serves that took the shed (degraded-local under overload) branch.
  int64_t shed_serves = 0;
  /// Fleet-router dispatch decisions recorded (0 on single-node runs).
  int64_t routes = 0;
};

/// Builds a system, records its full audit history while driving a seeded
/// mixed workload (relaxed/strict queries, DML, SET DEGRADE, serial batches,
/// time-ordered phases) under the configured fault mix, then replays the
/// history through the conformance oracle. Errors only on setup failure —
/// query failures are part of the recorded behaviour, not errors.
Result<SimRunOutcome> RunSimulation(const SimRunConfig& config);

}  // namespace sim
}  // namespace rcc

#endif  // RCC_SIM_RUNNER_H_
