#ifndef PERFBENCH_ORACLE_CHECK_H_
#define PERFBENCH_ORACLE_CHECK_H_

// The check pass: a fresh deployment with a sim::HistoryRecorder installed
// replays the seeded statements in-process (same interleaving and clock
// schedule as the traced run), checks every answer, and runs the
// conformance oracle over the recorded history. Fleet histories get the
// oracle's multi-node rules.

#include <string>

#include "workload.h"

namespace perfbench {

struct OracleResult {
  Counts counts;
  int64_t answers_checked = 0;
  int64_t routes_checked = 0;
  size_t violations = 0;
  std::string first_violation;
};

rcc::Result<OracleResult> RunOracleCheck(Workload w, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_CHECK_H_
