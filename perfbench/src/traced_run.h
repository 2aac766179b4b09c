#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

// The traced run: single-threaded and in-process, it replays the seeded
// statements through Session::Execute and then through each layer's public
// entry point, recording one request span per statement with one child span
// per layer call. Spans stay in memory and are written out at the end.

#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct TracedResult {
  Counts counts;
  /// The per_layer metrics of BENCHMARK.json.
  std::vector<Metric> metrics;
  size_t spans = 0;
  /// SELECTs replayed (the base of the per-SELECT ratios).
  int64_t selects = 0;
};

/// Sets up a fresh deployment, warms it up like the wire run, then traces
/// the statements that follow the warm-up (the ones the timed window starts
/// with). `wire_read_p50_us` is the timed run's SELECT p50, for
/// server.overhead_us. Spans are written to `spans_out` as JSON lines
/// (skipped when empty).
rcc::Result<TracedResult> RunTraced(Workload w, uint64_t seed,
                                    double wire_read_p50_us,
                                    const std::string& spans_out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
