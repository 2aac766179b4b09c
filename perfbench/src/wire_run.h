#ifndef PERFBENCH_WIRE_RUN_H_
#define PERFBENCH_WIRE_RUN_H_

// The timed, closed-loop run over the wire: an in-process RccServer on a
// Unix socket, driven through RccClient from kConnections connections, one
// thread each with one statement outstanding. Tracing, history recording
// and metrics dumps are off for the whole run.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

struct WireResult {
  Counts counts;
  /// Round trips of correctly answered statements in the quiet slices, µs.
  std::vector<double> read_us;
  std::vector<double> write_us;
  /// Median over the quiet slices of completed SELECTs per second.
  double read_qps = 0;
  /// Steal-free slices among those used, and the window's length (s).
  int quiet_slices = 0;
  double window_s = 0;
  /// Hypervisor steal share of the whole window, %.
  double steal_pct = 0;
  /// SELECTs served from a cache view (any node) per 100 SELECTs.
  double local_serve_pct = 0;
  /// Clock steps (0 = clock frozen) and SELECTs local_serve_pct was
  /// counted over.
  int64_t share_steps = 0;
  int64_t share_selects = 0;
};

class WireBench {
 public:
  /// `streams` (one per connection) must outlive the bench; `socket_path`
  /// is where the server listens.
  WireBench(Deployment* deployment,
            const std::vector<std::vector<Statement>>* streams,
            std::string socket_path);
  ~WireBench();

  WireBench(const WireBench&) = delete;
  WireBench& operator=(const WireBench&) = delete;

  /// Lands the first deliveries and runs each connection's warm-up
  /// statements in-process (plan cache filled). Call before Start. Fails on
  /// any bad answer.
  rcc::Status Warmup();
  /// Starts the server and connects every client.
  rcc::Status Start();
  /// The measured window: every connection runs its stream.
  WireResult RunTimed(double seconds);
  /// A window of `probe` statements on connection 0 alone, run once (not
  /// cycled); the window ends early when they run out. Call after RunTimed:
  /// the server's threads are warm, so no leading slices are dropped.
  WireResult RunWriteProbe(const std::vector<Statement>& probe,
                           double seconds);
  /// Closes the clients and stops the server. Idempotent.
  void Stop();

 private:
  /// A statement stream and the position its connection has reached.
  /// A cycled stream starts over at its end; any other ends its loop.
  struct Feed {
    const std::vector<Statement>* stream = nullptr;
    size_t pos = 0;
    bool cycled = true;
  };
  /// Progress recorded at every clock step.
  struct Mark {
    int64_t completed = 0;
    int64_t selects = 0;
    int64_t local = 0;  // rcc.switch.local
  };
  /// Round trips completed in one slice of a window.
  struct Slice {
    std::vector<float> read_us;
    std::vector<float> write_us;
    int64_t selects = 0;
  };
  /// One connection's slices; the window thread drops the data of slices
  /// that can no longer be among the used ones, so memory stays bounded
  /// however long the window stretches.
  struct Recorder {
    std::mutex mu;
    std::vector<Slice> slices;
  };

  /// Feed i runs on connection i until `seconds` of quiet slices are
  /// collected (see kSliceSeconds) or every feed has run out. The first
  /// `settle_slices` slices are never used.
  WireResult RunWindow(std::vector<Feed>* feeds, double seconds,
                       int settle_slices);
  /// One connection's closed loop from `start_ns` until `*stop` or the end
  /// of an uncycled feed; round trips go to `rec` by the slice they
  /// completed in. Decrements `*live` on exit.
  void Loop(int conn, Feed* feed, int64_t start_ns, int64_t slice_ns,
            const std::atomic<bool>* stop, std::atomic<int>* live,
            Recorder* rec, Counts* counts);
  /// Sends one statement and checks the answer; returns its verdict and
  /// round trip.
  Verdict RoundTrip(int conn, const Statement& st, double* us);

  Deployment* deployment_;
  const std::vector<std::vector<Statement>>* streams_;
  const WorkloadParams params_;
  std::string socket_path_;
  std::unique_ptr<rcc::server::RccServer> server_;
  std::vector<rcc::server::RccClient> clients_;
  std::vector<Feed> feeds_;
  rcc::obs::Counter* local_;
  /// Statements and SELECTs completed across connections (the former
  /// drives the clock steps).
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> selects_{0};
  std::mutex marks_mu_;
  std::vector<Mark> marks_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_RUN_H_
