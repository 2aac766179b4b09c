#ifndef RCC_SERVER_SERVER_H_
#define RCC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/rcc.h"
#include "server/wire.h"

namespace rcc {

class StatementRouter;

namespace server {

struct ServerOptions {
  /// Non-empty: listen on a UNIX-domain socket at this path (unlinked and
  /// re-created by Start). Empty: TCP on 127.0.0.1.
  std::string uds_path;
  /// TCP port (ignored for UDS); 0 binds an ephemeral port — read the
  /// actual one back with RccServer::port().
  uint16_t port = 0;
  /// Event-loop threads. Each owns the connections assigned to it at accept
  /// and runs their statements itself; 0 picks ThreadPool::DefaultWorkers.
  int workers = 0;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 10000;
  /// Frames whose length prefix exceeds this kill the connection.
  size_t max_frame_bytes = 8u << 20;
  /// Per-connection bound on response bytes not yet written to the socket.
  /// A connection past it stops being read and run (backpressure) until
  /// EPOLLOUT drains it back within the bound; a single response larger
  /// than the bound still streams out.
  size_t max_write_queue_bytes = 4u << 20;
  /// Real-time budget Stop() spends draining in-flight statements and
  /// flushing response queues before force-closing.
  int64_t drain_timeout_ms = 10000;

  /// -- overload survivability --------------------------------------------

  /// Admission limit: statements decoded and waiting in an event loop's run
  /// queue or running, server-wide, beyond this are refused with a
  /// retryable Overloaded status, unexecuted (the connection stays open).
  /// 0 picks workers * 16.
  int admission_limit = 0;
  /// A statement that waited longer than this between its decode and the
  /// start of its run is answered Overloaded instead of executed — it would
  /// only add to the backlog that delayed it. 0 disables the check.
  int64_t max_queue_delay_ms = 0;
  /// Wait since decode beyond which statements run with a shed hint: the
  /// executor prefers the degraded-local plan branch when (and only when)
  /// the statement's currency bound and timeline floor permit it.
  /// 0 disables.
  int64_t shed_queue_delay_ms = 0;
  /// Server-wide default statement deadline (real ms), overridable per
  /// session (SET DEADLINE) and per request (kQueryDeadline). 0 = none.
  int64_t default_deadline_ms = 0;
};

/// The network front end: `workers` epoll event loops, each owning the
/// connections assigned to it at accept. A loop reads every ready
/// connection, decodes its frames into one run queue, then runs that queue
/// in order on its own thread against the ordinary `Session` engine and
/// writes each answer with a non-blocking send — a request wakes one server
/// thread, and no other thread touches the connection. Each connection owns
/// exactly one Session, so degrade mode, SET TRACE, and the
/// timeline-consistency floor are per-client state, exactly as the paper's
/// model assumes (DESIGN.md §14).
///
/// Engine contract: Start() puts the cache into concurrent-batch mode
/// (frozen virtual clock, epoch-pinned snapshot reads, serialized remote
/// channel) for the server's whole lifetime; Stop() ends it. While the
/// server is running, do not call RccSystem::ExecuteConcurrent or the
/// scheduler directly from outside — use AdvanceVirtualTime(), which
/// quiesces queries first. SELECT-shaped statements run concurrently under
/// a shared engine lock; DML takes it exclusively (writes mutate the
/// back-end master tables that remote branches scan).
class RccServer {
 public:
  explicit RccServer(RccSystem* system, ServerOptions options = {});
  ~RccServer();

  RccServer(const RccServer&) = delete;
  RccServer& operator=(const RccServer&) = delete;

  /// Binds, listens and spawns the event loops. Fails (and leaves the
  /// server stopped) if the socket cannot be bound.
  Status Start();

  /// Drain-on-shutdown: stops accepting, lets queued and running statements
  /// finish, flushes every connection's unsent answers (bounded by
  /// drain_timeout_ms), then closes all connections and joins the event
  /// loops. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Installs a fleet router on every *subsequently accepted* connection's
  /// Session: plain SELECTs dispatch across the fleet, everything else runs
  /// on the anchor as before. Call before Start. The caller keeps ownership
  /// and must also hold the fleet in concurrent-batch mode for the server's
  /// lifetime (FleetSystem::BeginConcurrentBatch) — Start only freezes the
  /// anchor cache.
  void SetRouter(StatementRouter* router) { router_ = router; }

  /// Bound TCP port (valid after Start; 0 for UDS servers).
  uint16_t port() const { return bound_port_; }

  int connections_open() const {
    return connections_open_.load(std::memory_order_relaxed);
  }
  /// Statements currently queued in an event loop or running.
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

  /// Test/driver hook: quiesces statement execution (exclusive engine
  /// lock), leaves concurrent-batch mode, runs the discrete-event scheduler
  /// forward by `delta` virtual ms (heartbeats and deliveries fire), then
  /// refreezes. Safe while connections are open.
  void AdvanceVirtualTime(SimTimeMs delta);

 private:
  struct Connection;
  struct Task;
  struct Loop;
  using ConnPtr = std::shared_ptr<Connection>;

  void RunLoop(Loop* loop);
  /// Loop thread only: whether the loop has nothing left to answer or flush.
  bool Drained(Loop* loop);
  void HandleAccept(Loop* loop);
  void Adopt(Loop* loop, ConnPtr conn);
  /// Reads the socket and decodes every complete frame into the run queue.
  void HandleReadable(Loop* loop, const ConnPtr& conn);
  void HandleWritable(Loop* loop, const ConnPtr& conn);
  /// Runs the loop's queue in order; answers are written as each
  /// connection's run of consecutive statements ends.
  void RunQueue(Loop* loop);
  void RunTask(Connection& conn, Task& task);
  /// Runs one statement and appends its answer. `deadline_ms` is the
  /// per-request wire override (0 = none); `decoded_at` anchors the
  /// deadline budget, the queue-delay gate and the shed hint.
  void RunStatement(Connection& conn, uint32_t seq, const std::string& sql,
                    int64_t deadline_ms,
                    std::chrono::steady_clock::time_point decoded_at);
  void RunPrepare(Connection& conn, uint32_t seq, std::string sql);
  /// Takes an in-flight slot for a statement frame; false = over the
  /// admission limit (the frame is refused when its turn comes).
  bool Admit(Opcode op);
  /// Gives back the task's in-flight slot, if it holds one.
  void Release(Task& task);
  /// Drops a task whose connection will never see its answer.
  void Drop(Task& task);

  /// Sends a kStatus error frame and closes the connection after flushing.
  void ProtocolError(Connection& conn, uint32_t seq,
                     const std::string& message);
  void SendStatus(Connection& conn, uint32_t seq,
                  const StatusFramePayload& status);
  /// Writes as much of the connection's unsent answers as the socket takes;
  /// closes it once flushed if it asked to close.
  void Flush(Loop* loop, const ConnPtr& conn);
  /// Registers the epoll interest the connection's state calls for.
  void Arm(Loop* loop, Connection& conn);
  /// Loop thread only: closes the socket, drops parked work, releases the
  /// connection. Safe to call twice.
  void CloseConnection(Loop* loop, const ConnPtr& conn);
  static void Wake(Loop* loop);
  void CloseLoops();

  RccSystem* system_;
  ServerOptions opts_;
  /// Fleet dispatch for connection sessions; nullptr = single-cache system.
  StatementRouter* router_ = nullptr;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Statements run under this lock: shared for reads/control, exclusive
  /// for DML and AdvanceVirtualTime.
  std::shared_mutex engine_mu_;

  std::atomic<int> connections_open_{0};

  /// Admission limit resolved at Start (options value or workers * 16).
  int admission_limit_ = 0;

  /// Statements queued in a loop (including parked ones) or running.
  std::atomic<int> in_flight_{0};
  /// Drain accounting for Stop(): loops still running, under drain_mu_.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int loops_running_ = 0;

  /// rcc.server.* instruments, resolved once at Start.
  struct Instruments {
    obs::Counter* connections_total = nullptr;
    obs::Counter* frames_rx = nullptr;
    obs::Counter* frames_tx = nullptr;
    obs::Counter* bytes_rx = nullptr;
    obs::Counter* bytes_tx = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* prepares = nullptr;
    obs::Counter* executes = nullptr;
    obs::Counter* sets = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* accept_rejected = nullptr;
    /// Connections paused because their unsent bytes passed the bound.
    obs::Counter* backpressure_stalls = nullptr;
    /// Decoded requests never answered because their connection went away.
    obs::Counter* dropped_responses = nullptr;
    /// Statements refused with Overloaded (admission limit or queue delay).
    obs::Counter* overload_rejected = nullptr;
    /// Statements answered DeadlineExceeded.
    obs::Counter* deadline_timeouts = nullptr;
    /// Statements that took the degraded-local shed branch.
    obs::Counter* shed_statements = nullptr;
    obs::Gauge* connections_open = nullptr;
    obs::Gauge* in_flight = nullptr;
    obs::Histogram* statement_ms = nullptr;
    /// Wait from decode to the start of the statement's run, real ms.
    obs::Histogram* queue_delay_ms = nullptr;
  } inst_;

  /// The event loops; loop 0 also accepts. Declared last: their threads
  /// use every member above.
  std::vector<std::unique_ptr<Loop>> loops_;
  /// Round-robin cursor assigning accepted connections to loops.
  size_t next_loop_ = 0;
};

}  // namespace server
}  // namespace rcc

#endif  // RCC_SERVER_SERVER_H_
