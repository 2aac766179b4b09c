#ifndef RCC_EXEC_EVENT_STREAM_H_
#define RCC_EXEC_EVENT_STREAM_H_

#include <cstddef>
#include <optional>

#include "exec/audit.h"
#include "exec/currency_verdict.h"
#include "obs/trace.h"

namespace rcc {

/// The typed records of one statement's decisions (DESIGN.md §9). Decision
/// sites build a record and hand it to EventStream::Record; nothing else
/// reports a decision.

/// One currency-guard probe (paper §3.2.3); `probe.query_id` is stamped by
/// the stream. `reprobe` marks the degrade ladder's re-probe after a remote
/// failure: it is counted, but neither traced nor audited.
struct GuardRecord {
  GuardObservation probe;
  bool reprobe = false;
};

/// A SwitchUnion's branch: the guard's decision (local or remote), then,
/// for remote, the first successful open of the remote branch.
struct SwitchRecord {
  enum class Branch { kLocal, kRemote, kRemoteServed };
  SimTimeMs at = 0;
  RegionId region = kBackendRegion;
  Branch branch = Branch::kLocal;
};

/// Rows served to the statement: a SwitchUnion's local branch, or the first
/// fetch of a RemoteQuery (its correlated re-fetches are attributed to it;
/// DESIGN.md §11). The stream stamps `serve.query_id` and lists
/// `serve.operands` from `op`, the serving operator, only for the audit
/// sink. A local serve carries the guard verdict it served under; a
/// degraded one also the remote failure (null for a shed).
struct ServeRecord {
  ServeObservation serve;
  const PhysicalOp* op = nullptr;
  CurrencyVerdict verdict = {};
  const Status* remote_error = nullptr;
};

/// One completed back-end fetch of a RemoteQuery.
struct FetchRecord {
  SimTimeMs at = 0;
  size_t rows = 0;
};

/// One event of the resilient remote link: `kind` is kRemoteAttempt,
/// kRemoteBackoff, kRemoteTimeout, kBreakerOpen or kBreakerFastFail.
/// `attempt` is 1-based (the retry number for a backoff); `ms` is the
/// backoff delay, the timeout, or the breaker's open-until time;
/// `backend_ms` is what a timed-out attempt actually took.
struct LinkRecord {
  obs::TraceEventKind kind = obs::TraceEventKind::kRemoteAttempt;
  SimTimeMs at = 0;
  int attempt = 0;
  SimTimeMs ms = 0;
  SimTimeMs backend_ms = 0;
};

/// The statement's real-time deadline expired, in the executor's row drain
/// or in the remote retry loop.
struct DeadlineRecord {};

/// One plan run's row count and phase times (real milliseconds).
struct RunRecord {
  int64_t rows = 0;
  double setup_ms = 0;
  double run_ms = 0;
  double shutdown_ms = 0;
};

/// A replication delivery that landed while the statement waited.
struct DeliveryRecord {
  RegionId region = kBackendRegion;
  SimTimeMs at = 0;
  int64_t ops = 0;
  std::optional<SimTimeMs> heartbeat;
};

/// A region health transition that happened while the statement waited.
struct HealthRecord {
  RegionId region = kBackendRegion;
  RegionHealth from = RegionHealth::kHealthy;
  RegionHealth to = RegionHealth::kHealthy;
  SimTimeMs at = 0;
};

/// One statement's decision stream: every decision site hands its record
/// to Record, and Record is the only code that
/// - folds a decision into ExecStats (which RecordQueryMetrics, the answer
///   observation, QueryResult and the server read afterwards);
/// - forwards guard, serve and route records to the audit sink, at once, so
///   the recorder's `seq` order interleaves them correctly with installs
///   and health transitions landing mid-statement (DESIGN.md §11);
/// - renders the `key=value` trace line, only when the statement is traced.
/// Untraced and unaudited, a record costs its fold: nothing is allocated or
/// formatted. Owned by one statement on one thread; not thread-safe.
class EventStream {
 public:
  /// `trace` (null = untraced) must outlive the stream.
  explicit EventStream(obs::QueryTrace* trace = nullptr) : trace_(trace) {}
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

  /// Starts an execution attempt: later guard, serve and route records go
  /// to `sink` (null = unaudited) under `query_id`, and the stats restart
  /// from zero, so each attempt reports only its own decisions. The trace
  /// keeps every attempt's lines.
  void BeginExecution(HistorySink* sink, uint64_t query_id) {
    sink_ = sink;
    query_id_ = query_id;
    stats_ = ExecStats();
  }

  /// The one entry, overloaded per record type.
  void Record(const GuardRecord& r);
  void Record(const SwitchRecord& r);
  void Record(const ServeRecord& r);
  void Record(const FetchRecord& r);
  void Record(const LinkRecord& r);
  void Record(const DeadlineRecord& r);
  void Record(const RunRecord& r);
  void Record(const DeliveryRecord& r);
  void Record(const HealthRecord& r);
  void Record(const RouteObservation& r);

  const ExecStats& stats() const { return stats_; }
  bool traced() const { return trace_ != nullptr; }

 private:
  void Trace(obs::TraceEventKind kind, SimTimeMs at, std::string detail,
             int64_t region = -1) {
    trace_->Record(obs::TraceEvent{kind, at, region, std::move(detail)});
  }
  /// `obs` under this execution's audit query id.
  template <typename Observation>
  Observation Stamped(Observation obs) const {
    obs.query_id = query_id_;
    return obs;
  }

  ExecStats stats_;
  obs::QueryTrace* trace_ = nullptr;
  HistorySink* sink_ = nullptr;
  uint64_t query_id_ = 0;
};

}  // namespace rcc

#endif  // RCC_EXEC_EVENT_STREAM_H_
