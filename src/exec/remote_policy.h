#ifndef RCC_EXEC_REMOTE_POLICY_H_
#define RCC_EXEC_REMOTE_POLICY_H_

#include <functional>

#include "common/rng.h"
#include "exec/exec_context.h"

namespace rcc {

/// One observed attempt against the back-end query channel. Unlike the plain
/// remote-executor callback this carries the attempt's simulated latency, so
/// a policy layer can decide whether the caller would have given up waiting.
struct RemoteAttempt {
  Status status;             // outcome of the attempt
  ExecutedQuery data;        // valid only when status.ok()
  SimTimeMs latency_ms = 0;  // virtual time the attempt took
};

/// Produces one attempt; fault injectors and transports implement this.
using RemoteAttemptFn = std::function<RemoteAttempt(const BackendCall&)>;

/// Advances simulated time by `delta` ms while the policy waits (on an
/// attempt, or between retries). Wiring this to the simulation scheduler lets
/// replication deliveries land *during* the wait — which is what makes a
/// degraded local serve able to satisfy its bound after an outage.
using WaitFn = std::function<void(SimTimeMs delta)>;

/// Knobs of the resilient remote-execution policy. All times are virtual ms.
struct RemotePolicy {
  /// An attempt whose latency exceeds this is abandoned and counted as a
  /// timeout (the caller only ever waits timeout_ms for it).
  SimTimeMs timeout_ms = 1000;
  /// Retries after the first attempt.
  int max_retries = 3;
  /// Exponential backoff: the delay before retry i (1-based, so the first
  /// retry already backs off a full multiplier step) is
  /// backoff_base_ms * backoff_multiplier^i + uniform[0, backoff_jitter_ms].
  SimTimeMs backoff_base_ms = 100;
  double backoff_multiplier = 2.0;
  SimTimeMs backoff_jitter_ms = 50;
  /// Circuit breaker: after this many consecutive failed attempts the
  /// back-end is marked down for breaker_cooldown_ms and calls fail fast
  /// without touching the link. 0 disables the breaker.
  int breaker_threshold = 5;
  SimTimeMs breaker_cooldown_ms = 5000;
  /// Seed of the backoff-jitter RNG (deterministic experiments).
  uint64_t seed = 0x5EEDu;
};

/// Wraps a remote attempt function with per-query timeout, bounded retries
/// with exponential backoff + jitter, and a circuit breaker. Breaker state
/// persists across queries, so one instance should live as long as the
/// cache↔back-end link it protects.
class ResilientRemoteExecutor {
 public:
  /// `clock` must outlive the executor; `wait` may be null (no simulated
  /// waiting — retries then happen at one instant of virtual time).
  ResilientRemoteExecutor(RemotePolicy policy, RemoteAttemptFn attempt,
                          const VirtualClock* clock, WaitFn wait = nullptr)
      : policy_(policy),
        attempt_(std::move(attempt)),
        clock_(clock),
        wait_(std::move(wait)),
        rng_(policy.seed) {}

  ResilientRemoteExecutor(const ResilientRemoteExecutor&) = delete;
  ResilientRemoteExecutor& operator=(const ResilientRemoteExecutor&) = delete;

  /// Executes `call` under the policy. Every attempt, backoff, timeout and
  /// breaker event is recorded, with its virtual timestamp, into the
  /// statement's `events` (required). `deadline` is the statement's
  /// real-time cancellation deadline: each retry-loop iteration is a
  /// cancellation point, so an expired statement stops retrying (and
  /// backing off) immediately instead of riding out the whole retry budget.
  Result<ExecutedQuery> Execute(const BackendCall& call, EventStream* events,
                                Deadline deadline = Deadline::None());

  /// Replaces the attempt function (e.g. when a fault injector is added to
  /// an already-wired link).
  void set_attempt(RemoteAttemptFn attempt) { attempt_ = std::move(attempt); }

  /// True while the breaker holds calls off the link at the current time.
  bool breaker_open() const {
    return breaker_open_until_ >= 0 && clock_->Now() < breaker_open_until_;
  }
  /// Times the breaker opened since construction.
  int64_t breaker_opens() const { return breaker_opens_; }
  int consecutive_failures() const { return consecutive_failures_; }

  const RemotePolicy& policy() const { return policy_; }

 private:
  /// Simulates waiting for `delta` ms.
  void Wait(SimTimeMs delta) {
    if (wait_ && delta > 0) wait_(delta);
  }

  RemotePolicy policy_;
  RemoteAttemptFn attempt_;
  const VirtualClock* clock_;
  WaitFn wait_;
  Rng rng_;
  int consecutive_failures_ = 0;
  /// Virtual time until which the breaker is open; -1 = closed.
  SimTimeMs breaker_open_until_ = -1;
  int64_t breaker_opens_ = 0;
};

}  // namespace rcc

#endif  // RCC_EXEC_REMOTE_POLICY_H_
