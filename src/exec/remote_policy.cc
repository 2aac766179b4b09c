#include "exec/remote_policy.h"

#include <algorithm>
#include <string>

#include "common/strings.h"
#include "exec/event_stream.h"

namespace rcc {

Result<ExecutedQuery> ResilientRemoteExecutor::Execute(const BackendCall& call,
                                                       EventStream* events,
                                                       Deadline deadline) {
  using obs::TraceEventKind;
  if (breaker_open()) {
    events->Record(LinkRecord{.kind = TraceEventKind::kBreakerFastFail,
                              .at = clock_->Now(), .ms = breaker_open_until_});
    return Status::Unavailable(
        "circuit breaker open: back-end marked down until " +
        FormatSimTime(breaker_open_until_));
  }

  Status last = Status::Unavailable("remote query not attempted");
  for (int attempt = 0; attempt <= policy_.max_retries; ++attempt) {
    // Cancellation point: a statement past its real-time deadline neither
    // attempts nor backs off again — its worker is needed back.
    if (deadline.expired()) {
      events->Record(DeadlineRecord{});
      return Status::DeadlineExceeded(
          StrPrintf("statement deadline expired before remote attempt %d",
                    attempt + 1));
    }
    if (attempt > 0) {
      // Exponential backoff + jitter before retry `attempt`: the delay is
      // backoff_base_ms * backoff_multiplier^attempt (1-based retry index,
      // matching the RemotePolicy contract — the first retry already waits a
      // full multiplier step beyond the base).
      double scaled = static_cast<double>(policy_.backoff_base_ms);
      for (int i = 0; i < attempt; ++i) scaled *= policy_.backoff_multiplier;
      SimTimeMs delay = static_cast<SimTimeMs>(scaled);
      if (policy_.backoff_jitter_ms > 0) {
        delay += rng_.Uniform(0, policy_.backoff_jitter_ms);
      }
      events->Record(LinkRecord{.kind = TraceEventKind::kRemoteBackoff,
                                .at = clock_->Now(), .attempt = attempt,
                                .ms = delay});
      Wait(delay);
    }

    events->Record(LinkRecord{.kind = TraceEventKind::kRemoteAttempt,
                              .at = clock_->Now(), .attempt = attempt + 1});
    RemoteAttempt result = attempt_(call);
    // The caller never waits longer than the timeout for one attempt.
    Wait(std::min(result.latency_ms, policy_.timeout_ms));
    if (result.status.ok() && result.latency_ms > policy_.timeout_ms) {
      last = Status::Unavailable(
          "remote attempt timed out after " +
          FormatSimTime(policy_.timeout_ms) + " (back-end took " +
          FormatSimTime(result.latency_ms) + ")");
      events->Record(LinkRecord{.kind = TraceEventKind::kRemoteTimeout,
                                .at = clock_->Now(), .attempt = attempt + 1,
                                .ms = policy_.timeout_ms,
                                .backend_ms = result.latency_ms});
    } else if (!result.status.ok()) {
      last = result.status;
    } else {
      consecutive_failures_ = 0;
      return std::move(result.data);
    }

    if (policy_.breaker_threshold > 0 &&
        ++consecutive_failures_ >= policy_.breaker_threshold) {
      breaker_open_until_ = clock_->Now() + policy_.breaker_cooldown_ms;
      consecutive_failures_ = 0;
      ++breaker_opens_;
      events->Record(LinkRecord{.kind = TraceEventKind::kBreakerOpen,
                                .at = clock_->Now(),
                                .ms = breaker_open_until_});
      // Opening the breaker abandons the remaining retries: the link is
      // considered down, not flaky.
      break;
    }
  }
  return last;
}

}  // namespace rcc
