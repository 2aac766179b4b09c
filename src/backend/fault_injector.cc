#include "backend/fault_injector.h"

#include <utility>

namespace rcc {

bool FaultInjector::InOutage(SimTimeMs now) const {
  return InOutageAt(config_, now);
}

RemoteAttempt FaultInjector::Execute(
    const BackendCall& call,
    const std::function<Result<ExecutedQuery>(const BackendCall&)>& inner) {
  ++attempts_;
  RemoteAttempt out;
  out.latency_ms = config_.base_latency_ms;
  if (config_.latency_jitter_ms > 0) {
    out.latency_ms += rng_.Uniform(0, config_.latency_jitter_ms);
  }
  if (config_.spike_probability > 0 &&
      rng_.NextDouble() < config_.spike_probability) {
    out.latency_ms += config_.spike_latency_ms;
    ++injected_spikes_;
  }
  SimTimeMs now = clock_->Now();
  if (InOutage(now)) {
    ++injected_errors_;
    out.status = Status::Unavailable("injected outage: back-end unreachable at " +
                                     FormatSimTime(now));
    return out;
  }
  if (config_.transient_error_probability > 0 &&
      rng_.NextDouble() < config_.transient_error_probability) {
    ++injected_errors_;
    out.status =
        Status::Unavailable("injected transient back-end error at " +
                            FormatSimTime(now));
    return out;
  }
  Result<ExecutedQuery> result = inner(call);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.data = std::move(result).value();
  return out;
}

RemoteAttemptFn FaultInjector::Wrap(
    std::function<Result<ExecutedQuery>(const BackendCall&)> inner) {
  return [this, inner = std::move(inner)](const BackendCall& call) {
    return Execute(call, inner);
  };
}

}  // namespace rcc
