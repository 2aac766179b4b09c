#ifndef RCC_BACKEND_FAULT_INJECTOR_H_
#define RCC_BACKEND_FAULT_INJECTOR_H_

#include <vector>

#include "common/fault_config.h"
#include "common/rng.h"
#include "exec/remote_policy.h"

namespace rcc {

/// Configuration of the cache↔back-end link faults. Everything is driven by
/// the shared virtual clock and a seeded RNG, so a fault schedule is exactly
/// reproducible. The seed and outage schedule are the shared
/// FaultScheduleConfig knobs (common/fault_config.h), so the query-path and
/// replication-path injectors can script the same outage.
struct FaultInjectorConfig : FaultScheduleConfig {
  /// Nominal round-trip latency of a healthy attempt.
  SimTimeMs base_latency_ms = 2;
  /// Uniform extra latency in [0, latency_jitter_ms] per attempt.
  SimTimeMs latency_jitter_ms = 0;
  /// Probability that an attempt suffers a latency spike of spike_latency_ms
  /// on top of the base latency (models a slow, overloaded back-end).
  double spike_probability = 0.0;
  SimTimeMs spike_latency_ms = 0;
  /// Probability that an attempt fails transiently (dropped packet, broken
  /// connection); independent of outage windows.
  double transient_error_probability = 0.0;
};

/// Wraps the remote-executor callback and injects latency spikes, transient
/// errors, and hard outage windows per the config. Stateless apart from the
/// RNG stream and counters; one injector models one link.
class FaultInjector {
 public:
  /// `clock` must outlive the injector.
  FaultInjector(FaultInjectorConfig config, const VirtualClock* clock)
      : config_(std::move(config)), clock_(clock), rng_(config_.seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Runs one attempt of `call` against `inner` with faults applied.
  RemoteAttempt Execute(
      const BackendCall& call,
      const std::function<Result<ExecutedQuery>(const BackendCall&)>& inner);

  /// Adapts this injector + a plain remote executor into an attempt function
  /// for ResilientRemoteExecutor. The injector must outlive the returned
  /// callable.
  RemoteAttemptFn Wrap(
      std::function<Result<ExecutedQuery>(const BackendCall&)> inner);

  /// True when `now` falls into an outage (explicit window or periodic).
  bool InOutage(SimTimeMs now) const;

  int64_t attempts() const { return attempts_; }
  int64_t injected_errors() const { return injected_errors_; }
  int64_t injected_spikes() const { return injected_spikes_; }

  const FaultInjectorConfig& config() const { return config_; }

 private:
  FaultInjectorConfig config_;
  const VirtualClock* clock_;
  Rng rng_;
  int64_t attempts_ = 0;
  int64_t injected_errors_ = 0;
  int64_t injected_spikes_ = 0;
};

}  // namespace rcc

#endif  // RCC_BACKEND_FAULT_INJECTOR_H_
