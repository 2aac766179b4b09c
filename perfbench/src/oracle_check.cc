#include "oracle_check.h"

#include "sim/history.h"
#include "sim/oracle.h"

namespace perfbench {

rcc::Result<OracleResult> RunOracleCheck(Workload w, uint64_t seed) {
  // Declared first so it outlives the deployment that reports into it.
  rcc::sim::HistoryRecorder recorder(seed);
  auto created = Deployment::Create(w, &recorder);
  if (!created.ok()) return created.status();
  std::unique_ptr<Deployment> deployment = std::move(created).value();
  const WorkloadParams params = ParamsFor(w);
  const std::vector<std::vector<Statement>> streams =
      deployment->MakeStreams(seed);
  Replay replay(deployment.get(), &streams);
  RCC_RETURN_NOT_OK(replay.Warmup());
  OracleResult out;
  for (int i = 0; i < params.replay_statements; ++i) {
    const Statement& st = replay.statement();
    out.counts.Record(CheckAnswer(st, replay.session()->Execute(st.sql)));
    if (replay.Done()) replay.StepClock();
  }

  rcc::sim::OracleReport report = rcc::sim::CheckHistory(recorder.Snapshot());
  out.answers_checked = report.answers_checked;
  out.routes_checked = report.routes_checked;
  out.violations = report.violations.size();
  if (!report.ok()) out.first_violation = report.violations.front().ToString();
  return out;
}

}  // namespace perfbench
