#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload definitions for the end-to-end benchmark: the system under test
// (TPCD single cache or bookstore fleet), the seeded statement streams (one
// per client connection, generated before anything is timed), and the
// answer checks. Writes in the streams touch only balances and prices, never
// keys, so every expected row count is fixed when the streams are generated.
// The write probe inserts rows under keys above every key the streams read.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/rcc.h"
#include "fleet/fleet.h"

namespace perfbench {

enum class Workload { kPointHot, kCurrencyRw, kFleetRouted };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);

/// Client connections (one thread each, one statement outstanding) and
/// server workers: 2 + 2 threads fit the 4 cores the benchmark targets.
constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
/// INSERTs in the write probe: more than a 3-second probe completes at
/// 40 µs per statement, few enough to keep the process small.
constexpr int kWriteProbeLength = 80000;
/// Virtual-clock step taken after every `clock_every` completed statements.
constexpr rcc::SimTimeMs kClockStepMs = 997;
/// Virtual time run before warm-up statements, so the first deliveries
/// (CR1 at 15 s, CR2 at 10 s; fleet nodes at 4-12 s) have landed.
constexpr rcc::SimTimeMs kWarmupAdvanceMs = 35000;

struct WorkloadParams {
  /// Completed statements per virtual-clock step; 0 = clock frozen.
  int clock_every = 0;
  /// Statements per connection stream (cycled during the timed run).
  int stream_length = 0;
  /// Statements each connection runs before timing starts.
  int warmup_per_connection = 0;
  /// Interleaved statements replayed by the traced run and the oracle pass.
  int replay_statements = 0;
  /// Time an INSERT-only window after the read window, because the mix
  /// itself has no writes (write_p50_us is reported for every workload).
  bool write_probe = false;
};

WorkloadParams ParamsFor(Workload w);

enum class StmtKind : uint8_t {
  kCustomerPoint,
  kOrdersRange,
  kCustomerUpdate,
  kBooksPoint,
  kBooksRange,
  kReviewsRange,
  kCustomerInsert,
  kBooksInsert,
};

struct Statement {
  StmtKind kind = StmtKind::kCustomerPoint;
  std::string sql;
  /// Requested key (point reads, updates) or first key of a range read.
  int64_t key = 0;
  /// Last key of a range read (inclusive); equals `key` otherwise.
  int64_t last = 0;
  /// Rows a correct SELECT returns (fixed at generation).
  int64_t expected_rows = 0;

  bool is_select() const {
    return kind != StmtKind::kCustomerUpdate &&
           kind != StmtKind::kCustomerInsert && kind != StmtKind::kBooksInsert;
  }
};

/// Outcome class of one answered statement.
enum class Verdict { kOk, kRefused, kFailed, kWrong };

/// Per-outcome statement counts (timed window, or any replay).
struct Counts {
  int64_t attempted = 0;
  int64_t refused = 0;
  int64_t failed = 0;
  int64_t wrong = 0;

  int64_t bad() const { return refused + failed + wrong; }
  void Add(const Counts& o) {
    attempted += o.attempted;
    refused += o.refused;
    failed += o.failed;
    wrong += o.wrong;
  }
  void Record(Verdict v) {
    ++attempted;
    if (v == Verdict::kRefused) ++refused;
    if (v == Verdict::kFailed) ++failed;
    if (v == Verdict::kWrong) ++wrong;
  }
};

/// Checks one answer: `status_code` is the statement status (0 = OK),
/// `rows` the result rows, `rows_affected` the DML count.
Verdict CheckAnswer(const Statement& st, int status_code,
                    const std::vector<rcc::Row>& rows, int64_t rows_affected);
/// The same for an in-process Session::Execute result.
Verdict CheckAnswer(const Statement& st,
                    const rcc::Result<rcc::QueryResult>& r);

/// The system under test. Owns either a single-cache RccSystem (TPCD at
/// scale 0.05 with the paper's Table 4.1 cache) or an 8-node bookstore
/// fleet whose anchor is the served system.
class Deployment {
 public:
  /// Loads data and builds shadow catalog, regions and views. `sink`, when
  /// non-null, is installed before any region exists so the history is
  /// complete; it must outlive the deployment.
  static rcc::Result<std::unique_ptr<Deployment>> Create(
      Workload w, rcc::HistorySink* sink);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Workload workload() const { return workload_; }
  /// The served system (the fleet's anchor).
  rcc::RccSystem* system();
  /// A client session; routed through the fleet for fleet_routed.
  std::unique_ptr<rcc::Session> NewSession();
  /// Fleet router, nullptr for single-cache workloads.
  rcc::StatementRouter* router();
  /// Holds every fleet node in concurrent-batch mode while a server runs
  /// (RccServer::Start freezes only the anchor).
  void BeginServing();
  void EndServing();

  /// The seeded streams, one per connection.
  std::vector<std::vector<Statement>> MakeStreams(uint64_t seed) const;
  /// The write probe of the read-only mixes: kWriteProbeLength INSERTs of
  /// new Customer (point_hot) or Books (fleet_routed) rows, each under a key
  /// of its own above the loaded ones, so the probe runs once, never cycled.
  std::vector<Statement> MakeWriteProbe(uint64_t seed) const;

 private:
  explicit Deployment(Workload w) : workload_(w) {}

  Workload workload_;
  std::unique_ptr<rcc::RccSystem> single_;
  std::unique_ptr<rcc::fleet::FleetSystem> fleet_;
  rcc::HistorySink* sink_ = nullptr;
  bool serving_ = false;
  /// Prefix counts over the master data: rows with first key column <= k.
  std::vector<int64_t> orders_upto_;
  std::vector<int64_t> books_upto_;
  std::vector<int64_t> reviews_upto_;
};

/// Runs the seeded statements in-process and single-threaded, in the
/// interleaved order c0[0], c1[0], c0[1], ... (statement i on session
/// i % kConnections), on the wire run's clock schedule: the clock steps by
/// kClockStepMs after every clock_every statements. The warm-up, the traced
/// run and the oracle pass all follow it, so each sees the same statements
/// in the same virtual-time state.
class Replay {
 public:
  /// `streams` must outlive the replay.
  Replay(Deployment* deployment,
         const std::vector<std::vector<Statement>>* streams);

  /// Lands the first deliveries and runs the warm-up statements, checking
  /// every answer.
  rcc::Status Warmup();

  /// Statements run so far; the next one, and the session it runs on.
  int64_t position() const { return position_; }
  const Statement& statement() const;
  rcc::Session* session();
  /// Marks the next statement done; true when the clock must step now.
  bool Done();
  /// Steps the virtual clock (separate from Done so callers can time it).
  void StepClock();

 private:
  Deployment* deployment_;
  const std::vector<std::vector<Statement>>* streams_;
  WorkloadParams params_;
  std::vector<std::unique_ptr<rcc::Session>> sessions_;
  int64_t position_ = 0;
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Median / percentile (nearest rank) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
