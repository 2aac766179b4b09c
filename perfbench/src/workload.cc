#include "workload.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "common/strings.h"
#include "fleet/router.h"
#include "workload/bookstore.h"
#include "workload/tpcd.h"

namespace perfbench {

using rcc::Row;
using rcc::StrPrintf;

namespace {

constexpr double kTpcdScale = 0.05;  // 7,500 customers, ~75,000 orders
constexpr int kHotKeys = 512;
constexpr int kBooks = 2000;
constexpr int kFleetNodes = 8;
constexpr int64_t kOrdersSpan = 4;   // customers per Orders range read
constexpr int64_t kBooksSpan = 40;   // books per Books range read
constexpr int64_t kReviewsSpan = 20; // books per Reviews range read

/// Independent, reproducible generator per (seed, stream).
rcc::Rng StreamRng(uint64_t seed, uint64_t stream) {
  return rcc::Rng(seed * 0x9E3779B97F4A7C15ULL +
                  0x632BE59BD9B4E019ULL * (stream + 1));
}

/// prefix[k] = number of rows of `table` whose first key column is <= k.
std::vector<int64_t> PrefixCounts(const rcc::Table* table, int64_t max_key) {
  std::vector<int64_t> prefix(static_cast<size_t>(max_key) + 2, 0);
  table->Scan([&](const Row& row) {
    int64_t k = row[0].AsInt();
    if (k >= 0 && k <= max_key) ++prefix[static_cast<size_t>(k)];
    return true;
  });
  for (size_t k = 1; k < prefix.size(); ++k) prefix[k] += prefix[k - 1];
  return prefix;
}

int64_t CountIn(const std::vector<int64_t>& prefix, int64_t lo, int64_t hi) {
  return prefix[static_cast<size_t>(hi)] - prefix[static_cast<size_t>(lo - 1)];
}

rcc::fleet::FleetConfig MakeFleetConfig() {
  // Cycled like bench_fleet_routing: a complete default-cadence node, a
  // fast node without Reviews, and a slow complete node.
  rcc::fleet::FleetConfig fc;
  fc.seed = 20040613;
  for (int i = 0; i < kFleetNodes; ++i) {
    rcc::fleet::FleetNodeConfig nc;
    if (i % 3 == 1) {
      nc.update_interval = 4000;
      nc.update_delay = 1500;
      nc.reviews = false;
    } else if (i % 3 == 2) {
      nc.update_interval = 12000;
      nc.update_delay = 5000;
    } else {
      nc.update_interval = 8000;
      nc.update_delay = 3000;
    }
    fc.nodes.push_back(nc);
  }
  return fc;
}

// Statement texts; %s is the currency bound, %lld the keys.
constexpr const char* kCustomerPointSql =
    "SELECT c_custkey, c_name, c_acctbal FROM Customer C WHERE "
    "C.c_custkey = %lld CURRENCY BOUND %s ON (C)";
constexpr const char* kOrdersRangeSql =
    "SELECT o_custkey, o_orderkey, o_totalprice FROM Orders O WHERE "
    "O.o_custkey >= %lld AND O.o_custkey <= %lld CURRENCY BOUND 10 SEC ON (O)";
constexpr const char* kCustomerUpdateSql =
    "UPDATE Customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %lld";
constexpr const char* kBooksPointSql =
    "SELECT isbn, title, price FROM Books B WHERE B.isbn = %lld "
    "CURRENCY BOUND %s ON (B)";
constexpr const char* kBooksRangeSql =
    "SELECT isbn, price FROM Books B WHERE B.isbn >= %lld AND B.isbn <= %lld "
    "CURRENCY BOUND 20 SECONDS ON (B)";
constexpr const char* kReviewsRangeSql =
    "SELECT isbn, rating FROM Reviews R WHERE R.isbn >= %lld AND "
    "R.isbn <= %lld CURRENCY BOUND 20 SECONDS ON (R)";
constexpr const char* kCustomerInsertSql =
    "INSERT INTO Customer (c_custkey, c_name, c_nationkey, c_acctbal) "
    "VALUES (%lld, 'Customer#%09lld', %lld, %lld.%02lld)";
constexpr const char* kBooksInsertSql =
    "INSERT INTO Books (isbn, title, price, stock) "
    "VALUES (%lld, 'Book #%lld', %lld.%02lld, %lld)";

Statement Point(StmtKind kind, int64_t key, const char* sql,
                const char* bound) {
  Statement st;
  st.kind = kind;
  st.key = st.last = key;
  st.expected_rows = 1;
  st.sql = StrPrintf(sql, static_cast<long long>(key), bound);
  return st;
}

Statement Range(StmtKind kind, int64_t first, int64_t span,
                const std::vector<int64_t>& upto, const char* sql) {
  Statement st;
  st.kind = kind;
  st.key = first;
  st.last = first + span - 1;
  st.expected_rows = CountIn(upto, st.key, st.last);
  st.sql = StrPrintf(sql, static_cast<long long>(st.key),
                     static_cast<long long>(st.last));
  return st;
}

Statement Update(StmtKind kind, int64_t key, const char* sql) {
  Statement st;
  st.kind = kind;
  st.key = st.last = key;
  st.sql = StrPrintf(sql, static_cast<long long>(key));
  return st;
}

/// True when every row's first column lies in [lo, hi].
bool FirstColumnWithin(const std::vector<Row>& rows, int64_t lo, int64_t hi) {
  for (const Row& row : rows) {
    if (row.empty() || row[0].type() != rcc::ValueType::kInt64) return false;
    int64_t k = row[0].AsInt();
    if (k < lo || k > hi) return false;
  }
  return true;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "point_hot") return Workload::kPointHot;
  if (name == "currency_rw") return Workload::kCurrencyRw;
  if (name == "fleet_routed") return Workload::kFleetRouted;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointHot:
      return "point_hot";
    case Workload::kCurrencyRw:
      return "currency_rw";
    case Workload::kFleetRouted:
      return "fleet_routed";
  }
  return "?";
}

WorkloadParams ParamsFor(Workload w) {
  WorkloadParams p;
  switch (w) {
    case Workload::kPointHot:
      p.clock_every = 0;
      p.stream_length = 4096;
      p.warmup_per_connection = 2048;
      p.replay_statements = 4000;
      p.write_probe = true;
      break;
    case Workload::kCurrencyRw:
      p.clock_every = 40;
      p.stream_length = 4000;
      p.warmup_per_connection = 1000;
      p.replay_statements = 2000;
      p.write_probe = false;
      break;
    case Workload::kFleetRouted:
      p.clock_every = 20;
      p.stream_length = 3000;
      p.warmup_per_connection = 300;
      p.replay_statements = 1200;
      p.write_probe = true;
      break;
  }
  return p;
}

Verdict CheckAnswer(const Statement& st, int status_code,
                    const std::vector<Row>& rows, int64_t rows_affected) {
  if (status_code == static_cast<int>(rcc::StatusCode::kOverloaded)) {
    return Verdict::kRefused;
  }
  if (status_code != 0) return Verdict::kFailed;
  const bool ok =
      st.is_select()
          ? static_cast<int64_t>(rows.size()) == st.expected_rows &&
                FirstColumnWithin(rows, st.key, st.last)
          : rows.empty() && rows_affected == 1;
  return ok ? Verdict::kOk : Verdict::kWrong;
}

Verdict CheckAnswer(const Statement& st,
                    const rcc::Result<rcc::QueryResult>& r) {
  if (r.ok()) return CheckAnswer(st, 0, r->rows, r->rows_affected);
  return CheckAnswer(st, static_cast<int>(r.status().code()), {}, 0);
}

rcc::Result<std::unique_ptr<Deployment>> Deployment::Create(
    Workload w, rcc::HistorySink* sink) {
  std::unique_ptr<Deployment> d(new Deployment(w));
  d->sink_ = sink;
  if (w == Workload::kFleetRouted) {
    d->fleet_ = std::make_unique<rcc::fleet::FleetSystem>(MakeFleetConfig());
    if (sink != nullptr) d->fleet_->SetHistorySink(sink);
    rcc::BookstoreConfig bc;
    bc.books = kBooks;
    bc.reviews_per_book = 2;
    bc.sales_per_book = 2;
    bc.seed = 7;
    RCC_RETURN_NOT_OK(d->fleet_->LoadBookstore(bc));
    RCC_RETURN_NOT_OK(d->fleet_->SetupBookstore());
    rcc::BackendServer* backend = d->fleet_->anchor()->backend();
    d->books_upto_ = PrefixCounts(backend->table("Books"), kBooks);
    d->reviews_upto_ = PrefixCounts(backend->table("Reviews"), kBooks);
  } else {
    d->single_ = std::make_unique<rcc::RccSystem>();
    if (sink != nullptr) d->single_->SetHistorySink(sink);
    rcc::TpcdConfig tc;
    tc.scale = kTpcdScale;
    RCC_RETURN_NOT_OK(rcc::LoadTpcd(d->single_.get(), tc));
    RCC_RETURN_NOT_OK(rcc::SetupPaperCache(d->single_.get()));
    d->orders_upto_ =
        PrefixCounts(d->single_->backend()->table("Orders"),
                     rcc::TpcdCustomerCount(tc));
  }
  return d;
}

Deployment::~Deployment() {
  EndServing();
  if (sink_ == nullptr) return;
  if (fleet_ != nullptr) fleet_->SetHistorySink(nullptr);
  if (single_ != nullptr) single_->SetHistorySink(nullptr);
}

rcc::RccSystem* Deployment::system() {
  return fleet_ != nullptr ? fleet_->anchor() : single_.get();
}

std::unique_ptr<rcc::Session> Deployment::NewSession() {
  return fleet_ != nullptr ? fleet_->CreateSession()
                           : single_->CreateSession();
}

rcc::StatementRouter* Deployment::router() {
  return fleet_ != nullptr ? fleet_->router() : nullptr;
}

void Deployment::BeginServing() {
  if (fleet_ != nullptr && !serving_) fleet_->BeginConcurrentBatch();
  serving_ = true;
}

void Deployment::EndServing() {
  if (fleet_ != nullptr && serving_) fleet_->EndConcurrentBatch();
  serving_ = false;
}

std::vector<std::vector<Statement>> Deployment::MakeStreams(
    uint64_t seed) const {
  const WorkloadParams params = ParamsFor(workload_);
  std::vector<std::vector<Statement>> streams(kConnections);
  const int64_t customers = static_cast<int64_t>(orders_upto_.size()) - 2;

  std::vector<int64_t> hot;
  if (workload_ == Workload::kPointHot) {
    rcc::Rng rng = StreamRng(seed, 1000);
    std::unordered_set<int64_t> seen;
    while (static_cast<int>(hot.size()) < kHotKeys) {
      int64_t k = rng.Uniform(1, customers);
      if (seen.insert(k).second) hot.push_back(k);
    }
  }

  for (int c = 0; c < kConnections; ++c) {
    rcc::Rng rng = StreamRng(seed, static_cast<uint64_t>(c));
    std::vector<Statement>& out = streams[c];
    out.reserve(static_cast<size_t>(params.stream_length));
    for (int i = 0; i < params.stream_length; ++i) {
      switch (workload_) {
        case Workload::kPointHot:
          out.push_back(Point(
              StmtKind::kCustomerPoint,
              hot[static_cast<size_t>(rng.Uniform(0, kHotKeys - 1))],
              kCustomerPointSql, "10 MIN"));
          break;
        case Workload::kCurrencyRw:
          if (i % 20 == 19) {
            out.push_back(Update(StmtKind::kCustomerUpdate,
                                 rng.Uniform(1, customers),
                                 kCustomerUpdateSql));
          } else if (rng.Uniform(0, 1) == 0) {
            out.push_back(Point(StmtKind::kCustomerPoint,
                                rng.Uniform(1, customers), kCustomerPointSql,
                                "12 SEC"));
          } else {
            out.push_back(Range(StmtKind::kOrdersRange,
                                rng.Uniform(1, customers - kOrdersSpan + 1),
                                kOrdersSpan, orders_upto_, kOrdersRangeSql));
          }
          break;
        case Workload::kFleetRouted:
          // bench_fleet_routing's pool, cycled, with seeded keys.
          if (i % 3 == 0) {
            out.push_back(Point(StmtKind::kBooksPoint,
                                rng.Uniform(1, kBooks), kBooksPointSql,
                                "5 SECONDS"));
          } else if (i % 3 == 1) {
            out.push_back(Range(StmtKind::kBooksRange,
                                rng.Uniform(1, kBooks - kBooksSpan + 1),
                                kBooksSpan, books_upto_, kBooksRangeSql));
          } else {
            out.push_back(Range(StmtKind::kReviewsRange,
                                rng.Uniform(1, kBooks - kReviewsSpan + 1),
                                kReviewsSpan, reviews_upto_,
                                kReviewsRangeSql));
          }
          break;
      }
    }
  }
  return streams;
}

std::vector<Statement> Deployment::MakeWriteProbe(uint64_t seed) const {
  rcc::Rng rng = StreamRng(seed, 2000);
  const bool fleet = workload_ == Workload::kFleetRouted;
  const int64_t first_key =
      fleet ? kBooks + 1 : static_cast<int64_t>(orders_upto_.size()) - 1;
  std::vector<Statement> out;
  out.reserve(kWriteProbeLength);
  for (int i = 0; i < kWriteProbeLength; ++i) {
    Statement st;
    st.kind = fleet ? StmtKind::kBooksInsert : StmtKind::kCustomerInsert;
    st.key = st.last = first_key + i;
    const auto key = static_cast<long long>(st.key);
    const auto units = static_cast<long long>(rng.Uniform(1, 999));
    const auto cents = static_cast<long long>(rng.Uniform(0, 99));
    st.sql = fleet ? StrPrintf(kBooksInsertSql, key, key, units, cents,
                               static_cast<long long>(rng.Uniform(0, 50)))
                   : StrPrintf(kCustomerInsertSql, key, key,
                               static_cast<long long>(rng.Uniform(0, 24)),
                               units, cents);
    out.push_back(std::move(st));
  }
  return out;
}

Replay::Replay(Deployment* deployment,
               const std::vector<std::vector<Statement>>* streams)
    : deployment_(deployment),
      streams_(streams),
      params_(ParamsFor(deployment->workload())) {
  for (size_t c = 0; c < streams->size(); ++c) {
    sessions_.push_back(deployment->NewSession());
  }
}

rcc::Status Replay::Warmup() {
  deployment_->system()->AdvanceBy(kWarmupAdvanceMs);
  const int64_t total =
      static_cast<int64_t>(params_.warmup_per_connection) * kConnections;
  while (position_ < total) {
    const Statement& st = statement();
    if (CheckAnswer(st, session()->Execute(st.sql)) != Verdict::kOk) {
      return rcc::Status::Internal("warm-up statement answered wrongly: " +
                                   st.sql);
    }
    if (Done()) StepClock();
  }
  return rcc::Status::OK();
}

const Statement& Replay::statement() const {
  const size_t n = streams_->size();
  const std::vector<Statement>& s = (*streams_)[position_ % n];
  return s[(position_ / n) % s.size()];
}

rcc::Session* Replay::session() {
  return sessions_[position_ % sessions_.size()].get();
}

bool Replay::Done() {
  ++position_;
  return params_.clock_every > 0 && position_ % params_.clock_every == 0;
}

void Replay::StepClock() { deployment_->system()->AdvanceBy(kClockStepMs); }

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  if (rank > 0) --rank;
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank),
                   samples.end());
  return samples[rank];
}

}  // namespace perfbench
