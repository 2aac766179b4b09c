#include "wire_run.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "host.h"

namespace perfbench {

namespace {

/// The timed window is cut into slices of this length. It runs until it has
/// collected the requested time in quiet slices (or the longest stretch
/// allowed), and the timing metrics come from the quietest slices alone:
/// read_qps is their median rate. A burst of load from another tenant of
/// the host then lengthens the run instead of moving the result.
constexpr double kSliceSeconds = 0.1;
constexpr int kMaxStretch = 2;
/// Leading slices (the first second) of the timed window never used: new
/// server threads first touch their allocator arenas and the socket path
/// there.
constexpr int kSettleSlices = 10;
/// Quiet slices that suffice on their own when the window hits its longest
/// stretch before collecting the requested number.
constexpr int kMinQuietSlices = 10;
/// Clock steps of the timed window over which local_serve_pct is counted.
constexpr int64_t kShareSteps = 120;

}  // namespace

WireBench::WireBench(Deployment* deployment,
                     const std::vector<std::vector<Statement>>* streams,
                     std::string socket_path)
    : deployment_(deployment),
      streams_(streams),
      params_(ParamsFor(deployment->workload())),
      socket_path_(std::move(socket_path)),
      clients_(kConnections),
      local_(deployment->system()->metrics().counter("rcc.switch.local")) {
  for (const std::vector<Statement>& stream : *streams) {
    feeds_.push_back(Feed{&stream, 0});
  }
}

WireBench::~WireBench() { Stop(); }

rcc::Status WireBench::Start() {
  rcc::server::ServerOptions so;
  so.uds_path = socket_path_;
  so.workers = kServerWorkers;
  server_ = std::make_unique<rcc::server::RccServer>(deployment_->system(), so);
  if (deployment_->router() != nullptr) {
    server_->SetRouter(deployment_->router());
  }
  deployment_->BeginServing();
  RCC_RETURN_NOT_OK(server_->Start());
  for (rcc::server::RccClient& client : clients_) {
    RCC_RETURN_NOT_OK(client.ConnectUds(socket_path_));
    auto hello = client.Hello("perfbench");
    if (!hello.ok()) return hello.status();
  }
  return rcc::Status::OK();
}

void WireBench::Stop() {
  for (rcc::server::RccClient& client : clients_) client.Close();
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
  deployment_->EndServing();
}

Verdict WireBench::RoundTrip(int conn, const Statement& st, double* us) {
  int64_t t0 = NowNs();
  auto response = clients_[conn].Query(st.sql);
  *us = static_cast<double>(NowNs() - t0) / 1000.0;
  if (!response.ok()) return Verdict::kFailed;
  return CheckAnswer(st, response->status.code, response->rows,
                     response->status.rows_affected);
}

void WireBench::Loop(int conn, Feed* feed, int64_t start_ns, int64_t slice_ns,
                     const std::atomic<bool>* stop, std::atomic<int>* live,
                     Recorder* rec, Counts* counts) {
  const std::vector<Statement>& stream = *feed->stream;
  while (NowNs() < start_ns) std::this_thread::yield();
  while (!stop->load(std::memory_order_relaxed) &&
         (feed->cycled || feed->pos < stream.size())) {
    const Statement& st = stream[feed->pos];
    feed->pos = feed->cycled ? (feed->pos + 1) % stream.size() : feed->pos + 1;
    double us = 0;
    Verdict v = RoundTrip(conn, st, &us);
    counts->Record(v);
    if (v == Verdict::kOk) {
      const size_t k = static_cast<size_t>((NowNs() - start_ns) / slice_ns);
      std::lock_guard<std::mutex> lock(rec->mu);
      if (k >= rec->slices.size()) rec->slices.resize(k + 1);
      Slice& slice = rec->slices[k];
      if (st.is_select()) {
        slice.read_us.push_back(static_cast<float>(us));
        ++slice.selects;
      } else {
        slice.write_us.push_back(static_cast<float>(us));
      }
    }
    // Virtual time moves with completed work, never with wall time, so
    // every run walks the same staleness cycle whatever its speed.
    if (st.is_select()) selects_.fetch_add(1, std::memory_order_acq_rel);
    int64_t done = completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (params_.clock_every > 0 && done % params_.clock_every == 0) {
      {
        std::lock_guard<std::mutex> lock(marks_mu_);
        marks_.push_back(Mark{done, selects_.load(), local_->value()});
      }
      server_->AdvanceVirtualTime(kClockStepMs);
    }
  }
  live->fetch_sub(1, std::memory_order_acq_rel);
}

rcc::Status WireBench::Warmup() {
  // In-process and single-threaded, before the server starts: the plan
  // cache is system-wide, and this keeps set-up time free of the thread
  // wake-ups that make wire traffic sensitive to host load.
  Replay replay(deployment_, streams_);
  RCC_RETURN_NOT_OK(replay.Warmup());
  completed_ = replay.position();
  for (Feed& feed : feeds_) {
    feed.pos = static_cast<size_t>(replay.position() / kConnections) %
               feed.stream->size();
  }
  return rcc::Status::OK();
}

WireResult WireBench::RunTimed(double seconds) {
  return RunWindow(&feeds_, seconds, kSettleSlices);
}

WireResult WireBench::RunWriteProbe(const std::vector<Statement>& probe,
                                    double seconds) {
  std::vector<Feed> feeds{Feed{&probe, 0, false}};
  return RunWindow(&feeds, seconds, 0);
}

WireResult WireBench::RunWindow(std::vector<Feed>* feeds, double seconds,
                                int settle_slices) {
  const int connections = static_cast<int>(feeds->size());
  const Mark first{completed_.load(), selects_.load(), local_->value()};
  const int needed =
      std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
  const int64_t slice_ns = static_cast<int64_t>(kSliceSeconds * 1e9);

  std::vector<Recorder> recorders(connections);
  std::vector<Counts> counts(connections);
  std::atomic<bool> stop{false};
  std::atomic<int> live{connections};
  std::vector<std::thread> threads;
  const int64_t start = NowNs() + 2000000;  // every loop starts together
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(
        [this, c, feeds, start, slice_ns, &stop, &live, &recorders, &counts] {
          Loop(c, &(*feeds)[c], start, slice_ns, &stop, &live, &recorders[c],
               &counts[c]);
        });
  }
  // Steal time at every slice boundary; this thread sleeps in between, so
  // it takes no measurable CPU from the loops. Slices are ranked by steal
  // (settling slices rank as fully stolen: never used, never quiet) and the
  // `needed` best are kept.
  std::vector<CpuTicks> ticks;
  std::vector<double> steal;
  std::vector<int> ranked;  // finished slices, least steal first
  int quiet = 0;
  for (int k = 0;; ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + k * slice_ns)));
    ticks.push_back(ReadCpuTicks());
    if (k == 0) continue;
    const int j = k - 1;
    steal.push_back(j < settle_slices ? 1.0
                                      : StealShare(ticks[j], ticks[k]));
    if (steal[j] <= kQuietSteal) ++quiet;
    ranked.insert(std::upper_bound(ranked.begin(), ranked.end(), j,
                                   [&steal](int a, int b) {
                                     return steal[a] < steal[b];
                                   }),
                  j);
    if (static_cast<int>(ranked.size()) > needed) {
      const size_t drop = static_cast<size_t>(ranked.back());
      ranked.pop_back();
      for (Recorder& rec : recorders) {
        std::lock_guard<std::mutex> lock(rec.mu);
        if (drop < rec.slices.size()) rec.slices[drop] = Slice();
      }
    }
    if (quiet >= needed || k >= settle_slices + needed * kMaxStretch ||
        live.load(std::memory_order_acquire) == 0) {
      break;
    }
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  WireResult out;
  out.window_s = static_cast<double>(steal.size()) * kSliceSeconds;
  out.steal_pct = 100.0 * StealShare(ticks.front(), ticks.back());
  // When the window hit its longest stretch, a handful of quiet slices
  // still beats filling up with stolen ones.
  const size_t used =
      quiet >= kMinQuietSlices ? static_cast<size_t>(std::min(quiet, needed))
                               : ranked.size();
  std::vector<double> rates;
  for (size_t i = 0; i < used; ++i) {
    const int j = ranked[i];
    int64_t selects = 0;
    for (const Recorder& rec : recorders) {
      if (static_cast<size_t>(j) >= rec.slices.size()) continue;
      const Slice& slice = rec.slices[j];
      out.read_us.insert(out.read_us.end(), slice.read_us.begin(),
                         slice.read_us.end());
      out.write_us.insert(out.write_us.end(), slice.write_us.begin(),
                          slice.write_us.end());
      selects += slice.selects;
    }
    rates.push_back(static_cast<double>(selects) / kSliceSeconds);
  }
  for (const Counts& c : counts) out.counts.Add(c);
  out.quiet_slices = std::min(quiet, needed);
  out.read_qps = Median(rates);
  // The local share is taken over the first kShareSteps clock steps of the
  // window (the whole window when the clock is frozen): a fixed statement
  // range, so runs of one seed agree to within one step's statements.
  Mark last{completed_.load(), selects_.load(), local_->value()};
  if (params_.clock_every > 0) {
    std::lock_guard<std::mutex> lock(marks_mu_);
    const int64_t goal = first.completed + kShareSteps * params_.clock_every;
    for (const Mark& m : marks_) {
      if (m.completed > first.completed && m.completed <= goal) last = m;
    }
    out.share_steps = (last.completed - first.completed) / params_.clock_every;
  }
  out.share_selects = last.selects - first.selects;
  out.local_serve_pct =
      last.selects > first.selects
          ? 100.0 * static_cast<double>(last.local - first.local) /
                static_cast<double>(last.selects - first.selects)
          : 0;
  return out;
}

}  // namespace perfbench
