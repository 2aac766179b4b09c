#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <thread>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace rcc {
namespace server {

namespace {

/// How many rows one kRows frame carries. Chunking keeps any single frame
/// far below max_frame_bytes and lets slow clients stream large results.
constexpr size_t kRowsPerFrame = 256;

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// First keyword of a statement, lower-cased ASCII.
std::string FirstWord(const std::string& sql) {
  size_t i = 0;
  while (i < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  size_t j = i;
  while (j < sql.size() &&
         (std::isalnum(static_cast<unsigned char>(sql[j])) || sql[j] == '_')) {
    ++j;
  }
  return ToLower(std::string_view(sql).substr(i, j - i));
}

/// DML mutates the back-end master tables that remote branches scan, so it
/// needs the engine exclusively; everything else shares.
bool NeedsExclusiveEngine(const std::string& first_word) {
  return first_word == "insert" || first_word == "update" ||
         first_word == "delete";
}

StatusFramePayload StatusFromResult(const Result<QueryResult>& result) {
  StatusFramePayload out;
  if (!result.ok()) {
    out.code = static_cast<uint16_t>(result.status().code());
    out.message = result.status().message();
    return out;
  }
  const QueryResult& qr = *result;
  out.message = qr.message;
  out.degraded = qr.degraded;
  out.staleness_ms = qr.staleness_ms;
  out.rows_affected = qr.rows_affected;
  out.executed_at = qr.executed_at;
  if (!qr.advisory.ok()) out.advisory = qr.advisory.ToString();
  return out;
}

}  // namespace

/// Per-connection state. Only the owning loop's thread touches it: the
/// socket, the decoder, the Session and the unsent answers.
struct RccServer::Connection {
  explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

  int fd = -1;
  FrameDecoder decoder;
  std::unique_ptr<Session> session;
  bool hello_done = false;

  /// Prepared statements: id -> SQL text. Executing re-enters through the
  /// plan cache, whose L1 exact-text tier makes re-execution skip even the
  /// lexer.
  std::map<uint32_t, std::string> prepared;
  uint32_t next_stmt_id = 1;

  /// Answers not yet written to the socket: out[out_offset..].
  std::string out;
  size_t out_offset = 0;
  /// No further frames are decoded (GOODBYE or a framing error seen).
  bool closing = false;
  /// Close once `out` flushes (goodbye or protocol error); frames still
  /// queued behind it are dropped.
  bool close_after_flush = false;
  /// Unsent bytes passed max_write_queue_bytes: the socket is not read and
  /// the connection's statements wait in `parked` until EPOLLOUT drains it.
  bool paused = false;
  std::deque<Task> parked;
  bool closed = false;
  /// The epoll interest currently registered.
  uint32_t events = EPOLLIN;

  size_t unsent() const { return out.size() - out_offset; }
};

/// One decoded frame waiting in its loop's run queue.
struct RccServer::Task {
  ConnPtr conn;
  Frame frame;
  std::chrono::steady_clock::time_point decoded_at;
  /// Holds an in_flight_ slot (an admitted statement or a PREPARE).
  bool counted = false;
  /// The decoder lost framing; `frame.payload` holds the reason, answered
  /// in order as a protocol error.
  bool decode_error = false;
};

struct RccServer::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;
  /// Live connections by fd. Loop thread only.
  std::map<int, ConnPtr> conns;
  /// Decoded frames in decode order. Loop thread only; empty between passes.
  std::deque<Task> run_queue;
  /// Connections accepted by loop 0 for this loop, handed over with a
  /// wake_fd write.
  std::mutex inbox_mu;
  std::vector<ConnPtr> inbox;
  std::thread thread;
};

RccServer::RccServer(RccSystem* system, ServerOptions options)
    : system_(system), opts_(std::move(options)) {}

RccServer::~RccServer() { Stop(); }

Status RccServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }
  stopping_.store(false, std::memory_order_release);

  // Listening socket: UDS when a path is given, loopback TCP otherwise.
  if (!opts_.uds_path.empty()) {
    sockaddr_un addr{};
    if (opts_.uds_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("uds path too long: " + opts_.uds_path);
    }
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
    unlink(opts_.uds_path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status st = Status::Internal("bind " + opts_.uds_path + ": " +
                                   strerror(errno));
      close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.port);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status st = Status::Internal("bind port " + std::to_string(opts_.port) +
                                   ": " + strerror(errno));
      close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
    bound_port_ = ntohs(bound.sin_port);
  }
  if (listen(listen_fd_, 4096) != 0 || !SetNonBlocking(listen_fd_)) {
    Status st = Status::Internal("listen: " + std::string(strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  const int workers =
      opts_.workers > 0 ? opts_.workers : ThreadPool::DefaultWorkers();
  for (int i = 0; i < workers; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    bool ok = loop->epoll_fd >= 0 && loop->wake_fd >= 0 &&
              epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) == 0;
    if (ok && i == 0) {
      ev.data.fd = listen_fd_;
      ok = epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) == 0;
    }
    loops_.push_back(std::move(loop));
    if (!ok) {
      CloseLoops();
      return Status::Internal("epoll/eventfd setup failed");
    }
  }

  // Instruments (stable pointers; recording is lock-free afterwards).
  obs::MetricsRegistry& m = system_->metrics();
  inst_.connections_total = m.counter("rcc.server.connections_total");
  inst_.frames_rx = m.counter("rcc.server.frames_rx");
  inst_.frames_tx = m.counter("rcc.server.frames_tx");
  inst_.bytes_rx = m.counter("rcc.server.bytes_rx");
  inst_.bytes_tx = m.counter("rcc.server.bytes_tx");
  inst_.queries = m.counter("rcc.server.queries");
  inst_.prepares = m.counter("rcc.server.prepares");
  inst_.executes = m.counter("rcc.server.executes");
  inst_.sets = m.counter("rcc.server.sets");
  inst_.protocol_errors = m.counter("rcc.server.protocol_errors");
  inst_.accept_rejected = m.counter("rcc.server.accept_rejected");
  inst_.backpressure_stalls = m.counter("rcc.server.backpressure_stalls");
  inst_.dropped_responses = m.counter("rcc.server.dropped_responses");
  inst_.overload_rejected = m.counter("rcc.server.overload_rejected");
  inst_.deadline_timeouts = m.counter("rcc.server.deadline_timeouts");
  inst_.shed_statements = m.counter("rcc.server.shed_statements");
  inst_.connections_open = m.gauge("rcc.server.connections_open");
  inst_.in_flight = m.gauge("rcc.server.in_flight");
  inst_.statement_ms = m.histogram("rcc.server.statement_ms");
  inst_.queue_delay_ms = m.histogram("rcc.server.queue_delay_ms");

  // The engine serves every connection under the concurrent-batch contract:
  // frozen virtual clock, epoch-pinned snapshot reads, serialized remote
  // channel. Nested Begin/End (e.g. a Session::ExecuteBatch dispatched by a
  // driver) must not unfreeze the server, hence the counted semantics.
  system_->cache()->BeginConcurrentBatch();

  // Admission defaults to a small multiple of the loop count: deep enough
  // to absorb bursts, shallow enough that queue delay stays bounded by a
  // few statement times rather than growing without limit.
  admission_limit_ =
      opts_.admission_limit > 0 ? opts_.admission_limit : workers * 16;
  running_.store(true, std::memory_order_release);
  loops_running_ = workers;
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { RunLoop(l); });
  }
  return Status::OK();
}

void RccServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) Wake(loop.get());

  // Each loop stops accepting, runs what it has queued, flushes, and exits
  // once nothing is left to answer; past the deadline they are forced out.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait_until(
        lock,
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(opts_.drain_timeout_ms),
        [this] { return loops_running_ == 0; });
  }
  running_.store(false, std::memory_order_release);
  for (auto& loop : loops_) Wake(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  CloseLoops();
  if (!opts_.uds_path.empty()) unlink(opts_.uds_path.c_str());

  system_->cache()->EndConcurrentBatch();
}

void RccServer::CloseLoops() {
  for (auto& loop : loops_) {
    // A connection handed over while its loop was already exiting.
    for (const ConnPtr& conn : loop->inbox) {
      close(conn->fd);
      connections_open_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (loop->epoll_fd >= 0) close(loop->epoll_fd);
    if (loop->wake_fd >= 0) close(loop->wake_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

void RccServer::AdvanceVirtualTime(SimTimeMs delta) {
  // Exclusive engine access quiesces every in-flight statement; the
  // scheduler and clock are then safe to run single-threaded.
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  system_->cache()->EndConcurrentBatch();
  system_->AdvanceBy(delta);
  system_->cache()->BeginConcurrentBatch();
}

void RccServer::Wake(Loop* loop) {
  uint64_t one = 1;
  ssize_t ignored = write(loop->wake_fd, &one, sizeof(one));
  (void)ignored;
}

void RccServer::RunLoop(Loop* loop) {
  std::vector<epoll_event> events(256);
  bool draining = false;
  for (;;) {
    // Stop() flips running_ off once the drain deadline passes — force exit.
    if (!running_.load(std::memory_order_acquire)) break;
    if (stopping_.load(std::memory_order_acquire)) {
      if (!draining && loop == loops_[0].get()) {
        epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      }
      draining = true;
      if (Drained(loop)) break;
    }

    int n = epoll_wait(loop->epoll_fd, events.data(),
                       static_cast<int>(events.size()), 50);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == loop->wake_fd) {
        uint64_t junk;
        while (read(loop->wake_fd, &junk, sizeof(junk)) > 0) {
        }
        std::vector<ConnPtr> handed;
        {
          std::lock_guard<std::mutex> lock(loop->inbox_mu);
          handed.swap(loop->inbox);
        }
        for (ConnPtr& conn : handed) Adopt(loop, std::move(conn));
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept(loop);
        continue;
      }
      auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;
      ConnPtr conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(loop, conn);
      if (events[i].events & EPOLLIN) HandleReadable(loop, conn);
    }
    RunQueue(loop);
  }

  // Loop exit: force-close every connection (all answered and flushed, or
  // the drain deadline passed). The run queue is empty between passes.
  std::vector<ConnPtr> leftover;
  leftover.reserve(loop->conns.size());
  for (auto& [fd, conn] : loop->conns) leftover.push_back(conn);
  for (const ConnPtr& conn : leftover) CloseConnection(loop, conn);
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    --loops_running_;
  }
  drain_cv_.notify_all();
}

bool RccServer::Drained(Loop* loop) {
  {
    std::lock_guard<std::mutex> lock(loop->inbox_mu);
    if (!loop->inbox.empty()) return false;
  }
  for (auto& [fd, conn] : loop->conns) {
    if (!conn->parked.empty() || conn->unsent() > 0) return false;
    // Requests a client sent before we stopped accepting may still sit
    // unread in the socket buffer (level-triggered EPOLLIN hands them to us
    // next iteration) — closing now would RST them away.
    int unread = 0;
    if (ioctl(fd, FIONREAD, &unread) == 0 && unread > 0) return false;
  }
  return true;
}

void RccServer::HandleAccept(Loop* loop) {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    if (connections_open_.load(std::memory_order_relaxed) >=
            opts_.max_connections ||
        stopping_.load(std::memory_order_acquire)) {
      inst_.accept_rejected->Add();
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(opts_.max_frame_bytes);
    conn->fd = fd;
    inst_.connections_total->Add();
    inst_.connections_open->Set(static_cast<double>(
        connections_open_.fetch_add(1, std::memory_order_relaxed) + 1));
    // Round-robin ownership: the connection lives on one loop from here on.
    Loop* owner = loops_[next_loop_++ % loops_.size()].get();
    if (owner == loop) {
      Adopt(loop, std::move(conn));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(owner->inbox_mu);
      owner->inbox.push_back(std::move(conn));
    }
    Wake(owner);
  }
}

void RccServer::Adopt(Loop* loop, ConnPtr conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd;
  epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev);
  loop->conns[conn->fd] = std::move(conn);
}

void RccServer::HandleReadable(Loop* loop, const ConnPtr& conn) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      inst_.bytes_rx->Add(n);
      if (!conn->closing) conn->decoder.Feed(buf, static_cast<size_t>(n));
      if (static_cast<ssize_t>(sizeof(buf)) > n) break;  // drained socket
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer closed (or hard error) — possibly mid-frame or with statements
    // still queued; they are dropped unexecuted.
    CloseConnection(loop, conn);
    return;
  }
  const auto decoded_at = std::chrono::steady_clock::now();
  while (!conn->closing) {
    Task task{conn, Frame{}, decoded_at};
    std::string error;
    FrameDecoder::Next next = conn->decoder.Pop(&task.frame, &error);
    if (next == FrameDecoder::Next::kNeedMore) return;
    if (next == FrameDecoder::Next::kError) {
      conn->closing = true;  // framing is lost; answer in order, then close
      task.decode_error = true;
      task.frame.payload = std::move(error);
    } else {
      inst_.frames_rx->Add();
      if (task.frame.op == Opcode::kGoodbye) conn->closing = true;
      task.counted = Admit(task.frame.op);
    }
    loop->run_queue.push_back(std::move(task));
  }
}

bool RccServer::Admit(Opcode op) {
  if (op != Opcode::kQuery && op != Opcode::kQueryDeadline &&
      op != Opcode::kExecute && op != Opcode::kPrepare) {
    return false;
  }
  // Admission control counts every decoded statement still queued in any
  // loop plus the running ones. Past the limit the statement is refused
  // with a structured, retryable status when its turn comes — never run,
  // never a disconnect. PREPARE only validates, so it is not gated.
  int before = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (before >= admission_limit_ && op != Opcode::kPrepare) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  inst_.in_flight->Set(before + 1);
  return true;
}

void RccServer::Release(Task& task) {
  if (!task.counted) return;
  task.counted = false;
  inst_.in_flight->Set(in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1);
}

void RccServer::Drop(Task& task) {
  inst_.dropped_responses->Add();
  Release(task);
}

void RccServer::RunQueue(Loop* loop) {
  std::deque<Task>& queue = loop->run_queue;
  while (!queue.empty()) {
    Task task = std::move(queue.front());
    queue.pop_front();
    Connection& conn = *task.conn;
    if (conn.closed || conn.close_after_flush) {
      Drop(task);
      continue;
    }
    if (conn.paused) {
      conn.parked.push_back(std::move(task));
      continue;
    }
    RunTask(conn, task);
    Release(task);
    // Answers to one connection's consecutive statements go out in one
    // write. Past the bound the connection pauses: nothing more of it is
    // read or run until EPOLLOUT drains it back within the bound.
    if (conn.unsent() > opts_.max_write_queue_bytes) {
      conn.paused = true;
      inst_.backpressure_stalls->Add();
    }
    if (conn.paused || conn.close_after_flush || queue.empty() ||
        queue.front().conn != task.conn) {
      Flush(loop, task.conn);
      if (!conn.closed) Arm(loop, conn);
    }
  }
}

void RccServer::RunTask(Connection& conn, Task& task) {
  Frame& frame = task.frame;
  if (task.decode_error) {
    ProtocolError(conn, 0, frame.payload);
    return;
  }
  if (!IsClientOpcode(static_cast<uint8_t>(frame.op))) {
    ProtocolError(conn, frame.seq,
                  "unknown opcode " +
                      std::to_string(static_cast<unsigned>(frame.op)));
    return;
  }
  if (!conn.hello_done && frame.op != Opcode::kHello) {
    ProtocolError(conn, frame.seq, "first frame must be HELLO");
    return;
  }
  switch (frame.op) {
    case Opcode::kHello: {
      if (conn.hello_done) {
        ProtocolError(conn, frame.seq, "duplicate HELLO");
        return;
      }
      uint16_t version;
      std::string client_name;
      Status st = DecodeHelloPayload(frame.payload, &version, &client_name);
      if (!st.ok()) {
        ProtocolError(conn, frame.seq, st.message());
        return;
      }
      if (version != kProtocolVersion) {
        ProtocolError(conn, frame.seq,
                      "unsupported protocol version " +
                          std::to_string(version));
        return;
      }
      conn.session = system_->CreateSession();
      if (router_ != nullptr) conn.session->set_router(router_);
      conn.hello_done = true;
      AppendFrame(&conn.out, Opcode::kHelloOk, frame.seq,
                  EncodeHelloOkPayload(kProtocolVersion, conn.session->id(),
                                       "rcc-server/1 (relaxed C&C cache)"));
      inst_.frames_tx->Add();
      return;
    }
    case Opcode::kSet: {
      // SET runs in arrival order like every frame; statements of other
      // connections may interleave with it, which is the interleaving
      // Session's atomic control state exists for. Only SET is allowed
      // here; statements must use kQuery.
      if (FirstWord(frame.payload) != "set") {
        ProtocolError(conn, frame.seq, "SET frame must carry a SET statement");
        return;
      }
      inst_.sets->Add();
      std::shared_lock<std::shared_mutex> engine(engine_mu_);
      Result<QueryResult> result = conn.session->Execute(frame.payload);
      engine.unlock();
      SendStatus(conn, frame.seq, StatusFromResult(result));
      return;
    }
    case Opcode::kQuery:
    case Opcode::kQueryDeadline:
    case Opcode::kExecute: {
      const std::string* sql = &frame.payload;
      std::string deadline_sql;
      int64_t deadline_ms = 0;
      if (frame.op == Opcode::kExecute) {
        uint32_t stmt_id;
        WireReader r(frame.payload);
        if (!r.U32(&stmt_id) || !r.AtEnd()) {
          ProtocolError(conn, frame.seq, "malformed EXECUTE payload");
          return;
        }
        auto it = conn.prepared.find(stmt_id);
        if (it == conn.prepared.end()) {
          StatusFramePayload status;
          status.code = static_cast<uint16_t>(StatusCode::kNotFound);
          status.message =
              "unknown prepared statement id " + std::to_string(stmt_id);
          SendStatus(conn, frame.seq, status);
          return;
        }
        sql = &it->second;
        inst_.executes->Add();
      } else if (frame.op == Opcode::kQueryDeadline) {
        uint32_t wire_deadline = 0;
        Status st = DecodeQueryDeadlinePayload(frame.payload, &wire_deadline,
                                               &deadline_sql);
        if (!st.ok()) {
          ProtocolError(conn, frame.seq, st.message());
          return;
        }
        sql = &deadline_sql;
        deadline_ms = wire_deadline;
        inst_.queries->Add();
      } else {
        inst_.queries->Add();
      }
      if (!task.counted) {
        inst_.overload_rejected->Add();
        StatusFramePayload status;
        status.code = static_cast<uint16_t>(StatusCode::kOverloaded);
        status.message = "admission queue full (" +
                         std::to_string(admission_limit_) +
                         " statements in flight); retry after backoff";
        SendStatus(conn, frame.seq, status);
        return;
      }
      RunStatement(conn, frame.seq, *sql, deadline_ms, task.decoded_at);
      return;
    }
    case Opcode::kPrepare:
      inst_.prepares->Add();
      RunPrepare(conn, frame.seq, std::move(frame.payload));
      return;
    case Opcode::kGoodbye:
      conn.close_after_flush = true;
      return;
    default:
      ProtocolError(conn, frame.seq, "server-side opcode from client");
      return;
  }
}

void RccServer::RunStatement(
    Connection& conn, uint32_t seq, const std::string& sql, int64_t deadline_ms,
    std::chrono::steady_clock::time_point decoded_at) {
  auto t0 = std::chrono::steady_clock::now();
  const int64_t queue_delay_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(t0 - decoded_at)
          .count();
  inst_.queue_delay_ms->Observe(static_cast<double>(queue_delay_ms));

  // Second admission gate, at the start of the run: a statement that waited
  // past the queue-delay bound is refused rather than executed — running it
  // now only deepens the backlog that delayed it, and its client has likely
  // timed out or retried already. Same structured, retryable refusal as the
  // admission limit; the connection stays open.
  if (opts_.max_queue_delay_ms > 0 &&
      queue_delay_ms > opts_.max_queue_delay_ms) {
    inst_.overload_rejected->Add();
    StatusFramePayload status;
    status.code = static_cast<uint16_t>(StatusCode::kOverloaded);
    status.message = "admission queue delay " +
                     std::to_string(queue_delay_ms) + "ms exceeds " +
                     std::to_string(opts_.max_queue_delay_ms) +
                     "ms; retry after backoff";
    SendStatus(conn, seq, status);
    return;
  }

  Session::StatementOptions sopts;
  sopts.enqueued_at = decoded_at;
  sopts.deadline_ms = deadline_ms;
  sopts.default_deadline_ms = opts_.default_deadline_ms;
  // C&C-aware shedding: under queue pressure, ask the executor to prefer
  // the degraded-local branch — it serves only when the statement's
  // currency bound and timeline floor permit (guard semantics intact),
  // trading an authorized bounded-staleness answer for a remote round-trip.
  sopts.shed_hint = opts_.shed_queue_delay_ms > 0 &&
                    queue_delay_ms > opts_.shed_queue_delay_ms;

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (NeedsExclusiveEngine(FirstWord(sql))) {
      std::unique_lock<std::shared_mutex> engine(engine_mu_);
      return conn.session->Execute(sql, sopts);
    }
    std::shared_lock<std::shared_mutex> engine(engine_mu_);
    return conn.session->Execute(sql, sopts);
  }();
  inst_.statement_ms->Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (result.ok()) {
    if (result->stats.shed_serves > 0) inst_.shed_statements->Add();
  } else if (result.status().IsDeadlineExceeded()) {
    inst_.deadline_timeouts->Add();
  }

  // The whole answer is appended contiguously: header, row frames, terminal
  // status, so pipelined answers of one connection never interleave.
  size_t frames = 0;
  if (result.ok() && !result->layout.slots().empty()) {
    AppendFrame(&conn.out, Opcode::kRowsHeader, seq,
                EncodeRowsHeaderPayload(result->layout));
    ++frames;
    const std::vector<Row>& rows = result->rows;
    for (size_t i = 0; i < rows.size(); i += kRowsPerFrame) {
      size_t end = std::min(rows.size(), i + kRowsPerFrame);
      AppendFrame(&conn.out, Opcode::kRows, seq,
                  EncodeRowsPayload(rows, i, end));
      ++frames;
    }
  }
  AppendFrame(&conn.out, Opcode::kStatus, seq,
              EncodeStatusPayload(StatusFromResult(result)));
  inst_.frames_tx->Add(static_cast<int64_t>(frames + 1));
}

void RccServer::RunPrepare(Connection& conn, uint32_t seq, std::string sql) {
  StatusFramePayload status;
  {
    std::shared_lock<std::shared_mutex> engine(engine_mu_);
    // Prepared statements are SELECT-shaped (Session::Prepare contract);
    // validation here means kExecute can only fail at run time for
    // engine-side reasons, never parse errors.
    Result<QueryPlan> plan = conn.session->Prepare(sql);
    if (!plan.ok()) {
      status.code = static_cast<uint16_t>(plan.status().code());
      status.message = plan.status().message();
    }
  }
  if (!status.ok()) {
    SendStatus(conn, seq, status);
    return;
  }
  uint32_t stmt_id = conn.next_stmt_id++;
  conn.prepared[stmt_id] = std::move(sql);
  std::string payload;
  PutU32(&payload, stmt_id);
  AppendFrame(&conn.out, Opcode::kPrepareOk, seq, payload);
  inst_.frames_tx->Add();
}

void RccServer::SendStatus(Connection& conn, uint32_t seq,
                           const StatusFramePayload& status) {
  AppendFrame(&conn.out, Opcode::kStatus, seq, EncodeStatusPayload(status));
  inst_.frames_tx->Add();
}

void RccServer::ProtocolError(Connection& conn, uint32_t seq,
                              const std::string& message) {
  inst_.protocol_errors->Add();
  StatusFramePayload status;
  status.code = static_cast<uint16_t>(StatusCode::kInvalidArgument);
  status.message = "protocol error: " + message;
  SendStatus(conn, seq, status);
  conn.closing = true;
  conn.close_after_flush = true;
}

void RccServer::HandleWritable(Loop* loop, const ConnPtr& conn) {
  Flush(loop, conn);
  if (conn->closed) return;
  if (conn->paused && conn->unsent() <= opts_.max_write_queue_bytes) {
    // Drained back within the bound: its parked statements run next, before
    // anything newly read from it.
    conn->paused = false;
    for (Task& task : conn->parked) loop->run_queue.push_back(std::move(task));
    conn->parked.clear();
  }
  Arm(loop, *conn);
}

void RccServer::Flush(Loop* loop, const ConnPtr& conn) {
  Connection& c = *conn;
  while (c.out_offset < c.out.size()) {
    ssize_t n = send(c.fd, c.out.data() + c.out_offset, c.unsent(),
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(loop, conn);  // broken pipe etc.
      return;
    }
    inst_.bytes_tx->Add(n);
    c.out_offset += static_cast<size_t>(n);
  }
  // Drop the written prefix once it is at least half the buffer; a fully
  // written buffer keeps its capacity unless it grew large.
  if (c.out_offset * 2 >= c.out.size()) {
    c.out.erase(0, c.out_offset);
    c.out_offset = 0;
    if (c.out.empty() && c.out.capacity() > (64u << 10)) c.out.shrink_to_fit();
  }
  if (c.unsent() == 0 && c.close_after_flush) CloseConnection(loop, conn);
}

void RccServer::Arm(Loop* loop, Connection& conn) {
  const uint32_t want =
      (conn.paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
      (conn.paused || conn.unsent() > 0 ? static_cast<uint32_t>(EPOLLOUT)
                                        : 0u);
  if (want == conn.events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.events = want;
  }
}

void RccServer::CloseConnection(Loop* loop, const ConnPtr& conn) {
  if (conn->closed) return;
  conn->closed = true;
  epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  loop->conns.erase(conn->fd);
  inst_.connections_open->Set(static_cast<double>(
      connections_open_.fetch_sub(1, std::memory_order_relaxed) - 1));
  for (Task& task : conn->parked) Drop(task);
  conn->parked.clear();
  // Tasks still in the run queue are dropped when their turn comes. The
  // Session dies with the last reference, never under a running statement.
}

}  // namespace server
}  // namespace rcc
