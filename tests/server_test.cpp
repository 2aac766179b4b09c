// Network front end (DESIGN.md §14): wire-protocol framing, the
// connection -> session ownership model, pipelining, backpressure, and
// drain-on-shutdown. Malformed input must always produce a terminal status
// frame and a closed connection — never a crash, a hang, or a leaked pinned
// snapshot epoch. Registered with the `server` and `tsan` ctest labels; the
// asan preset runs it too (no label filter there).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "test_util.h"

namespace rcc {
namespace {

using server::Frame;
using server::Opcode;
using server::QueryResponse;
using server::RccClient;
using server::RccServer;
using server::ServerOptions;
using server::StatusFramePayload;
using testing_util::BookstoreFixture;

std::string TestSocketPath(const char* tag) {
  return "/tmp/rcc_server_test_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

ServerOptions WithPath(ServerOptions opts, const std::string& path) {
  opts.uds_path = path;
  if (opts.workers == 0) opts.workers = 4;
  return opts;
}

/// Fixture: a bookstore system with an RccServer listening on a UDS.
struct ServerFixture {
  BookstoreFixture book;
  std::string path;
  RccServer server;

  explicit ServerFixture(const char* tag, ServerOptions opts = {})
      : book(),
        path(TestSocketPath(tag)),
        server(&book.sys, WithPath(opts, TestSocketPath(tag))) {
    book.sys.AdvanceTo(30000);  // let both regions refresh once
    EXPECT_TRUE(server.Start().ok());
  }

  ~ServerFixture() { server.Stop(); }

  RccClient Connect() {
    RccClient c;
    EXPECT_TRUE(c.ConnectUds(path).ok());
    return c;
  }

  RccClient ConnectAndHello() {
    RccClient c = Connect();
    auto hello = c.Hello("server_test");
    EXPECT_TRUE(hello.ok()) << hello.status().ToString();
    return c;
  }

  /// Waits for the server to quiesce, then asserts no query left a snapshot
  /// epoch pinned (a pinned epoch would block snapshot reclamation forever).
  void ExpectNoEpochLeak() {
    for (int i = 0; i < 200 && server.in_flight() > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(server.in_flight(), 0);
    const SnapshotEpochManager& epochs = book.sys.cache()->epoch_manager();
    EXPECT_EQ(epochs.MinPinnedEpoch(), epochs.current_epoch());
  }
};

// -- happy path ---------------------------------------------------------------

TEST(ServerTest, HelloThenQueryRoundTrip) {
  ServerFixture fx("hello");
  RccClient c = fx.Connect();

  auto hello = c.Hello("server_test");
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->version, server::kProtocolVersion);
  EXPECT_GT(hello->session_id, 0u);
  EXPECT_FALSE(hello->banner.empty());

  auto resp = c.Query(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 10 MIN ON (B)");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->ok()) << resp->status.message;
  ASSERT_EQ(resp->columns.size(), 1u);
  EXPECT_EQ(resp->columns[0], "price");
  ASSERT_EQ(resp->rows.size(), 1u);
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, TcpLoopbackWorks) {
  BookstoreFixture book;
  book.sys.AdvanceTo(30000);
  ServerOptions opts;
  opts.workers = 2;  // TCP on an ephemeral port, no uds_path
  RccServer srv(&book.sys, opts);
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_GT(srv.port(), 0);

  RccClient c;
  ASSERT_TRUE(c.ConnectTcp("127.0.0.1", srv.port()).ok());
  ASSERT_TRUE(c.Hello("tcp").ok());
  auto resp = c.Query("SELECT count(*) FROM Books B");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->ok());
  ASSERT_EQ(resp->rows.size(), 1u);
  EXPECT_EQ(resp->rows[0][0].AsInt(), 500);
  srv.Stop();
  EXPECT_FALSE(srv.running());
}

TEST(ServerTest, StatementErrorArrivesAsStatusNotDisconnect) {
  ServerFixture fx("error");
  RccClient c = fx.ConnectAndHello();

  auto resp = c.Query("SELECT nope FROM NoSuchTable");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_FALSE(resp->ok());
  EXPECT_FALSE(resp->status.message.empty());

  // The connection survives a statement-level failure.
  auto again = c.Query("SELECT price FROM Books B WHERE B.isbn = 2");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->ok());
}

TEST(ServerTest, DmlExecutesAndIsVisibleToCurrentReads) {
  ServerFixture fx("dml");
  RccClient c = fx.ConnectAndHello();

  auto ins = c.Query(
      "INSERT INTO Books (isbn, title, price, stock) "
      "VALUES (9001, 'wire', 42, 7)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_TRUE(ins->ok()) << ins->status.message;
  EXPECT_EQ(ins->status.rows_affected, 1);

  // No currency clause: a current read served from the back-end master.
  auto sel = c.Query("SELECT price FROM Books B WHERE B.isbn = 9001");
  ASSERT_TRUE(sel.ok());
  ASSERT_TRUE(sel->ok());
  ASSERT_EQ(sel->rows.size(), 1u);
  EXPECT_EQ(sel->rows[0][0].AsInt(), 42);
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, PreparedStatementsExecuteRepeatedly) {
  ServerFixture fx("prepared");
  RccClient c = fx.ConnectAndHello();

  auto id = c.PrepareStmt(
      "SELECT price FROM Books B WHERE B.isbn = 3 "
      "CURRENCY BOUND 10 MIN ON (B)");
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto first = c.ExecuteStmt(*id);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok());
  auto second = c.ExecuteStmt(*id);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->ok());
  EXPECT_EQ(first->rows, second->rows);

  // Unknown id: a NotFound status, and the connection stays usable.
  auto missing = c.ExecuteStmt(*id + 100);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status.code,
            static_cast<uint16_t>(StatusCode::kNotFound));
  auto after = c.ExecuteStmt(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->ok());
}

TEST(ServerTest, SetDegradeIsPerConnection) {
  ServerFixture fx("degrade");
  RccClient a = fx.ConnectAndHello();
  RccClient b = fx.ConnectAndHello();

  auto set = a.Set("SET DEGRADE ALWAYS");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE(set->ok());
  EXPECT_NE(set->status.message.find("degrade mode always"),
            std::string::npos);

  // Connection B's session is untouched: its SET reports its own mode only.
  auto other = b.Set("SET DEGRADE NONE");
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->status.message.find("degrade mode none"),
            std::string::npos);

  // Both still serve queries.
  EXPECT_TRUE(a.Query("SELECT price FROM Books B WHERE B.isbn = 1")->ok());
  EXPECT_TRUE(b.Query("SELECT price FROM Books B WHERE B.isbn = 1")->ok());
}

TEST(ServerTest, AdvanceVirtualTimeWhileConnectionsOpen) {
  ServerFixture fx("advance");
  RccClient c = fx.ConnectAndHello();
  ASSERT_TRUE(c.Query("SELECT price FROM Books B WHERE B.isbn = 1")->ok());

  fx.server.AdvanceVirtualTime(10000);  // heartbeats and deliveries fire

  auto resp = c.Query(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 10 MIN ON (B)");
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  EXPECT_TRUE(fx.server.running());
  fx.ExpectNoEpochLeak();
}

// -- pipelining ---------------------------------------------------------------

TEST(ServerTest, PipelinedQueriesCorrelateBySeq) {
  ServerFixture fx("pipeline");
  RccClient c = fx.ConnectAndHello();

  // Send query / SET / query without reading; the SET is applied on the
  // event loop, queries on workers — responses may arrive in any order but
  // each one's frames are contiguous and tagged with its seq.
  uint32_t q1 = c.NextSeq();
  uint32_t s1 = c.NextSeq();
  uint32_t q2 = c.NextSeq();
  std::string batch;
  server::AppendFrame(&batch, Opcode::kQuery, q1,
                      "SELECT price FROM Books B WHERE B.isbn = 1");
  server::AppendFrame(&batch, Opcode::kSet, s1, "SET TRACE ON");
  server::AppendFrame(&batch, Opcode::kQuery, q2,
                      "SELECT stock FROM Books B WHERE B.isbn = 2");
  ASSERT_TRUE(c.SendRaw(batch).ok());

  std::map<uint32_t, QueryResponse> by_seq;
  for (int i = 0; i < 3; ++i) {
    uint32_t seq = 0;
    auto resp = c.ReadResponse(&seq);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    by_seq[seq] = std::move(*resp);
  }
  ASSERT_EQ(by_seq.count(q1), 1u);
  ASSERT_EQ(by_seq.count(s1), 1u);
  ASSERT_EQ(by_seq.count(q2), 1u);
  EXPECT_TRUE(by_seq[q1].ok());
  EXPECT_EQ(by_seq[q1].columns[0], "price");
  EXPECT_TRUE(by_seq[s1].ok());
  EXPECT_NE(by_seq[s1].status.message.find("trace ON"), std::string::npos);
  EXPECT_TRUE(by_seq[q2].ok());
  EXPECT_EQ(by_seq[q2].columns[0], "stock");
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, PipelinedStatementsOfOneConnectionAnswerInOrder) {
  ServerFixture fx("inorder");
  RccClient c = fx.ConnectAndHello();

  // One connection's statements run in arrival order, so their answers come
  // back in seq order even with several server threads.
  constexpr int kQueries = 24;
  std::vector<uint32_t> sent;
  std::string batch;
  for (int i = 0; i < kQueries; ++i) {
    sent.push_back(c.NextSeq());
    server::AppendFrame(&batch, Opcode::kQuery, sent.back(),
                        "SELECT price FROM Books B WHERE B.isbn = " +
                            std::to_string(i + 1));
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());
  for (int i = 0; i < kQueries; ++i) {
    uint32_t seq = 0;
    auto resp = c.ReadResponse(&seq);
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    EXPECT_TRUE(resp->ok()) << resp->status.message;
    EXPECT_EQ(seq, sent[i]) << "answer " << i;
  }
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, GoodbyeFlushesPipelinedResponsesThenCloses) {
  ServerFixture fx("goodbye");
  RccClient c = fx.ConnectAndHello();

  constexpr int kQueries = 8;
  std::string batch;
  for (int i = 0; i < kQueries; ++i) {
    server::AppendFrame(&batch, Opcode::kQuery, c.NextSeq(),
                        "SELECT price FROM Books B WHERE B.isbn = " +
                            std::to_string(i + 1));
  }
  server::AppendFrame(&batch, Opcode::kGoodbye, c.NextSeq(), "");
  ASSERT_TRUE(c.SendRaw(batch).ok());

  int ok_count = 0;
  for (int i = 0; i < kQueries; ++i) {
    auto resp = c.ReadResponse(nullptr);
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    if (resp->ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, kQueries);
  // After the flush the server closes: clean EOF, not garbage.
  auto eof = c.ReadFrame();
  EXPECT_FALSE(eof.ok());
  fx.ExpectNoEpochLeak();
}

// -- malformed input ----------------------------------------------------------

TEST(ServerTest, QueryBeforeHelloIsAProtocolError) {
  ServerFixture fx("prehello");
  RccClient c = fx.Connect();
  ASSERT_TRUE(c.SendFrame(Opcode::kQuery, 7, "SELECT 1").ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->op, Opcode::kStatus);
  StatusFramePayload status;
  ASSERT_TRUE(server::DecodeStatusPayload(frame->payload, &status).ok());
  EXPECT_EQ(status.code,
            static_cast<uint16_t>(StatusCode::kInvalidArgument));
  EXPECT_NE(status.message.find("HELLO"), std::string::npos);
  EXPECT_FALSE(c.ReadFrame().ok());  // then the server hangs up
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, DuplicateHelloIsAProtocolError) {
  ServerFixture fx("dup_hello");
  RccClient c = fx.ConnectAndHello();
  ASSERT_TRUE(
      c.SendFrame(Opcode::kHello, c.NextSeq(),
                  server::EncodeHelloPayload(server::kProtocolVersion, "again"))
          .ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->op, Opcode::kStatus);
  EXPECT_FALSE(c.ReadFrame().ok());
}

TEST(ServerTest, UnknownOpcodeClosesWithStatusFrame) {
  ServerFixture fx("opcode");
  RccClient c = fx.ConnectAndHello();
  ASSERT_TRUE(c.SendFrame(static_cast<Opcode>(0x7f), 9, "junk").ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->op, Opcode::kStatus);
  StatusFramePayload status;
  ASSERT_TRUE(server::DecodeStatusPayload(frame->payload, &status).ok());
  EXPECT_NE(status.message.find("opcode"), std::string::npos);
  EXPECT_FALSE(c.ReadFrame().ok());
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, ServerSideOpcodeFromClientIsRejected) {
  ServerFixture fx("srv_opcode");
  RccClient c = fx.ConnectAndHello();
  ASSERT_TRUE(c.SendFrame(Opcode::kRows, 3, "").ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->op, Opcode::kStatus);
  EXPECT_FALSE(c.ReadFrame().ok());
}

TEST(ServerTest, OversizedLengthPrefixKillsConnection) {
  ServerFixture fx("oversize");
  RccClient c = fx.ConnectAndHello();
  std::string evil;
  server::PutU32(&evil, 512u << 20);  // claims a 512 MiB frame
  evil.push_back('\x02');
  ASSERT_TRUE(c.SendRaw(evil).ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->op, Opcode::kStatus);
  StatusFramePayload status;
  ASSERT_TRUE(server::DecodeStatusPayload(frame->payload, &status).ok());
  EXPECT_EQ(status.code,
            static_cast<uint16_t>(StatusCode::kInvalidArgument));
  EXPECT_FALSE(c.ReadFrame().ok());
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, UndersizedLengthPrefixKillsConnection) {
  ServerFixture fx("undersize");
  RccClient c = fx.ConnectAndHello();
  std::string evil;
  server::PutU32(&evil, 2);  // cannot even hold opcode + seq
  evil.append("\x02\x00", 2);
  ASSERT_TRUE(c.SendRaw(evil).ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->op, Opcode::kStatus);
  EXPECT_FALSE(c.ReadFrame().ok());
}

TEST(ServerTest, TruncatedFrameThenDisconnectIsHarmless) {
  ServerFixture fx("truncated");
  {
    RccClient c = fx.ConnectAndHello();
    std::string partial;
    server::PutU32(&partial, 100);  // frame promises 100 bytes...
    partial.push_back('\x02');
    partial.append("SELECT", 6);  // ...but the client dies mid-frame
    ASSERT_TRUE(c.SendRaw(partial).ok());
  }  // destructor closes the socket
  // The server shrugs it off; a fresh connection works.
  RccClient again = fx.ConnectAndHello();
  auto resp = again.Query("SELECT price FROM Books B WHERE B.isbn = 1");
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, MidQueryDisconnectNeverLeaksAPinnedEpoch) {
  ServerFixture fx("hangup");
  for (int round = 0; round < 10; ++round) {
    RccClient c = fx.ConnectAndHello();
    // Fire a batch of queries and hang up without reading a byte: workers
    // finish against a closed connection and must drop their responses and
    // unpin their snapshot epochs.
    std::string batch;
    for (int i = 0; i < 4; ++i) {
      server::AppendFrame(&batch, Opcode::kQuery, c.NextSeq(),
                          "SELECT isbn FROM Books B WHERE B.isbn <= 50 "
                          "CURRENCY BOUND 10 MIN ON (B)");
    }
    ASSERT_TRUE(c.SendRaw(batch).ok());
    c.Close();
  }
  fx.ExpectNoEpochLeak();
  // The engine is still healthy for direct sessions.
  auto direct = fx.book.session->Execute(
      "SELECT price FROM Books B WHERE B.isbn = 1");
  EXPECT_TRUE(direct.ok());
}

TEST(ServerTest, AbruptDisconnectsWhileStatementsRun) {
  ServerFixture fx("abrupt");
  // Clients pipeline scans and point reads, then hang up mid-pipeline —
  // some before reading anything, some after one answer — while the server
  // is still running their statements and writing their answers.
  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&fx, t] {
      for (int round = 0; round < kRounds; ++round) {
        RccClient c = fx.ConnectAndHello();
        std::string batch;
        for (int i = 0; i < 6; ++i) {
          server::AppendFrame(
              &batch, Opcode::kQuery, c.NextSeq(),
              i % 2 == 0 ? std::string("SELECT isbn, title, price FROM Books B "
                                       "CURRENCY BOUND 10 MIN ON (B)")
                         : "SELECT price FROM Books B WHERE B.isbn = " +
                               std::to_string(t * kRounds + round + 1));
        }
        EXPECT_TRUE(c.SendRaw(batch).ok());
        if ((t + round) % 2 == 1) (void)c.ReadResponse(nullptr);
        c.Close();
      }
    });
  }
  for (std::thread& th : clients) th.join();

  RccClient fresh = fx.ConnectAndHello();
  auto resp = fresh.Query("SELECT price FROM Books B WHERE B.isbn = 1");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->ok()) << resp->status.message;
  fx.ExpectNoEpochLeak();
}

// -- overload survivability ---------------------------------------------------

TEST(ServerTest, SlowLorisClientDoesNotStallHealthyConnections) {
  ServerFixture fx("loris");
  RccClient healthy = fx.ConnectAndHello();
  RccClient loris = fx.Connect();

  // The slow client trickles a whole HELLO + query exchange one byte per
  // write. The event loop is non-blocking, so healthy traffic must keep
  // flowing the entire time.
  std::string trickle;
  server::AppendFrame(&trickle, Opcode::kHello, 1,
                      server::EncodeHelloPayload(server::kProtocolVersion,
                                                 "loris"));
  server::AppendFrame(&trickle, Opcode::kQuery, 2,
                      "SELECT price FROM Books B WHERE B.isbn = 1");
  std::atomic<bool> done{false};
  std::thread slow([&] {
    for (char byte : trickle) {
      if (!loris.SendRaw(std::string_view(&byte, 1)).ok()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true);
  });
  int healthy_ok = 0;
  while (!done.load()) {
    auto resp = healthy.Query("SELECT price FROM Books B WHERE B.isbn = 2");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->ok()) << resp->status.message;
    ++healthy_ok;
  }
  slow.join();
  EXPECT_GT(healthy_ok, 0);
  // The trickled frames were valid: the slow client gets real answers too.
  auto hello_frame = loris.ReadFrame();
  ASSERT_TRUE(hello_frame.ok()) << hello_frame.status().ToString();
  EXPECT_EQ(hello_frame->op, Opcode::kHelloOk);
  auto resp = loris.ReadResponse(nullptr);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->ok());
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, MidFrameResetAfterLengthPrefixIsHarmless) {
  ServerFixture fx("midreset");
  for (int round = 0; round < 5; ++round) {
    RccClient c = fx.ConnectAndHello();
    // Promise a frame, deliver only the length prefix (and for later rounds
    // a byte or two of the header), then reset the connection.
    std::string partial;
    server::PutU32(&partial, 64);
    partial.append("\x02\x01", std::min(round, 2));
    ASSERT_TRUE(c.SendRaw(partial).ok());
    c.Close();
  }
  // No worker is wedged waiting for the missing bytes; service continues.
  RccClient again = fx.ConnectAndHello();
  auto resp = again.Query("SELECT price FROM Books B WHERE B.isbn = 1");
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, AdmissionLimitRejectsWithRetryableStatusNotDisconnect) {
  ServerOptions opts;
  opts.workers = 1;
  opts.admission_limit = 1;  // one statement in flight; the rest refused
  ServerFixture fx("admission", opts);
  RccClient c = fx.ConnectAndHello();

  constexpr int kQueries = 24;
  std::string batch;
  for (int i = 0; i < kQueries; ++i) {
    server::AppendFrame(&batch, Opcode::kQuery, c.NextSeq(),
                        "SELECT isbn, title, price FROM Books B "
                        "CURRENCY BOUND 10 MIN ON (B)");
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());

  int ok_count = 0;
  int overloaded = 0;
  for (int i = 0; i < kQueries; ++i) {
    auto resp = c.ReadResponse(nullptr);
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    if (resp->ok()) {
      ++ok_count;
    } else {
      // Every refusal is the structured retryable kind — never a protocol
      // error, never a hangup.
      ASSERT_EQ(resp->status.code,
                static_cast<uint16_t>(StatusCode::kOverloaded))
          << resp->status.message;
      ++overloaded;
    }
  }
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(ok_count + overloaded, kQueries);
  // The connection survived the overload episode. A refusal here is still
  // legal — the last admitted statement's in-flight slot is released just
  // *after* its response enqueues — so follow the status's own contract and
  // retry after backoff.
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    auto after = c.Query("SELECT price FROM Books B WHERE B.isbn = 1");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    if (after->ok()) {
      recovered = true;
    } else {
      ASSERT_EQ(after->status.code,
                static_cast<uint16_t>(StatusCode::kOverloaded));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(recovered);
  fx.ExpectNoEpochLeak();
}

/// Pipelines `n` copies of `sql` on `c` and reads every answer; each answer
/// must be rows or a kOverloaded refusal.
struct BacklogAnswers {
  int ok = 0;
  int degraded = 0;
  int queue_delay_refusals = 0;
};
BacklogAnswers PipelineAndRead(RccClient& c, const std::string& sql, int n) {
  BacklogAnswers out;
  std::string batch;
  for (int i = 0; i < n; ++i) {
    server::AppendFrame(&batch, Opcode::kQuery, c.NextSeq(), sql);
  }
  EXPECT_TRUE(c.SendRaw(batch).ok());
  for (int i = 0; i < n; ++i) {
    auto resp = c.ReadResponse(nullptr);
    EXPECT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    if (!resp.ok()) return out;
    if (resp->ok()) {
      ++out.ok;
      if (resp->status.degraded) ++out.degraded;
      continue;
    }
    EXPECT_EQ(resp->status.code,
              static_cast<uint16_t>(StatusCode::kOverloaded))
        << resp->status.message;
    if (resp->status.message.find("admission queue delay") !=
        std::string::npos) {
      ++out.queue_delay_refusals;
    }
  }
  return out;
}

TEST(ServerTest, QueueDelayGateRefusesPipelinedBacklog) {
  ServerOptions opts;
  opts.workers = 1;
  opts.admission_limit = 64;  // every statement below is admitted
  opts.max_queue_delay_ms = 1;
  ServerFixture fx("queuedelay", opts);
  RccClient c = fx.ConnectAndHello();

  // One thread runs the pipeline in order, so the later full scans wait
  // well past 1 ms after decode and the gate refuses them unexecuted.
  BacklogAnswers a = PipelineAndRead(
      c,
      "SELECT isbn, title, price, stock FROM Books B "
      "CURRENCY BOUND 10 MIN ON (B)",
      32);
  EXPECT_GT(a.ok, 0);
  EXPECT_GT(a.queue_delay_refusals, 0);
  EXPECT_GT(fx.book.sys.metrics()
                .counter("rcc.server.overload_rejected")
                ->value(),
            0);
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, ShedHintServesDegradedUnderBacklog) {
  ServerOptions opts;
  opts.workers = 1;
  opts.admission_limit = 64;
  opts.shed_queue_delay_ms = 1;
  ServerFixture fx("shed", opts);
  RccClient c = fx.ConnectAndHello();
  auto set = c.Set("SET DEGRADE ALWAYS");
  ASSERT_TRUE(set.ok() && set->ok());

  // The replica is ~10 s stale against a 5 s bound, so every scan's guard
  // sends it remote; the ones that waited past 1 ms carry the shed hint and
  // DEGRADE ALWAYS lets them serve the local branch instead.
  BacklogAnswers a = PipelineAndRead(
      c,
      "SELECT isbn, title, price, stock FROM Books B "
      "CURRENCY BOUND 5 SECONDS ON (B)",
      32);
  EXPECT_EQ(a.ok, 32);
  EXPECT_GT(a.degraded, 0);
  EXPECT_GT(
      fx.book.sys.metrics().counter("rcc.server.shed_statements")->value(),
      0);
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, SetDeadlineAndQueryDeadlineRoundTrip) {
  ServerFixture fx("deadline");
  RccClient c = fx.ConnectAndHello();

  auto set = c.Set("SET DEADLINE 5000");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE(set->ok());
  EXPECT_NE(set->status.message.find("deadline 5000ms"), std::string::npos);

  // A roomy per-request deadline: the statement completes normally.
  auto resp = c.QueryWithDeadline(
      "SELECT price FROM Books B WHERE B.isbn = 1 "
      "CURRENCY BOUND 10 MIN ON (B)",
      60000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->ok()) << resp->status.message;
  ASSERT_EQ(resp->rows.size(), 1u);

  auto off = c.Set("SET DEADLINE 0");
  ASSERT_TRUE(off.ok());
  EXPECT_NE(off->status.message.find("deadline OFF"), std::string::npos);
  fx.ExpectNoEpochLeak();
}

// -- backpressure and shutdown ------------------------------------------------

TEST(ServerTest, BackpressureStreamsLargeResultsThroughTinyQueue) {
  ServerOptions opts;
  opts.max_write_queue_bytes = 2048;  // absurdly small response backlog
  ServerFixture fx("backpressure", opts);
  RccClient c = fx.ConnectAndHello();

  // Pipeline several full-table scans (500 rows each) without reading, then
  // drain. Workers must stall on the bounded queue, not drop or reorder.
  constexpr int kQueries = 5;
  std::string batch;
  for (int i = 0; i < kQueries; ++i) {
    server::AppendFrame(&batch, Opcode::kQuery, c.NextSeq(),
                        "SELECT isbn, title, price, stock FROM Books B "
                        "CURRENCY BOUND 10 MIN ON (B)");
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it stall

  for (int i = 0; i < kQueries; ++i) {
    auto resp = c.ReadResponse(nullptr);
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    ASSERT_TRUE(resp->ok()) << resp->status.message;
    EXPECT_EQ(resp->rows.size(), 500u) << "query " << i;
  }
  EXPECT_GT(fx.book.sys.metrics()
                .counter("rcc.server.backpressure_stalls")
                ->value(),
            0);
  fx.ExpectNoEpochLeak();
}

TEST(ServerTest, StopDrainsInFlightStatementsAndFlushes) {
  BookstoreFixture book;
  book.sys.AdvanceTo(30000);
  std::string path = TestSocketPath("stop_drain");
  ServerOptions opts;
  opts.uds_path = path;
  opts.workers = 2;
  RccServer srv(&book.sys, opts);
  ASSERT_TRUE(srv.Start().ok());

  RccClient c;
  ASSERT_TRUE(c.ConnectUds(path).ok());
  ASSERT_TRUE(c.Hello("drain").ok());
  constexpr int kQueries = 6;
  std::string batch;
  for (int i = 0; i < kQueries; ++i) {
    server::AppendFrame(&batch, Opcode::kQuery, c.NextSeq(),
                        "SELECT price FROM Books B WHERE B.isbn = " +
                            std::to_string(i + 1));
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());

  // Stop while those are in flight: accepted statements must complete and
  // their responses must be flushed before the socket closes.
  srv.Stop();
  EXPECT_FALSE(srv.running());

  int ok_count = 0;
  for (int i = 0; i < kQueries; ++i) {
    auto resp = c.ReadResponse(nullptr);
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    if (resp->ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, kQueries);
  EXPECT_FALSE(c.ReadFrame().ok());  // EOF after the flush

  // After Stop the engine left concurrent-batch mode: the clock advances.
  const SnapshotEpochManager& epochs = book.sys.cache()->epoch_manager();
  EXPECT_EQ(epochs.MinPinnedEpoch(), epochs.current_epoch());
  book.sys.AdvanceBy(1000);
}

TEST(ServerTest, ManyConcurrentConnections) {
  ServerOptions opts;
  opts.workers = 4;
  ServerFixture fx("many", opts);

  constexpr int kClients = 32;
  std::vector<RccClient> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(fx.ConnectAndHello());
  }
  EXPECT_EQ(fx.server.connections_open(), kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  drivers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&clients, &failures, t] {
      for (int i = t; i < kClients; i += 4) {
        for (int q = 0; q < 3; ++q) {
          auto resp = clients[i].Query(
              "SELECT price FROM Books B WHERE B.isbn = " +
              std::to_string(i * 3 + q + 1) + " CURRENCY BOUND 10 MIN ON (B)");
          if (!resp.ok() || !resp->ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
  fx.ExpectNoEpochLeak();
}

}  // namespace
}  // namespace rcc
