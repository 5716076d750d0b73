// End-to-end serving tests against a real server on an ephemeral port:
// the concurrent-client determinism contract (byte-identical result
// blocks across clients and thread budgets, equal to direct library
// execution), the ValidateParallelOptions round-trip to a client-visible
// kInvalidArgument, typed overload rejections that never hang, malformed
// frames over a raw socket, graceful shutdown with traffic in flight,
// and AdmissionController unit tests driven without sockets.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "db/modb.h"
#include "exec/morsel.h"
#include "gen/flights_gen.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/wire.h"

namespace modb {
namespace serve {
namespace {

bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout =
                   std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// AdmissionController (no sockets).
// ---------------------------------------------------------------------------

TEST(AdmissionController, NonPositiveCostIsInvalidArgument) {
  AdmissionController ac(4, 4);
  EXPECT_EQ(ac.Acquire(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ac.Acquire(-3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ac.in_use(), 0);
}

TEST(AdmissionController, CostBeyondBudgetRejectsImmediately) {
  AdmissionController ac(4, 4);
  Status s = ac.Acquire(5);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("budget"), std::string::npos);
  EXPECT_EQ(ac.rejected(), 1u);
  EXPECT_EQ(ac.in_use(), 0);
}

TEST(AdmissionController, FullQueueRejectsInsteadOfWaiting) {
  AdmissionController ac(1, 0);
  ASSERT_TRUE(ac.Acquire(1).ok());
  // The budget is taken and the queue holds nobody: an admissible-sized
  // query must be rejected, not parked.
  Status s = ac.Acquire(1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("queue"), std::string::npos);
  EXPECT_EQ(ac.rejected(), 1u);
  ac.Release(1);
  EXPECT_EQ(ac.in_use(), 0);
}

TEST(AdmissionController, WaiterIsAdmittedOnRelease) {
  AdmissionController ac(2, 2);
  ASSERT_TRUE(ac.Acquire(2).ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(ac.Acquire(1).ok());
    admitted = true;
    ac.Release(1);
  });
  ASSERT_TRUE(WaitUntil([&] { return ac.queued() == 1; }));
  EXPECT_FALSE(admitted.load());
  ac.Release(2);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ac.in_use(), 0);
  EXPECT_EQ(ac.rejected(), 0u);
}

TEST(AdmissionController, WaitersAdmitInFifoOrder) {
  AdmissionController ac(2, 4);
  ASSERT_TRUE(ac.Acquire(2).ok());

  std::mutex order_mu;
  std::vector<int> order;
  auto worker = [&](int id, std::int64_t cost) {
    ASSERT_TRUE(ac.Acquire(cost).ok());
    {
      std::lock_guard lock(order_mu);
      order.push_back(id);
    }
    ac.Release(cost);
  };
  // First waiter is expensive, second is cheap: FIFO means the cheap one
  // must NOT jump the queue when capacity frees up.
  std::thread w1([&] { worker(1, 2); });
  ASSERT_TRUE(WaitUntil([&] { return ac.queued() == 1; }));
  std::thread w2([&] { worker(2, 1); });
  ASSERT_TRUE(WaitUntil([&] { return ac.queued() == 2; }));

  ac.Release(2);
  w1.join();
  w2.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(ac.in_use(), 0);
}

// ---------------------------------------------------------------------------
// Server fixture: planes resident, index prebuilt, ephemeral port.
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}, int num_flights = 12) {
    FlightsOptions gen;
    gen.num_flights = num_flights;
    gen.seed = 99;
    Result<Relation> planes = GeneratePlanes(gen);
    ASSERT_TRUE(planes.ok()) << planes.status();
    ASSERT_TRUE(db_.Register(*std::move(planes)).ok());
    ASSERT_TRUE(db_.BuildIndex("planes", "flight").ok());
    server_ = std::make_unique<Server>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  Client MustConnect() {
    Result<Client> client = Connect();
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }
  Result<Client> Connect() {
    return Client::Connect("127.0.0.1", server_->port());
  }

  Db db_;
  std::unique_ptr<Server> server_;
};

QueryRequest Q1Select() {
  QueryRequest req;
  req.kind = QueryRequest::Kind::kSelect;
  req.relation = "planes";
  FilterSpec len;
  len.kind = FilterSpec::Kind::kTrajectoryLengthAtLeast;
  len.attr = "flight";
  len.threshold = 5000.0;
  req.filters = {len};
  return req;
}

QueryRequest Q2IndexJoin() {
  QueryRequest req;
  req.kind = QueryRequest::Kind::kIndexJoin;
  req.relation = "planes";
  req.join_relation = "planes";
  req.attr = "flight";
  req.join_attr = "flight";
  req.distance = 500.0;
  req.distinct_pairs = true;
  return req;
}

QueryRequest BatchRequest(QueryRequest::Kind kind) {
  QueryRequest req;
  req.kind = kind;
  req.relation = "planes";
  req.attr = "flight";
  for (double t = 0; t <= 24.0; t += 0.5) req.instants.push_back(t);
  return req;
}

TEST_F(ServerTest, EveryQueryKindMatchesDirectExecution) {
  StartServer();
  QueryRequest project;
  project.kind = QueryRequest::Kind::kProject;
  project.relation = "planes";
  project.project = {"airline", "id"};

  const std::vector<QueryRequest> requests = {
      Q1Select(), project, Q2IndexJoin(),
      BatchRequest(QueryRequest::Kind::kAtInstantBatch),
      BatchRequest(QueryRequest::Kind::kPresentBatch)};

  Client client = MustConnect();
  for (const QueryRequest& req : requests) {
    Result<QueryResult> direct = db_.Run(req);
    ASSERT_TRUE(direct.ok()) << direct.status();
    Result<std::string> expect = EncodeResultBlock(*direct);
    ASSERT_TRUE(expect.ok());

    Result<Client::Reply> reply = client.Query(req);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_TRUE(reply->status.ok()) << reply->status;
    EXPECT_EQ(reply->result_block, *expect) << "kind " << int(req.kind);
    EXPECT_FALSE(reply->result.stats.op.empty());
  }
}

TEST_F(ServerTest, EightConcurrentClientsAreByteIdentical) {
  StartServer();
  const QueryRequest base = Q1Select();
  Result<QueryResult> direct = db_.Run(base);
  ASSERT_TRUE(direct.ok()) << direct.status();
  Result<std::string> expect = EncodeResultBlock(*direct);
  ASSERT_TRUE(expect.ok());

  constexpr int kClients = 8;
  std::vector<std::string> blocks(kClients);
  std::vector<Status> verdicts(kClients, Status::OK());
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Result<Client> client =
          Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        verdicts[i] = client.status();
        return;
      }
      QueryRequest req = base;
      req.num_threads = (i % 4) + 1;  // mixed per-client thread budgets
      Result<Client::Reply> reply = client->Query(req);
      if (!reply.ok()) {
        verdicts[i] = reply.status();
      } else if (!reply->status.ok()) {
        verdicts[i] = reply->status;
      } else {
        blocks[i] = reply->result_block;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(verdicts[i].ok()) << "client " << i << ": " << verdicts[i];
    EXPECT_EQ(blocks[i], *expect) << "client " << i;
  }
}

// A result too large for one frame: 64 flights x 300 000 instants is
// a compact xy block of about 80 MB (a flag per cell, coordinates for
// the fifth of the cells that are defined), past the 64 MiB payload
// cap. The server must answer with a typed, terminal error naming the
// size and the cap, and keep the connection open.
TEST_F(ServerTest, ReplyOverTheFrameCapIsATypedErrorAndConnectionSurvives) {
  StartServer({}, /*num_flights=*/64);
  Client client = MustConnect();
  QueryRequest huge = BatchRequest(QueryRequest::Kind::kAtInstantBatch);
  huge.instants.clear();
  constexpr int kInstants = 300000;
  for (int i = 0; i < kInstants; ++i) {
    huge.instants.push_back(24.0 * i / kInstants);
  }
  // The defined cells are the present ones: count them from the much
  // smaller present result of the same request.
  QueryRequest present = huge;
  present.kind = QueryRequest::Kind::kPresentBatch;
  Result<QueryResult> flags = db_.Run(present);
  ASSERT_TRUE(flags.ok()) << flags.status();
  std::uint64_t set = 0;
  for (std::uint8_t p : flags->present) set += p;
  const std::uint64_t cells = std::uint64_t(64) * kInstants;
  const std::uint64_t block = 1 + 16 + cells + 16 * set;
  ASSERT_GT(block, kMaxFramePayload) << set << " defined cells";

  Result<Client::Reply> reply = client.Query(huge);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kOutOfRange) << reply->status;
  EXPECT_FALSE(IsRetryableStatus(reply->status));
  // "reply of <N> bytes exceeds the <cap>-byte frame cap ...", where N
  // is the payload: the xy block plus the reply fields around it.
  const std::string& msg = reply->status.message();
  EXPECT_NE(msg.find(std::to_string(kMaxFramePayload) + "-byte"),
            std::string::npos)
      << msg;
  const std::size_t at = msg.find("reply of ");
  ASSERT_NE(at, std::string::npos) << msg;
  const std::uint64_t size = std::stoull(msg.substr(at + 9));
  EXPECT_GT(size, block) << msg;
  EXPECT_LT(size, block + 4096) << msg;

  // The same connection still serves.
  const QueryRequest normal = BatchRequest(QueryRequest::Kind::kAtInstantBatch);
  Result<QueryResult> direct = db_.Run(normal);
  ASSERT_TRUE(direct.ok()) << direct.status();
  reply = client.Query(normal);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_TRUE(reply->status.ok()) << reply->status;
  EXPECT_EQ(reply->result_block, *EncodeResultBlock(*direct));
}

TEST_F(ServerTest, InvalidThreadCountRoundTripsAsInvalidArgument) {
  StartServer();
  Client client = MustConnect();
  QueryRequest req = Q1Select();
  req.num_threads = 5000;  // past kMaxQueryThreads = 4096
  Result<Client::Reply> reply = client.Query(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reply->status.message().find("num_threads"), std::string::npos)
      << reply->status;
  EXPECT_NE(reply->status.message().find("4096"), std::string::npos)
      << reply->status;

  // An i64 far outside int range must clamp into the same verdict, and
  // the connection must survive both errors.
  req.num_threads = std::int64_t{1} << 40;
  reply = client.Query(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kInvalidArgument);

  req.num_threads = 1;
  reply = client.Query(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok()) << reply->status;
}

TEST_F(ServerTest, UnknownRelationIsNotFound) {
  StartServer();
  Client client = MustConnect();
  QueryRequest req;
  req.relation = "ships";
  Result<Client::Reply> reply = client.Query(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kNotFound);
  EXPECT_NE(reply->status.message().find("ships"), std::string::npos);
}

TEST_F(ServerTest, NonQueryFrameGetsTypedReplyAndConnectionSurvives) {
  StartServer();
  Result<int> fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  ASSERT_TRUE(
      WriteFrame(*fd, FrameType::kReply, EncodeQueryRequest(Q1Select()))
          .ok());
  Result<std::optional<Frame>> frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  Result<WireReply> reply = DecodeReply((*frame)->payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kInvalidArgument);

  // The header was well-formed, so the stream is still in sync: a real
  // query on the same connection succeeds.
  ASSERT_TRUE(
      WriteFrame(*fd, FrameType::kQuery, EncodeQueryRequest(Q1Select()))
          .ok());
  frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  reply = DecodeReply((*frame)->payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok()) << reply->status;
  CloseFd(*fd);
}

TEST_F(ServerTest, GarbageMagicGetsDataLossReplyThenClose) {
  StartServer();
  Result<int> fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  const char garbage[kFrameHeaderBytes] = {'X', 'Y', 'Z', 'W', 0, 0,
                                           0,   0,   0,   0,   0, 0};
  ASSERT_TRUE(WriteFull(*fd, garbage, sizeof garbage).ok());

  Result<std::optional<Frame>> frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  Result<WireReply> reply = DecodeReply((*frame)->payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kDataLoss);

  // Resynchronization is hopeless; the server must hang up.
  frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_FALSE(frame->has_value());
  CloseFd(*fd);
}

TEST_F(ServerTest, OversizedLengthGetsTypedReplyThenClose) {
  StartServer();
  Result<int> fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  // Patch the length field past the cap (EncodeFrameHeader itself would
  // happily write it — the cap is enforced on decode).
  std::string bytes = EncodeFrameHeader(FrameType::kQuery, 0);
  const std::uint32_t oversized = kMaxFramePayload + 1;
  bytes[8] = char(oversized & 0xff);
  bytes[9] = char((oversized >> 8) & 0xff);
  bytes[10] = char((oversized >> 16) & 0xff);
  bytes[11] = char((oversized >> 24) & 0xff);
  ASSERT_TRUE(WriteFull(*fd, bytes.data(), bytes.size()).ok());

  Result<std::optional<Frame>> frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  Result<WireReply> reply = DecodeReply((*frame)->payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kInvalidArgument);

  frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->has_value());
  CloseFd(*fd);
}

TEST_F(ServerTest, TruncatedPayloadNeverHangsTheServer) {
  StartServer();
  Result<int> fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  // Header promises 100 payload bytes; send 10 and half-close. The
  // server's payload read must fail cleanly and drop the connection.
  const std::string header = EncodeFrameHeader(FrameType::kQuery, 100);
  ASSERT_TRUE(WriteFull(*fd, header.data(), header.size()).ok());
  ASSERT_TRUE(WriteFull(*fd, "truncated!", 10).ok());
  ::shutdown(*fd, SHUT_WR);

  Result<std::optional<Frame>> frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_FALSE(frame->has_value());  // EOF, no reply, no hang
  CloseFd(*fd);

  // And the server still serves new connections.
  Client client = MustConnect();
  Result<Client::Reply> reply = client.Query(Q1Select());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok());
}

TEST_F(ServerTest, OverloadYieldsTypedRejectionsNeverHangs) {
  ServerOptions options;
  options.thread_budget = 1;
  options.queue_capacity = 0;
  StartServer(options);

  // Every request asks for 2 workers against a 1-thread budget: all of
  // them must come back as fast typed kResourceExhausted.
  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::atomic<int> rejected{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Result<Client> client =
          Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        wrong += kRequests;
        return;
      }
      QueryRequest req = Q1Select();
      req.num_threads = 2;
      for (int i = 0; i < kRequests; ++i) {
        Result<Client::Reply> reply = client->Query(req);
        if (reply.ok() &&
            reply->status.code() == StatusCode::kResourceExhausted &&
            !reply->status.message().empty()) {
          ++rejected;
        } else {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rejected.load(), kClients * kRequests);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(server_->admission().rejected(),
            std::uint64_t(kClients * kRequests));
  EXPECT_EQ(server_->admission().in_use(), 0);

  // The same connection budget still serves admissible queries.
  Client client = MustConnect();
  QueryRequest ok_req = Q1Select();
  ok_req.num_threads = 1;
  Result<Client::Reply> reply = client.Query(ok_req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok()) << reply->status;
}

TEST_F(ServerTest, ContendedAdmissibleLoadAllSucceedsOrRejectsTyped) {
  ServerOptions options;
  options.thread_budget = 2;
  options.queue_capacity = 1;
  StartServer(options);

  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Result<Client> client =
          Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        wrong += kRequests;
        return;
      }
      QueryRequest req = BatchRequest(QueryRequest::Kind::kAtInstantBatch);
      for (int i = 0; i < kRequests; ++i) {
        Result<Client::Reply> reply = client->Query(req);
        if (!reply.ok()) {
          ++wrong;
        } else if (reply->status.ok()) {
          ++ok;
        } else if (reply->status.code() == StatusCode::kResourceExhausted) {
          ++rejected;
        } else {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(ok.load(), 0);  // contention may reject, but never everything
  EXPECT_EQ(ok.load() + rejected.load(), kClients * kRequests);
  EXPECT_EQ(server_->admission().in_use(), 0);
}

TEST_F(ServerTest, GracefulStopDrainsInFlightQueries) {
  StartServer();
  constexpr int kClients = 3;
  std::atomic<int> completed{0};
  std::atomic<int> wrong{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Result<Client> client =
          Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) return;  // raced with Stop before connecting
      while (!go.load()) std::this_thread::yield();
      const QueryRequest req = Q2IndexJoin();
      for (;;) {
        Result<Client::Reply> reply = client->Query(req);
        // Once Stop() half-closes the connection the transport reports
        // an error/EOF — that ends the loop. Every reply that did
        // arrive must be a complete, well-formed success.
        if (!reply.ok()) break;
        if (reply->status.ok() && !reply->result_block.empty()) {
          ++completed;
        } else {
          ++wrong;
        }
      }
    });
  }
  go = true;
  // Let some queries land in flight, then stop under load.
  ASSERT_TRUE(WaitUntil([&] { return completed.load() >= 2; }));
  server_->Stop();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(completed.load(), 2);
  server_->Stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Robustness: deadline-aware admission, idle reaping, stall timeouts,
// execution deadlines, and SIGPIPE survival.
// ---------------------------------------------------------------------------

std::uint64_t CounterValue(const char* name) {
  return obs::Metrics::Global().counter(name)->value();
}

TEST(AdmissionController, PredictedWaitBeyondDeadlineRejects) {
  AdmissionController ac(1, 4);
  // Seed the hold-time EWMA: one acquire held the budget for ~100ms.
  ASSERT_TRUE(ac.Acquire(1).ok());
  ac.Release(1, 100u * 1000 * 1000);

  // Budget free: even a tiny deadline admits immediately (no queueing,
  // so the prediction never fires).
  ASSERT_TRUE(ac.Acquire(1, 1000).ok());

  // Budget taken, request would queue, predicted wait ~100ms, deadline
  // 1ms: shed it with a typed rejection instead of queueing doomed
  // work.
  Status s = ac.Acquire(1, 1000 * 1000);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("deadline"), std::string::npos) << s;
  EXPECT_EQ(ac.deadline_rejects(), 1u);
  EXPECT_EQ(ac.rejected(), 1u);

  // No deadline (or a generous one) still queues normally — prove the
  // shed path did not poison the FIFO by letting a waiter through.
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(ac.Acquire(1, std::int64_t(10) * 1000 * 1000 * 1000).ok());
    admitted = true;
    ac.Release(1);
  });
  ASSERT_TRUE(WaitUntil([&] { return ac.queued() == 1; }));
  ac.Release(1, 100u * 1000 * 1000);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ac.in_use(), 0);
}

TEST_F(ServerTest, SlowLorisConnectionIsReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 200;
  options.io_timeout_ms = 200;
  StartServer(options);
  const std::uint64_t reaped_before = CounterValue("serve.idle_reaped");
  const std::uint64_t timeouts_before = CounterValue("serve.timeouts");

  // Two header bytes, then silence: the whole-read idle deadline must
  // fire even though the connection is not strictly idle — the loris
  // trickles just enough to defeat a per-byte timer.
  Result<int> fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(WriteFull(*fd, "MO", 2).ok());

  // The server must hang up on its own (EOF on our side), well before
  // the test's patience runs out.
  Result<std::optional<Frame>> frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_FALSE(frame->has_value());
  CloseFd(*fd);

#ifndef MODB_NO_METRICS
  EXPECT_GE(CounterValue("serve.idle_reaped"), reaped_before + 1);
  EXPECT_GE(CounterValue("serve.timeouts"), timeouts_before + 1);
#else
  (void)reaped_before;
  (void)timeouts_before;
#endif
  // The reaped connection's thread is back; the server still serves.
  EXPECT_EQ(server_->admission().in_use(), 0);
  Client client = MustConnect();
  Result<Client::Reply> reply = client.Query(Q1Select());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok()) << reply->status;
}

TEST_F(ServerTest, MidFramePayloadStallTimesOut) {
  ServerOptions options;
  options.idle_timeout_ms = 5000;  // NOT what fires here
  options.io_timeout_ms = 200;
  StartServer(options);
  const std::uint64_t timeouts_before = CounterValue("serve.timeouts");

  // A full header promising 100 payload bytes, 10 bytes, then a stall:
  // the peer committed to a frame, so the tighter io deadline applies.
  Result<int> fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  const std::string header = EncodeFrameHeader(FrameType::kQuery, 100);
  ASSERT_TRUE(WriteFull(*fd, header.data(), header.size()).ok());
  ASSERT_TRUE(WriteFull(*fd, "stalled...", 10).ok());

  Result<std::optional<Frame>> frame = ReadFrame(*fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_FALSE(frame->has_value());  // server gave up on the frame
  CloseFd(*fd);

#ifndef MODB_NO_METRICS
  EXPECT_GE(CounterValue("serve.timeouts"), timeouts_before + 1);
#else
  (void)timeouts_before;
#endif
  Client client = MustConnect();
  Result<Client::Reply> reply = client.Query(Q1Select());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok()) << reply->status;
}

TEST_F(ServerTest, ExecutionDeadlineExceededRoundTripsWithMetrics) {
  StartServer();
  const std::uint64_t checks_before = CounterValue("exec.deadline_checks");
  const std::uint64_t exceeded_before =
      CounterValue("exec.deadline_exceeded");

  // Stall every morsel for 30ms. With 12 flights and one worker the
  // scan splits into ~4 morsels, so a 50ms deadline survives the first
  // checkpoint and must expire by the third — deterministically between
  // morsel boundaries, never mid-operator.
  exec::ExecTestHooks hooks;
  hooks.before_morsel = [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  exec::SetExecTestHooks(&hooks);

  Client client = MustConnect();
  QueryRequest req = Q1Select();
  req.num_threads = 1;
  req.deadline_ms = 50;
  Result<Client::Reply> reply = client.Query(req);
  exec::SetExecTestHooks(nullptr);

  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kDeadlineExceeded)
      << reply->status;
  EXPECT_NE(reply->status.message().find("deadline"), std::string::npos)
      << reply->status;

#ifndef MODB_NO_METRICS
  // The morsel checkpoints both ran and fired.
  EXPECT_GE(CounterValue("exec.deadline_checks"), checks_before + 2);
  EXPECT_GE(CounterValue("exec.deadline_exceeded"), exceeded_before + 1);
#else
  (void)checks_before;
  (void)exceeded_before;
#endif

  // The connection survives a deadline-exceeded reply, and the same
  // query without a deadline completes.
  req.deadline_ms = 0;
  reply = client.Query(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok()) << reply->status;
}

// Sends `req` at one worker with a 50ms deadline while every morsel
// after the first `free_morsels` stalls 30ms, and returns the reply plus
// how many morsels started. The deadline survives the first stalled
// checkpoint and must fire at the third, between morsels.
Result<Client::Reply> QueryWithStalledMorsels(Client* client,
                                              QueryRequest req,
                                              std::size_t free_morsels,
                                              std::size_t* started) {
  std::atomic<std::size_t> calls{0};
  exec::ExecTestHooks hooks;
  hooks.before_morsel = [&](std::size_t, std::size_t) {
    if (calls.fetch_add(1) >= free_morsels) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  };
  exec::SetExecTestHooks(&hooks);
  req.num_threads = 1;
  req.deadline_ms = 50;
  Result<Client::Reply> reply = client->Query(req);
  exec::SetExecTestHooks(nullptr);
  *started = calls.load();
  return reply;
}

// present_batch runs as a morsel-engine terminal: 12 flights at one
// worker are 4 morsels of 3, and the deadline fires at a morsel boundary.
TEST_F(ServerTest, PresentBatchDeadlineFiresAtAMorselBoundary) {
  StartServer();
  const std::uint64_t checks_before = CounterValue("exec.deadline_checks");
  Client client = MustConnect();
  std::size_t started = 0;
  Result<Client::Reply> reply = QueryWithStalledMorsels(
      &client, BatchRequest(QueryRequest::Kind::kPresentBatch), 0, &started);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kDeadlineExceeded)
      << reply->status;
  EXPECT_NE(reply->status.message().find("at morsel"), std::string::npos)
      << reply->status;
  EXPECT_GE(started, 2u);
  EXPECT_LT(started, 4u);
#ifndef MODB_NO_METRICS
  EXPECT_GE(CounterValue("exec.deadline_checks"), checks_before + 2);
#else
  (void)checks_before;
#endif
}

// window_aggregate's grid runs on the same scheduler: the row pass (4
// morsels) runs unstalled, then the deadline fires between grid
// morsels (24 windows at one worker are 4 morsels of 6).
TEST_F(ServerTest, WindowAggregateDeadlineFiresAtAMorselBoundary) {
  StartServer();
  QueryRequest req;
  req.kind = QueryRequest::Kind::kWindowAggregate;
  req.relation = "planes";
  req.attr = "flight";
  req.window_t0 = 0;
  req.window_t1 = 24;
  req.window_width = 2;
  req.window_step = 1;
  Client client = MustConnect();
  std::size_t started = 0;
  Result<Client::Reply> reply =
      QueryWithStalledMorsels(&client, req, 4, &started);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->status.code(), StatusCode::kDeadlineExceeded)
      << reply->status;
  EXPECT_NE(reply->status.message().find("of 4"), std::string::npos)
      << reply->status;
  EXPECT_GT(started, 4u);  // the grid pass had begun

  // Without a deadline the same sweep completes on the same connection.
  req.deadline_ms = 0;
  reply = client.Query(req);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok()) << reply->status;
  EXPECT_EQ(reply->result.rows.NumTuples(), 24u);
}

TEST_F(ServerTest, ClientClosingMidReplyDoesNotKillTheServer) {
  StartServer();
  // Pipeline a burst of queries and vanish: the server keeps writing
  // replies into a connection that answers with RST. Without
  // MSG_NOSIGNAL the EPIPE would arrive as SIGPIPE and take the whole
  // process down — this test IS the process.
  Result<int> fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  const std::string query = EncodeQueryRequest(
      BatchRequest(QueryRequest::Kind::kAtInstantBatch));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(WriteFrame(*fd, FrameType::kQuery, query).ok());
  }
  CloseFd(*fd);  // unread replies => RST on the server's next writes

  // Server must still be alive and serving.
  ASSERT_TRUE(WaitUntil([&] {
    Result<Client> probe = Connect();
    if (!probe.ok()) return false;
    Result<Client::Reply> reply = probe->Query(Q1Select());
    return reply.ok() && reply->status.ok();
  }));
  // The abandoned connection's thread may still be running its queued
  // queries after the probe succeeds; wait for it to release its
  // admission.
  EXPECT_TRUE(WaitUntil([&] { return server_->admission().in_use() == 0; }));
  EXPECT_EQ(server_->admission().in_use(), 0);
}

TEST_F(ServerTest, ClientReadTimeoutSurfacesTypedNotHang) {
  // A client pointed at a server that never replies (the listen socket
  // accepts, but nobody reads) must get a typed kDeadlineExceeded from
  // its io timeout — this was the loadgen hang: a stalled server froze
  // the whole run.
  Result<int> listen_fd = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listen_fd.ok());
  Result<int> port = BoundPort(*listen_fd);
  ASSERT_TRUE(port.ok());

  ClientOptions copts;
  copts.connect_timeout_ms = 1000;
  copts.io_timeout_ms = 200;
  Result<Client> client = Client::Connect("127.0.0.1", *port, copts);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto start = std::chrono::steady_clock::now();
  Result<Client::Reply> reply = client->Query(Q1Select());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status();
  EXPECT_LT(elapsed, 5000);  // bounded, not a hang
  CloseFd(*listen_fd);
}

TEST(RetryableStatus, TableMatchesProtocolContract) {
  EXPECT_TRUE(IsRetryableStatus(Status::Internal("socket")));
  EXPECT_TRUE(IsRetryableStatus(Status::DataLoss("severed")));
  EXPECT_TRUE(IsRetryableStatus(Status::DeadlineExceeded("timed out")));
  EXPECT_TRUE(IsRetryableStatus(Status::ResourceExhausted("overload")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("bad")));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound("missing")));
  EXPECT_FALSE(IsRetryableStatus(Status::FailedPrecondition("state")));
  EXPECT_FALSE(IsRetryableStatus(Status::OutOfRange("stale")));
  EXPECT_FALSE(IsRetryableStatus(Status::Unimplemented("no")));
}

TEST_F(ServerTest, RetryingClientSurvivesAServerSideDisconnect) {
  StartServer();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  RetryingClient client("127.0.0.1", server_->port(), ClientOptions(),
                        policy);
  // First query establishes the connection.
  Result<Client::Reply> reply = client.Query(Q1Select());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok());
  EXPECT_EQ(client.reconnects(), 1u);

  // Nuke every server-side connection out from under the client; the
  // next query must transparently reconnect and succeed.
  server_->Stop();
  server_ = std::make_unique<Server>(&db_, ServerOptions());
  ASSERT_TRUE(server_->Start().ok());
  RetryingClient fresh("127.0.0.1", server_->port(), ClientOptions(),
                       policy);
  reply = fresh.Query(Q1Select());
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->status.ok());
}

TEST_F(ServerTest, MetricsEndpointServesJsonOverHttp) {
  StartServer();
  // Generate at least one request so the serving counters exist.
  Client client = MustConnect();
  Result<Client::Reply> reply = client.Query(Q1Select());
  ASSERT_TRUE(reply.ok()) << reply.status();

  Result<std::string> metrics =
      FetchMetricsJson("127.0.0.1", server_->port());
  ASSERT_TRUE(metrics.ok()) << metrics.status();
#ifndef MODB_NO_METRICS
  EXPECT_NE(metrics->find("serve.requests"), std::string::npos);
  EXPECT_NE(metrics->find("serve.request_ns"), std::string::npos);
#else
  // Metrics compiled out: the endpoint still serves the empty registry.
  EXPECT_NE(metrics->find("\"counters\""), std::string::npos);
#endif
}

// A one-shot HTTP peer on an ephemeral port: accepts one connection,
// reads the request head, writes `response` in `piece`-byte writes and
// closes.
class HttpPeer {
 public:
  HttpPeer(std::string response, std::size_t piece) {
    Result<int> fd = ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(fd.ok()) << fd.status();
    listen_fd_ = fd.ok() ? *fd : -1;
    Result<int> port = BoundPort(listen_fd_);
    EXPECT_TRUE(port.ok()) << port.status();
    port_ = port.ok() ? *port : 0;
    thread_ = std::thread([this, response = std::move(response), piece] {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::string head;
      char c;
      while (head.find("\r\n\r\n") == std::string::npos &&
             ReadFull(conn, &c, 1).ok()) {
        head.push_back(c);
      }
      for (std::size_t at = 0; at < response.size(); at += piece) {
        const std::size_t n = std::min(piece, response.size() - at);
        if (!WriteFull(conn, response.data() + at, n).ok()) break;
      }
      CloseFd(conn);
    });
  }
  ~HttpPeer() {
    thread_.join();
    CloseFd(listen_fd_);
  }
  HttpPeer(const HttpPeer&) = delete;
  HttpPeer& operator=(const HttpPeer&) = delete;
  int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(FetchMetricsJson, ReadsAResponseArrivingInSmallPieces) {
  std::string body = "{\"counters\": {";
  for (int i = 0; i < 200; ++i) {
    body += "\"c" + std::to_string(i) + "\": " + std::to_string(i) + ", ";
  }
  body += "\"end\": 0}}";
  HttpPeer peer("HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" +
                    body,
                7);
  Result<std::string> metrics = FetchMetricsJson("127.0.0.1", peer.port());
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(*metrics, body);
}

TEST(FetchMetricsJson, RefusesAResponseOverTheCap) {
  HttpPeer peer("HTTP/1.0 200 OK\r\n\r\n" + std::string((8u << 20) + 1, 'x'),
                64 << 10);
  Result<std::string> metrics = FetchMetricsJson("127.0.0.1", peer.port());
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(metrics.status().message().find("8 MiB"), std::string::npos)
      << metrics.status();
}

TEST(FetchMetricsJson, ChecksTheStatusLineAndTheHeaderTerminator) {
  {
    HttpPeer peer("HTTP/1.0 404 Not Found\r\n\r\nnope", 3);
    Result<std::string> metrics = FetchMetricsJson("127.0.0.1", peer.port());
    ASSERT_FALSE(metrics.ok());
    EXPECT_EQ(metrics.status().code(), StatusCode::kInternal);
    EXPECT_NE(metrics.status().message().find("404"), std::string::npos);
  }
  {
    HttpPeer peer("HTTP/1.0 200 OK\r\nno terminator", 5);
    Result<std::string> metrics = FetchMetricsJson("127.0.0.1", peer.port());
    ASSERT_FALSE(metrics.ok());
    EXPECT_EQ(metrics.status().code(), StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace serve
}  // namespace modb
