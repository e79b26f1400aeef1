// Threaded-xstream tests: real worker threads per target (daos::Xstream),
// the threaded EngineScheduler's workers sending their own replies, and
// the engine's dedicated network progress thread. Parallelism is asserted
// STRUCTURALLY (latch handshakes between ops on different targets), never
// by timing — the suite must pass unchanged on a single-core host.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/cluster.h"
#include "daos/engine.h"
#include "daos/scheduler.h"
#include "daos/xstream.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "rpc/wire.h"

namespace ros2::daos {
namespace {

constexpr std::span<const std::byte> kNoHeader{};

// ---------------------------------------------------- Xstream unit tests

TEST(XstreamTest, ExecutesSubmittedTasksFifo) {
  Xstream xs;
  std::vector<int> order;  // touched only by the single worker thread
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(xs.Submit([&order, i] { order.push_back(i); }));
  }
  xs.Quiesce();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[std::size_t(i)], i);
  EXPECT_EQ(xs.executed(), 32u);
  EXPECT_EQ(xs.queued(), 0u);
  EXPECT_GE(xs.max_queue_depth(), 1u);
}

TEST(XstreamTest, StopDrainsTheQueueBeforeJoining) {
  // Hold the worker on its first task so the rest pile up, then Stop:
  // every queued task must still execute (clean shutdown loses nothing).
  Xstream xs(/*queue_capacity=*/64);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  ASSERT_TRUE(xs.Submit([&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
    ran.fetch_add(1);
  }));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(xs.Submit([&ran] { ran.fetch_add(1); }));
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  xs.Stop();
  EXPECT_EQ(ran.load(), 17);
  EXPECT_EQ(xs.executed(), 17u);
  // A stopped stream rejects new work instead of silently dropping it.
  EXPECT_FALSE(xs.Submit([] {}));
}

// ------------------------------------------ threaded scheduler fixtures

class SchedulerMtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server_ep = fabric_.CreateEndpoint("fabric://sched-mt-server");
    auto client_ep = fabric_.CreateEndpoint("fabric://sched-mt-client");
    ASSERT_TRUE(server_ep.ok() && client_ep.ok());
    auto qp = (*client_ep)->Connect(*server_ep, net::Transport::kRdma,
                                    (*client_ep)->AllocPd(),
                                    (*server_ep)->AllocPd());
    ASSERT_TRUE(qp.ok());
    qp_ = *qp;
    client_ = std::make_unique<rpc::RpcClient>(qp_, *client_ep, nullptr);
    client_->set_max_in_flight(64);
    server_.RegisterAsync(1, [this](rpc::RpcContextPtr ctx) {
      parked_.push_back(std::move(ctx));
      return rpc::HandlerVerdict::kDeferred;
    });
  }

  std::vector<rpc::RpcContextPtr> Park(int n) {
    for (int i = 0; i < n; ++i) {
      auto id = client_->CallAsync(1, kNoHeader);
      EXPECT_TRUE(id.ok());
    }
    EXPECT_TRUE(server_.Progress(qp_->peer()).ok());
    return std::move(parked_);
  }

  net::Fabric fabric_;
  net::Qp* qp_ = nullptr;
  rpc::RpcServer server_;
  std::unique_ptr<rpc::RpcClient> client_;
  std::vector<rpc::RpcContextPtr> parked_;
};

TEST_F(SchedulerMtTest, SameTargetOpsStayFifoOnAWorkerThread) {
  EngineScheduler sched(4, {.threaded = true});
  ASSERT_TRUE(sched.threaded());
  auto ctxs = Park(24);
  ASSERT_EQ(ctxs.size(), 24u);
  // One target = one worker = one FIFO: arrival order is execution order.
  std::vector<int> order;  // touched only by target 2's worker
  for (int i = 0; i < 24; ++i) {
    sched.Enqueue(2, std::move(ctxs[std::size_t(i)]),
                  [&order, i](rpc::RpcContext&) -> Result<Buffer> {
                    order.push_back(i);
                    return Buffer{};
                  });
  }
  sched.Quiesce();  // every reply sent at the barrier
  ASSERT_EQ(order.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(order[std::size_t(i)], i) << "op executed out of order";
  }
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(sched.executed(), 24u);
  EXPECT_EQ(client_->Poll(), 24u);
}

TEST_F(SchedulerMtTest, CrossTargetOpsRunConcurrently) {
  // STRUCTURAL parallelism proof: target 0's op blocks until target 1's
  // op releases it. If both targets shared one execution stream this
  // deadlocks (and the guard timeout turns it into a visible failure);
  // with real per-target workers it completes on any core count.
  EngineScheduler sched(2, {.threaded = true});
  auto ctxs = Park(2);
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  sched.Enqueue(0, std::move(ctxs[0]),
                [&](rpc::RpcContext&) -> Result<Buffer> {
                  std::unique_lock<std::mutex> lk(mu);
                  if (!cv.wait_for(lk, std::chrono::seconds(30),
                                   [&] { return released; })) {
                    return Status(
                        Unavailable("target 1 never ran concurrently"));
                  }
                  return Buffer{};
                });
  sched.Enqueue(1, std::move(ctxs[1]),
                [&](rpc::RpcContext&) -> Result<Buffer> {
                  std::lock_guard<std::mutex> lk(mu);
                  released = true;
                  cv.notify_all();
                  return Buffer{};
                });
  sched.Quiesce();
  ASSERT_EQ(client_->Poll(), 2u);
  // Both replies OK: the handshake completed, so the ops overlapped.
  auto first = client_->Take(1);
  auto second = client_->Take(2);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(second.ok()) << second.status().ToString();
}

TEST_F(SchedulerMtTest, WorkerRepliesWithoutAProgressTick) {
  // Workers send their own replies: with no scheduler or engine progress
  // call at all, every reply reaches the client and the scheduler drains.
  EngineScheduler sched(2, {.threaded = true});
  auto ctxs = Park(8);
  ASSERT_EQ(ctxs.size(), 8u);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    ids.push_back(ctxs[i]->seq());
    sched.Enqueue(std::uint32_t(i % 2), std::move(ctxs[i]),
                  [](rpc::RpcContext&) -> Result<Buffer> { return Buffer{}; });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t replies = 0;
  while ((replies < ids.size() || !sched.idle()) &&
         std::chrono::steady_clock::now() < deadline) {
    replies += client_->Poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(replies, ids.size());
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(sched.executed(), ids.size());
  for (std::uint64_t id : ids) {
    auto reply = client_->Take(id);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  }
}

TEST_F(SchedulerMtTest, ShutdownExecutesQueuedOpsAndSendsReplies) {
  EngineScheduler sched(2, {.threaded = true});
  auto ctxs = Park(8);
  std::atomic<int> ran{0};
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    sched.Enqueue(std::uint32_t(i % 2), std::move(ctxs[i]),
                  [&ran](rpc::RpcContext&) -> Result<Buffer> {
                    ran.fetch_add(1);
                    return Buffer{};
                  });
  }
  // No Progress tick at all: Shutdown itself must run the queues dry and
  // send every reply — a clean shutdown loses no accepted request.
  sched.Shutdown();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(sched.executed(), 8u);
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(client_->Poll(), 8u);

  // Work arriving AFTER shutdown is refused with a reply, not dropped.
  auto late = Park(1);
  ASSERT_EQ(late.size(), 1u);
  const auto late_id = late[0]->seq();
  sched.Enqueue(0, std::move(late[0]),
                [](rpc::RpcContext&) -> Result<Buffer> { return Buffer{}; });
  ASSERT_EQ(client_->Poll(), 1u);
  auto reply = client_->Take(late_id);
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  sched.Shutdown();  // idempotent
}

// ----------------------------------------------- threaded engine tests

class ThreadedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterSpec spec;
    spec.engine.address = "fabric://mt-engine";
    spec.engine.targets = 4;
    spec.engine.scm_per_target = 16 * kMiB;
    spec.engine.xstream_workers = true;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    engine_ = cluster_->engine(0);
    ASSERT_TRUE(engine_->scheduler().threaded());
  }

  std::unique_ptr<rpc::RpcClient> NewClient(int index, bool pump) {
    auto ep = cluster_->fabric()->CreateEndpoint("fabric://mt-client-" +
                                                 std::to_string(index));
    EXPECT_TRUE(ep.ok());
    auto qp = (*ep)->Connect(engine_->endpoint(), net::Transport::kRdma,
                             (*ep)->AllocPd(), engine_->pd());
    EXPECT_TRUE(qp.ok());
    DaosEngine* engine = engine_;
    auto client = std::make_unique<rpc::RpcClient>(
        *qp, *ep,
        pump ? std::function<void()>([engine] { (void)engine->ProgressAll(); })
             : std::function<void()>());
    // The progress-thread path completes replies asynchronously; give the
    // pump loops a generous stall window so a loaded host can't misfire.
    client->set_stall_timeout_ms(10000.0);
    return client;
  }

  Result<ContainerId> CreateContainer(rpc::RpcClient* client,
                                      const std::string& label) {
    rpc::Encoder enc;
    enc.Str(label);
    ROS2_ASSIGN_OR_RETURN(
        rpc::RpcReply reply,
        client->Call(std::uint32_t(DaosOpcode::kContCreate), enc));
    rpc::Decoder dec(reply.header);
    return dec.U64();
  }

  static rpc::Encoder SingleUpdateHeader(ContainerId cont,
                                         const ObjectId& oid,
                                         const std::string& dkey,
                                         std::span<const std::byte> value) {
    rpc::Encoder enc;
    enc.U64(cont).U64(oid.hi).U64(oid.lo).Str(dkey).Str("a");
    enc.Bytes(value);
    return enc;
  }

  std::unique_ptr<Cluster> cluster_;
  DaosEngine* engine_ = nullptr;
};

TEST_F(ThreadedEngineTest, SameDkeyFifoHoldsWithRealWorkers) {
  auto client = NewClient(0, /*pump=*/true);
  auto cont = CreateContainer(client.get(), "mt-fifo");
  ASSERT_TRUE(cont.ok());
  ObjectId oid{1, 42};

  constexpr int kUpdates = 12;
  std::vector<rpc::RpcClient::CallId> ids;
  std::vector<Buffer> values;
  for (int i = 0; i < kUpdates; ++i) {
    values.push_back(MakePatternBuffer(64, std::uint64_t(i) + 1));
    rpc::Encoder header =
        SingleUpdateHeader(*cont, oid, "hot-dkey", values.back());
    auto id = client->CallAsync(std::uint32_t(DaosOpcode::kSingleUpdate),
                                header);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(engine_->ProgressAll().ok());
  ASSERT_EQ(client->Poll(), std::size_t(kUpdates));

  // Epochs stamp on the target worker at execution time: per-dkey FIFO
  // means the i-th issued update carries the i-th epoch.
  Epoch last = 0;
  for (int i = 0; i < kUpdates; ++i) {
    auto reply = client->Take(ids[std::size_t(i)]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    rpc::Decoder dec(reply->header);
    auto epoch = dec.U64();
    ASSERT_TRUE(epoch.ok());
    EXPECT_GT(*epoch, last) << "update " << i << " executed out of order";
    last = *epoch;
  }
  EXPECT_EQ(engine_->updates(), std::uint64_t(kUpdates));

  rpc::Encoder fetch;
  fetch.U64(*cont).U64(oid.hi).U64(oid.lo).Str("hot-dkey").Str("a");
  fetch.U64(kEpochHead);
  auto reply = client->Call(std::uint32_t(DaosOpcode::kSingleFetch), fetch);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  rpc::Decoder dec(reply->header);
  auto value = dec.Bytes();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, values.back());
}

TEST_F(ThreadedEngineTest, ProgressThreadServesClientsWithoutAPump) {
  engine_->StartProgressThread();
  ASSERT_TRUE(engine_->progress_thread_running());
  engine_->StartProgressThread();  // no-op, not a second thread

  // NO client-side progress hook: the engine's own thread must notice the
  // doorbell, decode, execute on the target worker, and send the reply.
  auto client = NewClient(1, /*pump=*/false);
  auto cont = CreateContainer(client.get(), "mt-async");
  ASSERT_TRUE(cont.ok());
  ObjectId oid{1, 7};

  constexpr int kOps = 16;
  Buffer value = MakePatternBuffer(128, 9);
  std::vector<rpc::RpcClient::CallId> ids;
  for (int i = 0; i < kOps; ++i) {
    rpc::Encoder header = SingleUpdateHeader(
        *cont, oid, "k" + std::to_string(i), value);
    auto id = client->CallAsync(std::uint32_t(DaosOpcode::kSingleUpdate),
                                header);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(client->Flush().ok());
  for (auto id : ids) {
    auto reply = client->Take(id);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  EXPECT_EQ(engine_->updates(), std::uint64_t(kOps));

  // Barrier op (dkey enumeration) answered by the progress thread too.
  // Wire format: obj addr + paging marker/limit ("" + 0 = everything) +
  // akey ("" = names only).
  rpc::Encoder list;
  list.U64(*cont).U64(oid.hi).U64(oid.lo).Str("").U32(0).Str("");
  auto listed = client->Call(std::uint32_t(DaosOpcode::kListEntries), list);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  rpc::Decoder dec(listed->header);
  auto count = dec.U32();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, std::uint32_t(kOps));

  engine_->StopProgressThread();
  EXPECT_FALSE(engine_->progress_thread_running());
  engine_->StopProgressThread();  // idempotent
}

}  // namespace
}  // namespace ros2::daos
