#include "net/fabric.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/bytes.h"

namespace ros2::net {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = fabric_.CreateEndpoint("fabric://a");
    auto b = fabric_.CreateEndpoint("fabric://b");
    ASSERT_TRUE(a.ok() && b.ok());
    a_ = *a;
    b_ = *b;
    pd_a_ = a_->AllocPd();
    pd_b_ = b_->AllocPd();
  }

  Qp* Connect(Transport transport) {
    auto qp = a_->Connect(b_, transport, pd_a_, pd_b_);
    EXPECT_TRUE(qp.ok());
    return qp.ok() ? *qp : nullptr;
  }

  Fabric fabric_;
  Endpoint* a_ = nullptr;
  Endpoint* b_ = nullptr;
  PdId pd_a_ = 0;
  PdId pd_b_ = 0;
};

TEST_F(FabricTest, EndpointAddressesUnique) {
  EXPECT_EQ(fabric_.CreateEndpoint("fabric://a").status().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_TRUE(fabric_.Lookup("fabric://a").ok());
  EXPECT_EQ(fabric_.Lookup("fabric://zzz").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(FabricTest, SendRecvBothTransports) {
  for (Transport t : {Transport::kTcp, Transport::kRdma}) {
    Qp* qp = Connect(t);
    ASSERT_NE(qp, nullptr);
    Buffer msg = MakePatternBuffer(256, 1);
    ASSERT_TRUE(qp->Send(msg).ok());
    ASSERT_TRUE(qp->peer()->HasMessage());
    auto received = qp->peer()->Recv();
    ASSERT_TRUE(received.ok());
    EXPECT_EQ(received->payload, msg);
    // Reply direction.
    ASSERT_TRUE(qp->peer()->Send(msg).ok());
    EXPECT_TRUE(qp->Recv().ok());
  }
}

TEST_F(FabricTest, RecvOnEmptyQueue) {
  Qp* qp = Connect(Transport::kRdma);
  EXPECT_EQ(qp->Recv().status().code(), ErrorCode::kNotFound);
}

TEST_F(FabricTest, MessagesDeliveredInOrder) {
  Qp* qp = Connect(Transport::kTcp);
  for (std::uint8_t i = 0; i < 10; ++i) {
    Buffer msg{std::byte(i)};
    ASSERT_TRUE(qp->Send(msg).ok());
  }
  for (std::uint8_t i = 0; i < 10; ++i) {
    auto msg = qp->peer()->Recv();
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->payload[0], std::byte(i));
  }
}

TEST_F(FabricTest, RdmaReadPullsRemoteMemory) {
  Qp* qp = Connect(Transport::kRdma);
  Buffer remote = MakePatternBuffer(4096, 9);
  auto mr = b_->RegisterMemory(pd_b_, remote, kRemoteRead);
  ASSERT_TRUE(mr.ok());

  Buffer local(4096);
  ASSERT_TRUE(qp->RdmaRead(local, mr->addr, mr->rkey).ok());
  EXPECT_EQ(local, remote);
  EXPECT_EQ(qp->bytes_one_sided(), 4096u);
}

TEST_F(FabricTest, RdmaWritePushesIntoRemoteMemory) {
  Qp* qp = Connect(Transport::kRdma);
  Buffer remote(4096);
  auto mr = b_->RegisterMemory(pd_b_, remote, kRemoteWrite);
  ASSERT_TRUE(mr.ok());

  Buffer local = MakePatternBuffer(4096, 4);
  ASSERT_TRUE(qp->RdmaWrite(local, mr->addr, mr->rkey).ok());
  EXPECT_EQ(remote, local);
}

TEST_F(FabricTest, RdmaIntoSubrange) {
  Qp* qp = Connect(Transport::kRdma);
  Buffer remote = MakePatternBuffer(4096, 2);
  auto mr = b_->RegisterMemory(pd_b_, remote, kRemoteRead);
  ASSERT_TRUE(mr.ok());
  Buffer local(100);
  ASSERT_TRUE(qp->RdmaRead(local, mr->addr + 1000, mr->rkey).ok());
  EXPECT_EQ(VerifyPattern(local, 2, 1000), -1);
}

TEST_F(FabricTest, OneSidedOpsRefusedOnTcp) {
  Qp* qp = Connect(Transport::kTcp);
  Buffer remote(128);
  auto mr = b_->RegisterMemory(pd_b_, remote, kRemoteRead | kRemoteWrite);
  ASSERT_TRUE(mr.ok());
  Buffer local(128);
  EXPECT_EQ(qp->RdmaRead(local, mr->addr, mr->rkey).code(),
            ErrorCode::kUnimplemented);
  EXPECT_EQ(qp->RdmaWrite(local, mr->addr, mr->rkey).code(),
            ErrorCode::kUnimplemented);
}

TEST_F(FabricTest, ConnectValidatesPds) {
  EXPECT_EQ(a_->Connect(b_, Transport::kRdma, 999, pd_b_).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(a_->Connect(b_, Transport::kRdma, pd_a_, 999).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(a_->Connect(nullptr, Transport::kRdma, pd_a_, pd_b_)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(FabricTest, RegisterValidation) {
  Buffer region(64);
  EXPECT_EQ(a_->RegisterMemory(999, region, kRemoteRead).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(
      a_->RegisterMemory(pd_a_, std::span<std::byte>(), kRemoteRead)
          .status()
          .code(),
      ErrorCode::kInvalidArgument);
}

TEST_F(FabricTest, DeregisterRemovesMr) {
  Buffer region(64);
  auto mr = a_->RegisterMemory(pd_a_, region, kRemoteRead);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(a_->mr_count(), 1u);
  ASSERT_TRUE(a_->DeregisterMemory(mr->rkey).ok());
  EXPECT_EQ(a_->mr_count(), 0u);
  EXPECT_EQ(a_->DeregisterMemory(mr->rkey).code(), ErrorCode::kNotFound);
}

TEST_F(FabricTest, RkeysNeverReused) {
  Buffer region(64);
  auto mr1 = a_->RegisterMemory(pd_a_, region, kRemoteRead);
  ASSERT_TRUE(mr1.ok());
  ASSERT_TRUE(a_->DeregisterMemory(mr1->rkey).ok());
  auto mr2 = a_->RegisterMemory(pd_a_, region, kRemoteRead);
  ASSERT_TRUE(mr2.ok());
  EXPECT_NE(mr1->rkey, mr2->rkey);
}

TEST_F(FabricTest, PdTenantTracked) {
  const PdId pd = a_->AllocPd(/*tenant=*/7);
  auto tenant = a_->PdTenant(pd);
  ASSERT_TRUE(tenant.ok());
  EXPECT_EQ(*tenant, 7u);
  EXPECT_EQ(a_->PdTenant(12345).status().code(), ErrorCode::kNotFound);
}

TEST_F(FabricTest, LogicalClockAdvances) {
  EXPECT_DOUBLE_EQ(fabric_.now(), 0.0);
  fabric_.AdvanceTime(1.5);
  fabric_.AdvanceTime(0.5);
  EXPECT_DOUBLE_EQ(fabric_.now(), 2.0);
}

// ------------------------------------------------------------- PollSet

TEST_F(FabricTest, PollSetDrainServicesOnlyReadyQps) {
  // Three server-side QPs in the set; messages on two of them.
  std::vector<Qp*> server_qps;
  for (int i = 0; i < 3; ++i) {
    Qp* qp = Connect(Transport::kRdma);
    ASSERT_NE(qp, nullptr);
    server_qps.push_back(qp->peer());
  }
  PollSet set;
  for (Qp* qp : server_qps) ASSERT_TRUE(set.Add(qp).ok());
  EXPECT_EQ(set.member_count(), 3u);
  EXPECT_FALSE(set.has_ready());

  Buffer msg = MakePatternBuffer(16, 1);
  ASSERT_TRUE(server_qps[0]->peer()->Send(msg).ok());
  ASSERT_TRUE(server_qps[2]->peer()->Send(msg).ok());
  ASSERT_TRUE(server_qps[2]->peer()->Send(msg).ok());  // same edge

  std::vector<Qp*> drained;
  EXPECT_EQ(set.Drain([&](Qp* qp) {
              drained.push_back(qp);
              while (qp->HasMessage()) (void)qp->Recv();
            }),
            2u)
      << "only the two ready QPs get serviced — no per-QP scan semantics";
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], server_qps[0]);
  EXPECT_EQ(drained[1], server_qps[2]);
  // Nothing ready: an idle drain services nobody.
  EXPECT_EQ(set.Drain([&](Qp*) { FAIL() << "idle drain ran a qp"; }), 0u);
}

TEST_F(FabricTest, PollSetRearmsUndrainedQps) {
  Qp* client = Connect(Transport::kTcp);
  ASSERT_NE(client, nullptr);
  PollSet set;
  ASSERT_TRUE(set.Add(client->peer()).ok());
  Buffer msg = MakePatternBuffer(8, 2);
  ASSERT_TRUE(client->Send(msg).ok());
  ASSERT_TRUE(client->Send(msg).ok());
  // A handler that consumes only ONE message (bailed early): the edge was
  // spent, but the set re-raises it so the leftover is not stranded.
  EXPECT_EQ(set.Drain([](Qp* qp) { (void)qp->Recv(); }), 1u);
  EXPECT_TRUE(set.has_ready());
  EXPECT_EQ(set.Drain([](Qp* qp) { (void)qp->Recv(); }), 1u);
  EXPECT_FALSE(set.has_ready());
}

TEST_F(FabricTest, PollSetAddWithQueuedMessagesIsReady) {
  Qp* client = Connect(Transport::kRdma);
  ASSERT_NE(client, nullptr);
  Buffer msg = MakePatternBuffer(8, 3);
  ASSERT_TRUE(client->Send(msg).ok());  // arrives BEFORE registration
  PollSet set;
  ASSERT_TRUE(set.Add(client->peer()).ok());
  EXPECT_TRUE(set.has_ready());
  EXPECT_EQ(set.Drain([](Qp* qp) {
              while (qp->HasMessage()) (void)qp->Recv();
            }),
            1u);
}

TEST_F(FabricTest, PollSetMembershipIsExclusiveAndIdempotent) {
  Qp* client = Connect(Transport::kRdma);
  ASSERT_NE(client, nullptr);
  Qp* server_qp = client->peer();
  PollSet set_a;
  PollSet set_b;
  ASSERT_TRUE(set_a.Add(server_qp).ok());
  EXPECT_TRUE(set_a.Add(server_qp).ok());  // idempotent re-add
  EXPECT_EQ(set_a.member_count(), 1u);
  EXPECT_EQ(set_b.Add(server_qp).code(), ErrorCode::kFailedPrecondition);
  set_a.Remove(server_qp);
  EXPECT_EQ(set_a.member_count(), 0u);
  EXPECT_TRUE(set_b.Add(server_qp).ok());
}

TEST_F(FabricTest, PollSetDetachesOnDestruction) {
  Qp* client = Connect(Transport::kRdma);
  ASSERT_NE(client, nullptr);
  {
    PollSet set;
    ASSERT_TRUE(set.Add(client->peer()).ok());
  }
  // The set died registered; sends must not touch the dead set.
  Buffer msg = MakePatternBuffer(8, 4);
  EXPECT_TRUE(client->Send(msg).ok());
  EXPECT_TRUE(client->peer()->HasMessage());
}

TEST_F(FabricTest, PollSetAcceptHookAutoRegistersAcceptedQps) {
  PollSet set;
  b_->set_accept_poll_set(&set);
  Qp* q1 = Connect(Transport::kRdma);
  Qp* q2 = Connect(Transport::kTcp);
  ASSERT_NE(q1, nullptr);
  ASSERT_NE(q2, nullptr);
  // Only b_'s accepted halves joined the set — not the initiator side.
  EXPECT_EQ(set.member_count(), 2u);
  Buffer msg = MakePatternBuffer(8, 5);
  ASSERT_TRUE(q1->Send(msg).ok());
  ASSERT_TRUE(q2->Send(msg).ok());
  int serviced = 0;
  set.Drain([&](Qp* qp) {
    ++serviced;
    while (qp->HasMessage()) (void)qp->Recv();
  });
  EXPECT_EQ(serviced, 2);
  b_->set_accept_poll_set(nullptr);
  Qp* q3 = Connect(Transport::kRdma);
  ASSERT_NE(q3, nullptr);
  EXPECT_EQ(set.member_count(), 2u) << "hook cleared; no auto-register";
}

TEST_F(FabricTest, PollSetDoorbellRingsOncePerArmCycle) {
  Qp* client = Connect(Transport::kRdma);
  ASSERT_NE(client, nullptr);
  PollSet set;
  ASSERT_TRUE(set.Add(client->peer()).ok());
  const std::uint64_t doorbells_before = set.doorbells();
  Buffer msg = MakePatternBuffer(8, 6);
  // A burst of sends into an idle set: ONE doorbell (eventfd semantics) —
  // the wakeup cost pipelining amortizes across the burst.
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(client->Send(msg).ok());
  const std::uint64_t rung = set.doorbells() - doorbells_before;
  EXPECT_LE(rung, 1u);
  set.Drain([](Qp* qp) {
    while (qp->HasMessage()) (void)qp->Recv();
  });
  // Next burst starts a new arm cycle.
  ASSERT_TRUE(client->Send(msg).ok());
  EXPECT_EQ(set.doorbells() - doorbells_before, rung * 2);
}

TEST_F(FabricTest, ForeignThreadRingWakesBlockedDrainWait) {
  // The progress-thread wakeup path: a thread blocked in DrainWait must
  // wake when ANOTHER thread rings the doorbell (StopProgressThread uses
  // exactly this edge), and a consumed ring must not re-fire.
  PollSet set;
  std::atomic<int> wakeups{0};
  std::thread waiter([&] {
    // Generous timeout: the test fails on wakeups, not timing — a missed
    // ring shows up as a 30 s hang converted into wakeups == 0.
    set.DrainWait(30000, [](Qp*) {});
    wakeups.fetch_add(1);
  });
  // Give the waiter time to park. Ordering is safe either way: a Ring
  // BEFORE the wait latches ring_pending_, so the wait returns at once —
  // the exact lost-wakeup hole the latch exists to close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  set.Ring();
  waiter.join();
  EXPECT_EQ(wakeups.load(), 1);
  // The ring was consumed by that DrainWait: an immediate re-wait with a
  // short timeout sees an idle set, not a stale doorbell edge.
  EXPECT_EQ(set.DrainWait(1, [](Qp*) {
    FAIL() << "stale ring delivered a qp";
  }), 0u);
}

TEST_F(FabricTest, ConcurrentSendsMarkReadyWithoutLostWakeups) {
  // Many threads send into one poll set while a drainer loops: every
  // message must be serviced (no lost MarkReady edge, no torn ready set).
  constexpr int kSenders = 4;
  constexpr int kPerSender = 64;
  std::vector<Qp*> qps;
  for (int i = 0; i < kSenders; ++i) {
    Qp* qp = Connect(Transport::kRdma);
    ASSERT_NE(qp, nullptr);
    qps.push_back(qp);
  }
  PollSet set;
  for (Qp* qp : qps) ASSERT_TRUE(set.Add(qp->peer()).ok());

  std::atomic<int> received{0};
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      set.DrainWait(1, [&](Qp* qp) {
        while (qp->HasMessage()) {
          (void)qp->Recv();
          received.fetch_add(1);
        }
      });
    }
  });
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      Buffer msg = MakePatternBuffer(16, std::uint64_t(s) + 1);
      for (int i = 0; i < kPerSender; ++i) {
        ASSERT_TRUE(qps[std::size_t(s)]->Send(msg).ok());
      }
    });
  }
  for (auto& t : senders) t.join();
  while (received.load() < kSenders * kPerSender) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  set.Ring();  // unblock the drainer's final DrainWait
  drainer.join();
  EXPECT_EQ(received.load(), kSenders * kPerSender);
}

}  // namespace
}  // namespace ros2::net
