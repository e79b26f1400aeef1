// FaultPlan unit tests plus integration through the layers that consult
// it: the net-layer legacy injectors (now thin wrappers over the owning
// object's plan) and the RPC server's kRpcDrop/kRpcDelay points.
#include "common/fault.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "rpc/wire.h"

namespace ros2::common {
namespace {

TEST(FaultPlanTest, DisarmedNeverFires) {
  FaultPlan plan;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.Evaluate(FaultPoint::kNetSend).fire);
  }
  EXPECT_EQ(plan.arrivals(FaultPoint::kNetSend), 100u);
  EXPECT_EQ(plan.fired(FaultPoint::kNetSend), 0u);
  EXPECT_FALSE(plan.armed(FaultPoint::kNetSend));
}

TEST(FaultPlanTest, SkipCountWindow) {
  FaultPlan plan;
  FaultSpec spec;
  spec.skip = 3;
  spec.count = 2;
  plan.Arm(FaultPoint::kRpcDrop, spec);
  std::vector<bool> fires;
  for (int i = 0; i < 8; ++i) {
    fires.push_back(plan.Evaluate(FaultPoint::kRpcDrop).fire);
  }
  // 3 skipped, 2 fired, exhausted after.
  EXPECT_EQ(fires, (std::vector<bool>{false, false, false, true, true,
                                      false, false, false}));
  EXPECT_EQ(plan.fired(FaultPoint::kRpcDrop), 2u);
}

TEST(FaultPlanTest, RearmResetsWindowAndZeroCountDisarms) {
  FaultPlan plan;
  plan.Arm(FaultPoint::kNetSend, {/*skip=*/0, /*count=*/1});
  EXPECT_TRUE(plan.Evaluate(FaultPoint::kNetSend).fire);
  EXPECT_FALSE(plan.Evaluate(FaultPoint::kNetSend).fire);
  plan.Arm(FaultPoint::kNetSend, {/*skip=*/1, /*count=*/1});
  EXPECT_FALSE(plan.Evaluate(FaultPoint::kNetSend).fire);
  EXPECT_TRUE(plan.Evaluate(FaultPoint::kNetSend).fire);
  FaultSpec disarm;
  disarm.count = 0;
  plan.Arm(FaultPoint::kNetSend, disarm);
  EXPECT_FALSE(plan.armed(FaultPoint::kNetSend));
  EXPECT_FALSE(plan.Evaluate(FaultPoint::kNetSend).fire);
}

TEST(FaultPlanTest, PointsAreIndependent) {
  FaultPlan plan;
  plan.Arm(FaultPoint::kNetRegister, {/*skip=*/0, /*count=*/1});
  EXPECT_FALSE(plan.Evaluate(FaultPoint::kNetSend).fire);
  EXPECT_TRUE(plan.Evaluate(FaultPoint::kNetRegister).fire);
  EXPECT_FALSE(plan.Evaluate(FaultPoint::kRpcDrop).fire);
}

TEST(FaultPlanTest, ProbabilisticWindowIsSeedDeterministic) {
  // Two plans with the same seed replay the same flaky pattern; a third
  // with a different seed is allowed to differ (and a 64-arrival window at
  // p=0.5 fires some but not all).
  FaultSpec spec;
  spec.skip = 0;
  spec.count = 1000;
  spec.probability = 0.5;
  FaultPlan a(42), b(42), c(43);
  a.Arm(FaultPoint::kRpcDrop, spec);
  b.Arm(FaultPoint::kRpcDrop, spec);
  c.Arm(FaultPoint::kRpcDrop, spec);
  std::vector<bool> fa, fb, fc;
  for (int i = 0; i < 64; ++i) {
    fa.push_back(a.Evaluate(FaultPoint::kRpcDrop).fire);
    fb.push_back(b.Evaluate(FaultPoint::kRpcDrop).fire);
    fc.push_back(c.Evaluate(FaultPoint::kRpcDrop).fire);
  }
  EXPECT_EQ(fa, fb);
  EXPECT_GT(a.fired(FaultPoint::kRpcDrop), 0u);
  EXPECT_LT(a.fired(FaultPoint::kRpcDrop), 64u);
  // Probability draws only consume RNG when in-window: a fired count
  // mismatch across seeds is expected but not guaranteed; the sequences
  // existing and being internally consistent is the contract.
  EXPECT_EQ(fc.size(), 64u);
}

TEST(FaultPlanTest, DelayPayloadRidesTheDecision) {
  FaultPlan plan;
  FaultSpec spec;
  spec.count = 1;
  spec.delay_us = 250;
  plan.Arm(FaultPoint::kRpcDelay, spec);
  const FaultDecision d = plan.Evaluate(FaultPoint::kRpcDelay);
  EXPECT_TRUE(d.fire);
  EXPECT_EQ(d.delay_us, 250u);
  EXPECT_EQ(plan.Evaluate(FaultPoint::kRpcDelay).delay_us, 0u);
}

// --- net-layer integration: each Qp / Endpoint owns the plan it consults -

TEST(FaultPlanNetTest, LegacySendInjectorArmsQpPlan) {
  net::Fabric fabric;
  auto a = fabric.CreateEndpoint("fabric://fault-a");
  auto b = fabric.CreateEndpoint("fabric://fault-b");
  ASSERT_TRUE(a.ok() && b.ok());
  auto qp = (*a)->Connect(*b, net::Transport::kTcp, (*a)->AllocPd(),
                          (*b)->AllocPd());
  ASSERT_TRUE(qp.ok());
  (*qp)->fault_plan().Arm(FaultPoint::kNetSend, {/*skip=*/0, /*count=*/2});
  EXPECT_TRUE((*qp)->fault_plan().armed(FaultPoint::kNetSend));
  Buffer payload = MakePatternBuffer(64, 1);
  EXPECT_EQ((*qp)->Send(payload).code(), ErrorCode::kUnavailable);
  EXPECT_EQ((*qp)->Send(payload).code(), ErrorCode::kUnavailable);
  EXPECT_TRUE((*qp)->Send(payload).ok());
  EXPECT_EQ((*qp)->fault_plan().fired(FaultPoint::kNetSend), 2u);
}

TEST(FaultPlanNetTest, LegacyRegisterInjectorHonorsSkip) {
  net::Fabric fabric;
  auto ep = fabric.CreateEndpoint("fabric://fault-reg");
  ASSERT_TRUE(ep.ok());
  (*ep)->fault_plan().Arm(FaultPoint::kNetRegister,
                         {/*skip=*/1, /*count=*/1});
  Buffer buf = MakePatternBuffer(128, 2);
  const auto pd = (*ep)->AllocPd();
  auto first = (*ep)->RegisterMemory(pd, buf, net::kRemoteRead);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*ep)->RegisterMemory(pd, buf, net::kRemoteRead).status().code(),
            ErrorCode::kResourceExhausted);
  EXPECT_TRUE((*ep)->RegisterMemory(pd, buf, net::kRemoteRead).ok());
}

// --- RPC-layer integration: drop + delay points in Dispatch -------------

class FaultRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server_ep = fabric_.CreateEndpoint("fabric://fault-server");
    auto client_ep = fabric_.CreateEndpoint("fabric://fault-client");
    ASSERT_TRUE(server_ep.ok() && client_ep.ok());
    auto qp = (*client_ep)->Connect(*server_ep, net::Transport::kTcp,
                                    (*client_ep)->AllocPd(),
                                    (*server_ep)->AllocPd());
    ASSERT_TRUE(qp.ok());
    qp_ = *qp;
    client_ = std::make_unique<rpc::RpcClient>(
        qp_, *client_ep, [this] { (void)server_.Progress(qp_->peer()); });
    server_.Register(
        1, [](ByteView header, rpc::BulkIo&) -> Result<Buffer> {
          return Buffer(header.begin(), header.end());
        });
  }

  net::Fabric fabric_;
  net::Qp* qp_ = nullptr;
  rpc::RpcServer server_;
  std::unique_ptr<rpc::RpcClient> client_;
};

TEST_F(FaultRpcTest, DroppedRequestAnswersUnavailable) {
  FaultPlan plan;
  plan.Arm(FaultPoint::kRpcDrop, {/*skip=*/1, /*count=*/1});
  server_.set_fault_plan(&plan);
  Buffer header = MakePatternBuffer(8, 3);
  EXPECT_TRUE(client_->Call(1, header, {}).ok());
  auto dropped = client_->Call(1, header, {});
  EXPECT_EQ(dropped.status().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(client_->Call(1, header, {}).ok());
  EXPECT_EQ(server_.requests_dropped(), 1u);
  server_.set_fault_plan(nullptr);
  EXPECT_TRUE(client_->Call(1, header, {}).ok());
}

TEST_F(FaultRpcTest, DelayedRequestStillAnswers) {
  FaultPlan plan;
  FaultSpec spec;
  spec.count = 1;
  spec.delay_us = 100;  // keep the test fast; firing is what we assert
  plan.Arm(FaultPoint::kRpcDelay, spec);
  server_.set_fault_plan(&plan);
  Buffer header = MakePatternBuffer(8, 4);
  EXPECT_TRUE(client_->Call(1, header, {}).ok());
  EXPECT_EQ(plan.fired(FaultPoint::kRpcDelay), 1u);
  EXPECT_EQ(server_.requests_dropped(), 0u);
}

}  // namespace
}  // namespace ros2::common
