// Whole-system integration tests: multiple tenants sharing one cluster,
// the paper's headline comparisons smoke-checked end to end, and the
// control/data separation validated under real file traffic.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/units.h"
#include "fio/fio.h"

namespace ros2 {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Ros2Cluster::Config config;
    config.num_ssds = 4;
    config.engine_targets = 16;
    config.scm_per_target = 16 * kMiB;
    cluster_ = std::make_unique<core::Ros2Cluster>(config);
    for (const char* name : {"tenant-a", "tenant-b"}) {
      core::TenantConfig tenant;
      tenant.name = name;
      tenant.auth_token = std::string(name) + "-key";
      ASSERT_TRUE(cluster_->tenants()->Register(tenant).ok());
    }
  }

  std::unique_ptr<core::Ros2Client> Connect(const std::string& tenant,
                                            perf::Platform platform,
                                            net::Transport transport,
                                            const std::string& container) {
    core::ClientConfig config;
    config.platform = platform;
    config.transport = transport;
    config.tenant_name = tenant;
    config.tenant_token = tenant + "-key";
    config.container_label = container;
    auto client = core::Ros2Client::Connect(cluster_.get(), config);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::unique_ptr<core::Ros2Cluster> cluster_;
};

TEST_F(IntegrationTest, TwoTenantsIsolatedNamespaces) {
  auto a = Connect("tenant-a", perf::Platform::kBlueField3,
                   net::Transport::kRdma, "cont-a");
  auto b = Connect("tenant-b", perf::Platform::kBlueField3,
                   net::Transport::kRdma, "cont-b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  dfs::OpenFlags create;
  create.create = true;
  auto fa = a->Open("/private-a", create);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(a->Pwrite(*fa, 0, MakePatternBuffer(4096, 0xA)).ok());

  // Tenant B's namespace does not contain tenant A's file.
  EXPECT_EQ(b->Stat("/private-a").status().code(), ErrorCode::kNotFound);
  auto entries = b->Readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST_F(IntegrationTest, SharedContainerVisibleAcrossClients) {
  auto writer = Connect("tenant-a", perf::Platform::kServerHost,
                        net::Transport::kRdma, "shared");
  ASSERT_NE(writer, nullptr);
  dfs::OpenFlags create;
  create.create = true;
  auto fd = writer->Open("/dataset.bin", create);
  ASSERT_TRUE(fd.ok());
  Buffer data = MakePatternBuffer(2 * kMiB, 0x5);
  ASSERT_TRUE(writer->Pwrite(*fd, 0, data).ok());

  // A second client (offloaded, different transport) sees the same bytes —
  // the engine is deployment-agnostic (§3.3).
  auto reader = Connect("tenant-b", perf::Platform::kBlueField3,
                        net::Transport::kTcp, "shared");
  ASSERT_NE(reader, nullptr);
  auto rfd = reader->Open("/dataset.bin", dfs::OpenFlags{});
  ASSERT_TRUE(rfd.ok());
  Buffer out(data.size());
  auto n = reader->Pread(*rfd, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, data);
}

TEST_F(IntegrationTest, CryptoTenantsCannotReadEachOthersPlaintext) {
  // Both tenants write the same plaintext with inline crypto into a shared
  // container; their at-rest bytes differ (per-tenant keys), and each can
  // only decrypt its own.
  core::ClientConfig config_a;
  config_a.tenant_name = "tenant-a";
  config_a.tenant_token = "tenant-a-key";
  config_a.inline_crypto = true;
  config_a.container_label = "vault";
  auto a = core::Ros2Client::Connect(cluster_.get(), config_a);
  ASSERT_TRUE(a.ok());

  dfs::OpenFlags create;
  create.create = true;
  auto fd = (*a)->Open("/blob", create);
  ASSERT_TRUE(fd.ok());
  Buffer plain(4096, std::byte(0x77));
  ASSERT_TRUE((*a)->Pwrite(*fd, 0, plain).ok());

  core::ClientConfig config_b = config_a;
  config_b.tenant_name = "tenant-b";
  config_b.tenant_token = "tenant-b-key";
  auto b = core::Ros2Client::Connect(cluster_.get(), config_b);
  ASSERT_TRUE(b.ok());
  auto bfd = (*b)->Open("/blob", dfs::OpenFlags{});
  ASSERT_TRUE(bfd.ok());
  Buffer stolen(4096);
  ASSERT_TRUE((*b)->Pread(*bfd, 0, stolen).ok());
  // B decrypts with B's key: garbage, not the plaintext.
  EXPECT_NE(stolen, plain);
}

TEST_F(IntegrationTest, HeadlineShapesHoldEndToEnd) {
  // The paper's three takeaways (§4.4), asserted through the full harness
  // with functional verification enabled.
  struct Cell {
    perf::Platform platform;
    net::Transport transport;
    double gib_per_sec = 0.0;
  };
  Cell cells[] = {
      {perf::Platform::kServerHost, net::Transport::kRdma},
      {perf::Platform::kBlueField3, net::Transport::kRdma},
      {perf::Platform::kBlueField3, net::Transport::kTcp},
  };
  int i = 0;
  for (auto& cell : cells) {
    auto client = Connect("tenant-a", cell.platform, cell.transport,
                          "bench" + std::to_string(i++));
    ASSERT_NE(client, nullptr);
    fio::DfsFio::Setup setup;
    setup.num_ssds = 1;
    fio::DfsFio fio(client.get(), setup);
    fio::JobSpec spec;
    spec.name = "headline";
    spec.rw = perf::OpKind::kRead;
    spec.block_size = kMiB;
    spec.numjobs = 8;
    spec.total_ops = 8000;
    spec.verify_ops = 16;
    auto report = fio.Run(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->verified_ops, 16u);
    cell.gib_per_sec = report->bytes_per_sec / double(kGiB);
  }
  const double host_rdma = cells[0].gib_per_sec;
  const double dpu_rdma = cells[1].gib_per_sec;
  const double dpu_tcp = cells[2].gib_per_sec;
  // (i) DPU RDMA ~= host RDMA.
  EXPECT_NEAR(dpu_rdma, host_rdma, host_rdma * 0.1);
  // (ii) DPU TCP collapses for reads.
  EXPECT_LT(dpu_tcp, 0.6 * dpu_rdma);
}

TEST_F(IntegrationTest, EngineUnchangedAcrossDeployments) {
  // The same engine instance serves host-direct and offloaded clients
  // concurrently; its stats just accumulate.
  auto host = Connect("tenant-a", perf::Platform::kServerHost,
                      net::Transport::kRdma, "mix");
  auto dpu = Connect("tenant-b", perf::Platform::kBlueField3,
                     net::Transport::kTcp, "mix");
  ASSERT_NE(host, nullptr);
  ASSERT_NE(dpu, nullptr);
  dfs::OpenFlags create;
  create.create = true;
  auto f1 = host->Open("/h", create);
  auto f2 = dpu->Open("/d", create);
  ASSERT_TRUE(f1.ok() && f2.ok());
  ASSERT_TRUE(host->Pwrite(*f1, 0, MakePatternBuffer(kMiB, 1)).ok());
  ASSERT_TRUE(dpu->Pwrite(*f2, 0, MakePatternBuffer(kMiB, 2)).ok());
  EXPECT_GT(cluster_->engine()->updates(), 0u);
  EXPECT_GE(cluster_->engine()->server()->bulk_bytes_in(), 2 * kMiB);
}

}  // namespace
}  // namespace ros2
