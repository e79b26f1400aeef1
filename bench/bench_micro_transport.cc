// Real-time microbenchmarks (google-benchmark) of the FUNCTIONAL data
// path: what eager (inline copy, TCP-style) vs rendezvous (one-sided,
// RDMA-style) transfer costs in this process, plus CRC and ChaCha20 rates.
// These measure the simulator's real CPU work — complementary to the
// calibrated model numbers in the fig benches.
#include <benchmark/benchmark.h>

#include "common/bytes.h"
#include "common/crc.h"
#include "core/chacha20.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"

namespace {

using namespace ros2;

struct RpcPair {
  net::Fabric fabric;
  net::Endpoint* client_ep = nullptr;
  net::Qp* qp = nullptr;
  rpc::RpcServer server;
  std::unique_ptr<rpc::RpcClient> client;

  explicit RpcPair(net::Transport transport) {
    auto server_ep = fabric.CreateEndpoint("fabric://s");
    auto client_result = fabric.CreateEndpoint("fabric://c");
    client_ep = *client_result;
    auto qp_result = client_ep->Connect(*server_ep, transport,
                                        client_ep->AllocPd(),
                                        (*server_ep)->AllocPd());
    qp = *qp_result;
    client = std::make_unique<rpc::RpcClient>(
        qp, client_ep, [this] { (void)server.Progress(qp->peer()); });
    server.Register(1, [](ByteView, rpc::BulkIo& bulk) -> Result<Buffer> {
      Buffer data(bulk.in_size());
      if (bulk.in_size() > 0) {
        ROS2_RETURN_IF_ERROR(bulk.Pull(data));
      }
      if (bulk.out_capacity() > 0) {
        Buffer reply(bulk.out_capacity(), std::byte(0x5A));
        ROS2_RETURN_IF_ERROR(bulk.Push(reply));
      }
      return Buffer{};
    });
  }
};

void BM_BulkFetch(benchmark::State& state, net::Transport transport) {
  RpcPair pair(transport);
  const std::size_t size = std::size_t(state.range(0));
  Buffer window(size);
  for (auto _ : state) {
    rpc::CallOptions options;
    options.recv_bulk = window;
    auto reply = pair.client->Call(1, std::span<const std::byte>{}, options);
    benchmark::DoNotOptimize(reply);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(size));
}

void BM_BulkUpdate(benchmark::State& state, net::Transport transport) {
  RpcPair pair(transport);
  const std::size_t size = std::size_t(state.range(0));
  Buffer payload = MakePatternBuffer(size, 1);
  for (auto _ : state) {
    rpc::CallOptions options;
    options.send_bulk = payload;
    auto reply = pair.client->Call(1, std::span<const std::byte>{}, options);
    benchmark::DoNotOptimize(reply);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(size));
}

void BM_OneSidedRead(benchmark::State& state) {
  net::Fabric fabric;
  auto a = *fabric.CreateEndpoint("fabric://a");
  auto b = *fabric.CreateEndpoint("fabric://b");
  auto qp = *a->Connect(b, net::Transport::kRdma, a->AllocPd(),
                        b->AllocPd());
  Buffer remote = MakePatternBuffer(std::size_t(state.range(0)), 2);
  // Register under the connection's PD so the capability check passes.
  auto mr =
      *b->RegisterMemory(qp->peer()->local_pd(), remote, net::kRemoteRead);
  Buffer local(remote.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp->RdmaRead(local, mr.addr, mr.rkey));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(local.size()));
}

void BM_Crc32c(benchmark::State& state) {
  Buffer data = MakePatternBuffer(std::size_t(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(data.size()));
}

void BM_ChaCha20(benchmark::State& state) {
  core::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = std::uint8_t(i);
  Buffer data = MakePatternBuffer(std::size_t(state.range(0)), 4);
  for (auto _ : state) {
    core::ChaCha20Xor(key, 1, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(data.size()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_BulkFetch, tcp_eager, ros2::net::Transport::kTcp)
    ->Range(4096, 1 << 20);
BENCHMARK_CAPTURE(BM_BulkFetch, rdma_rendezvous,
                  ros2::net::Transport::kRdma)
    ->Range(4096, 1 << 20);
BENCHMARK_CAPTURE(BM_BulkUpdate, tcp_eager, ros2::net::Transport::kTcp)
    ->Range(4096, 1 << 20);
BENCHMARK_CAPTURE(BM_BulkUpdate, rdma_rendezvous,
                  ros2::net::Transport::kRdma)
    ->Range(4096, 1 << 20);
BENCHMARK(BM_OneSidedRead)->Range(4096, 1 << 20);
BENCHMARK(BM_Crc32c)->Range(4096, 1 << 20);
BENCHMARK(BM_ChaCha20)->Range(4096, 1 << 20);

BENCHMARK_MAIN();
