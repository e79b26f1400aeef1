// Wall-clock throughput of the RPC data path itself: calls per real
// second (4 KiB send + 4 KiB recv windows, registration-dominated) and
// bulk GiB per real second (1 MiB fetch-shaped windows,
// data-movement-dominated) over both transports — with the RDMA path
// measured both POOLED (MrCache leases, the production default) and
// UNPOOLED (per-call ad-hoc registration, what RpcClient::Call did before
// the pool). Registration genuinely pins pages (mlock), so the pooled win
// here is the honest cost the MR cache amortizes, not bookkeeping noise.
//
// The whole report is realtime-tagged: wall-clock rates churn by machine,
// so benchctl keeps this section out of EXPERIMENTS.md and out of the
// default `benchctl diff`; the metrics ride the BENCH JSON aggregate as
// direction-hinted counters (higher is better). The pooled>=2x-unpooled
// ratio check IS gated (bench exit code), because the ratio — unlike the
// absolute rates — is machine-independent.
//
// A second gated ratio prices TCP's inline path: a 64 KiB fetch round
// trip over TCP against the same fetch over RDMA, timed in alternating
// pairs (bench::Pairs) so ambient load lands on both alike. Both arms
// fill and push the same 64 KiB; RDMA then writes it one-sided into the
// client's window, while TCP copies it once into the reply's inline
// segment and the client copies it once out, as a socket would.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "bench/paired.h"
#include "bench/registry.h"
#include "common/bytes.h"
#include "common/table.h"
#include "common/units.h"
#include "net/fabric.h"
#include "net/mr_cache.h"
#include "rpc/data_rpc.h"

using namespace ros2;

namespace {

constexpr std::span<const std::byte> kNoHeader{};

struct RpcHarness {
  net::Fabric fabric;
  net::Endpoint* client_ep = nullptr;
  net::Qp* qp = nullptr;
  rpc::RpcServer server;
  std::unique_ptr<rpc::RpcClient> client;

  RpcHarness(net::Transport transport, bool pooled) {
    auto server_ep = *fabric.CreateEndpoint("fabric://server");
    client_ep = *fabric.CreateEndpoint("fabric://client");
    qp = *client_ep->Connect(server_ep, transport, client_ep->AllocPd(),
                             server_ep->AllocPd());
    client = std::make_unique<rpc::RpcClient>(
        qp, client_ep, [this] { (void)server.Progress(qp->peer()); });
    client->set_mr_pooling(pooled);
    // Fetch/update-shaped echo: pull whatever the client sent, fill
    // whatever window it exposed.
    server.Register(1, [](ByteView, rpc::BulkIo& bulk)
                           -> Result<Buffer> {
      if (bulk.in_size() > 0) {
        Buffer data(bulk.in_size());
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

struct Workload {
  const char* mr;  // "pooled" | "unpooled" | "inline" (TCP has no MRs)
  net::Transport transport;
  bool pooled;
};

constexpr Workload kWorkloads[] = {
    {"pooled", net::Transport::kRdma, true},
    {"unpooled", net::Transport::kRdma, false},
    {"inline", net::Transport::kTcp, true},
};

/// Best-of-N calls-per-second with `send` + `recv` bulk windows of
/// `bulk_size` bytes each. Fresh harness per repetition (the best run is
/// the least-preempted one); `*all_ok` accumulates call success.
double BestCallRate(const Workload& w, std::uint64_t bulk_size,
                    std::uint64_t calls, int repetitions, bool* all_ok,
                    std::uint64_t* pool_hits) {
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    RpcHarness h(w.transport, w.pooled);
    Buffer payload = MakePatternBuffer(bulk_size, 1);
    Buffer window(bulk_size);
    rpc::CallOptions options;
    options.send_bulk = payload;
    options.recv_bulk = window;
    *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();  // warm
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) {
      *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds > 0.0) best = std::max(best, double(calls) / seconds);
    *pool_hits = h.client_ep->mr_cache().hits();
  }
  return best;
}

/// Best-of-N bulk bandwidth: fetch-shaped calls filling a `bulk_size`
/// recv window.
double BestBulkRate(const Workload& w, std::uint64_t bulk_size,
                    std::uint64_t calls, int repetitions, bool* all_ok) {
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    RpcHarness h(w.transport, w.pooled);
    Buffer window(bulk_size);
    rpc::CallOptions options;
    options.recv_bulk = window;
    *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();  // warm
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) {
      *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds > 0.0) {
      best = std::max(best, double(calls * bulk_size) / seconds);
    }
  }
  return best;
}

/// Microseconds per fetch-shaped call filling `window`, over `calls`
/// calls on `h`.
double FetchUs(RpcHarness& h, std::span<std::byte> window,
               std::uint64_t calls, bool* all_ok) {
  rpc::CallOptions options;
  options.recv_bulk = window;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < calls; ++i) {
    *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(stop - start).count() /
         double(calls);
}

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_rpc_data_path,
                      "RPC data-path wall-clock throughput: pooled vs "
                      "unpooled MR registration over TCP and RDMA") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "Calls/s uses 4 KiB send + 4 KiB recv bulk windows (the "
      "registration-dominated regime the MrCache targets); bulk GiB/s "
      "uses 1 MiB fetch-shaped recv windows (data-movement-dominated). "
      "Fresh harness per repetition, best of N. Rates are realtime "
      "counters — compare trajectories per machine, not across machines; "
      "the pooled/unpooled RATIO is machine-independent and gated.");

  // Own scaling (not ctx.ops): its 2000-op floor exists for sim
  // steady-state, but 2000 one-MiB TCP calls per repetition would melt the
  // quick-mode wall clock. Rates stabilize far earlier here.
  const int repetitions = ctx.quick() ? 3 : 9;
  const std::uint64_t call_ops = ctx.quick() ? 2000 : 24000;
  const std::uint64_t bulk_ops = ctx.quick() ? 200 : 2000;
  constexpr std::uint64_t kSmall = 4 * 1024;
  constexpr std::uint64_t kLarge = kMiB;

  AsciiTable table({"transport", "mr", "calls/s (4 KiB)", "bulk (1 MiB)"});
  bool all_ok = true;
  double pooled_rdma_rate = 0.0;
  double unpooled_rdma_rate = 0.0;
  std::uint64_t pooled_hits = 0;
  for (const Workload& w : kWorkloads) {
    std::uint64_t hits = 0;
    const double call_rate =
        BestCallRate(w, kSmall, call_ops, repetitions, &all_ok, &hits);
    const double bulk_rate =
        BestBulkRate(w, kLarge, bulk_ops, repetitions, &all_ok);
    if (w.transport == net::Transport::kRdma) {
      (w.pooled ? pooled_rdma_rate : unpooled_rdma_rate) = call_rate;
      if (w.pooled) pooled_hits = hits;
    }
    const std::string transport(perf::TransportName(w.transport));
    table.AddRow({transport, w.mr, FormatCount(call_rate) + "calls/s",
                  FormatBandwidth(bulk_rate)});
    ctx.Metric("rpc_calls_per_sec", "calls_per_sec", call_rate,
               {{"transport", transport}, {"mr", w.mr}},
               bench::MetricDirection::kHigherIsBetter);
    ctx.Metric("rpc_bulk_bytes_per_sec", "bytes_per_sec", bulk_rate,
               {{"transport", transport}, {"mr", w.mr}},
               bench::MetricDirection::kHigherIsBetter);
  }
  ctx.Check("every timed call succeeded", all_ok);
  ctx.Check("pooled RDMA converges to cache hits (2 per call)",
            pooled_hits >= 2 * call_ops);
  // The point of the pool: amortizing page-pin registration must be worth
  // >= 2x on registration-dominated calls. The ratio is machine-portable
  // even though the absolute rates are not.
  ctx.Check("pooled-MR RDMA calls/s >= 2x unpooled",
            pooled_rdma_rate >= 2.0 * unpooled_rdma_rate);
  ctx.Metric("rpc_pooled_speedup", "ratio",
             unpooled_rdma_rate > 0.0
                 ? pooled_rdma_rate / unpooled_rdma_rate
                 : 0.0,
             {{"transport", "rdma"}},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Table("RPC data-path throughput (wall clock)", table);

  // TCP vs RDMA 64 KiB fetch round trips, alternating which arm runs
  // first; the first pair warms both harnesses and is dropped.
  constexpr std::uint64_t kFetch = 64 * 1024;
  constexpr double kTcpOverRdmaBound = 2.0;
  const int pairs = ctx.quick() ? 15 : 41;
  const std::uint64_t fetch_calls = ctx.quick() ? 100 : 400;
  RpcHarness tcp(net::Transport::kTcp, true);
  RpcHarness rdma(net::Transport::kRdma, true);
  Buffer tcp_window(kFetch);
  Buffer rdma_window(kFetch);
  bench::Pairs fetch_us;  // a = TCP, b = RDMA
  for (int i = 0; i <= pairs; ++i) {
    double tcp_us = 0.0;
    double rdma_us = 0.0;
    if (i % 2 == 0) {
      tcp_us = FetchUs(tcp, tcp_window, fetch_calls, &all_ok);
      rdma_us = FetchUs(rdma, rdma_window, fetch_calls, &all_ok);
    } else {
      rdma_us = FetchUs(rdma, rdma_window, fetch_calls, &all_ok);
      tcp_us = FetchUs(tcp, tcp_window, fetch_calls, &all_ok);
    }
    if (i > 0) fetch_us.Add(tcp_us, rdma_us);
  }
  const double tcp_over_rdma = fetch_us.MedianRatio();
  ctx.Check("every paired fetch succeeded", all_ok);
  ctx.Check("64 KiB TCP fetch round trip <= 2x RDMA (median of pairs)",
            tcp_over_rdma > 0.0 && tcp_over_rdma <= kTcpOverRdmaBound);
  ctx.Metric("rpc_fetch_64k_us", "us", fetch_us.MedianA(),
             {{"transport", "tcp"}}, bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("rpc_fetch_64k_us", "us", fetch_us.MedianB(),
             {{"transport", "rdma"}},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("rpc_tcp_over_rdma_fetch_64k", "ratio", tcp_over_rdma, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Note("64 KiB fetch round trip, median of " + std::to_string(pairs) +
           " pairs: TCP " + std::to_string(fetch_us.MedianA()) +
           " us, RDMA " + std::to_string(fetch_us.MedianB()) +
           " us, TCP/RDMA " + std::to_string(tcp_over_rdma));
}

ROS2_BENCH_MAIN()
