// Wall-clock throughput of the THREADED engine: single-update calls per
// real second as the target count (= xstream worker count) sweeps 1 -> 4,
// with one closed-loop client thread per target, the engine's network
// progress thread decoding every request (no client pump) and each
// target's worker sending its own replies.
//
// What makes more targets honestly faster on a multi-core host: each
// target is a real worker thread (daos::Xstream) executing its VOS ops,
// so updates routed to different targets run concurrently while the
// per-dkey FIFO holds inside each worker. Each client thread pins its
// dkey to its own target via the placement hash, so target count T means
// T independent update streams — the paper's per-target xstream argument
// (§2.2) measured end-to-end through the real RPC + poll-set doorbell
// path.
//
// The whole report is realtime-tagged: wall-clock rates churn by machine,
// so benchctl keeps this section out of EXPERIMENTS.md and the committed
// baseline. The 4-target >= 2x 1-target ratio check IS gated (bench exit
// code) — but only on hosts with >= 4 cores; on smaller hosts the workers
// time-slice one core and the check passes vacuously with a note.
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.h"
#include "common/bytes.h"
#include "common/table.h"
#include "common/units.h"
#include "daos/cluster.h"
#include "daos/engine.h"
#include "daos/placement.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "rpc/wire.h"

using namespace ros2;

namespace {

/// A dkey that the placement hash routes to `target` out of `targets`.
std::string DkeyForTarget(const daos::ObjectId& oid, std::uint32_t target,
                          std::uint32_t targets) {
  for (int i = 0;; ++i) {
    std::string dkey = "dkey-" + std::to_string(i);
    if (daos::PlaceDkey(oid, dkey, targets) == target) return dkey;
  }
}

/// One engine with `targets` xstream workers + progress thread, one
/// client (own endpoint/QP, no pump) per target. Returns total updates/s
/// wall clock across all client threads; `ops` is the per-client budget.
double ThreadedEngineRate(std::uint32_t targets, std::uint64_t ops,
                          int rep, bool* all_ok) {
  daos::ClusterSpec spec;
  spec.engine.address =
      "fabric://mt-bench-" + std::to_string(targets) + "-" +
      std::to_string(rep);
  spec.engine.targets = targets;
  spec.engine.scm_per_target = 16 * kMiB;
  spec.engine.xstream_workers = true;
  spec.progress_threads = true;
  auto cluster = daos::Cluster::Boot(spec);
  if (!cluster.ok()) {
    *all_ok = false;
    return 0.0;
  }
  net::Fabric& fabric = *(*cluster)->fabric();
  daos::DaosEngine* engine = (*cluster)->engine(0);

  std::vector<std::thread> clients;
  std::vector<char> ok(targets, 1);  // one slot per thread, no sharing
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t t = 0; t < targets; ++t) {
    clients.emplace_back([&, t] {
      auto ep = fabric.CreateEndpoint(spec.engine.address + "-client-" +
                                      std::to_string(t));
      if (!ep.ok()) {
        ok[t] = 0;
        return;
      }
      auto qp = (*ep)->Connect(engine->endpoint(), net::Transport::kRdma,
                               (*ep)->AllocPd(), engine->pd());
      if (!qp.ok()) {
        ok[t] = 0;
        return;
      }
      rpc::RpcClient client(*qp, *ep, nullptr);  // progress thread serves
      client.set_max_in_flight(16);
      client.set_stall_timeout_ms(10000.0);

      rpc::Encoder create;
      create.Str("cont-" + std::to_string(t));
      auto created = client.Call(
          std::uint32_t(daos::DaosOpcode::kContCreate), create);
      if (!created.ok()) {
        ok[t] = 0;
        return;
      }
      rpc::Decoder dec(created->header);
      auto cont = dec.U64();
      if (!cont.ok()) {
        ok[t] = 0;
        return;
      }
      const daos::ObjectId oid{1, t + 1};
      const std::string dkey = DkeyForTarget(oid, t, targets);
      Buffer value = MakePatternBuffer(64, t + 1);

      std::deque<rpc::RpcClient::CallId> outstanding;
      for (std::uint64_t i = 0; i < ops; ++i) {
        rpc::Encoder header;
        header.U64(*cont).U64(oid.hi).U64(oid.lo).Str(dkey).Str("a");
        header.Bytes(value);
        auto id = client.CallAsync(
            std::uint32_t(daos::DaosOpcode::kSingleUpdate), header);
        if (!id.ok()) {
          ok[t] = 0;
          return;
        }
        outstanding.push_back(*id);
        while (!outstanding.empty() && client.Done(outstanding.front())) {
          if (!client.Take(outstanding.front()).ok()) ok[t] = 0;
          outstanding.pop_front();
        }
      }
      if (!client.Flush().ok()) ok[t] = 0;
      while (!outstanding.empty()) {
        if (!client.Take(outstanding.front()).ok()) ok[t] = 0;
        outstanding.pop_front();
      }
    });
  }
  for (auto& c : clients) c.join();
  const auto stop = std::chrono::steady_clock::now();
  engine->StopProgressThread();
  for (char c : ok) *all_ok = *all_ok && c;

  const double seconds = std::chrono::duration<double>(stop - start).count();
  return seconds > 0.0 ? double(targets) * double(ops) / seconds : 0.0;
}

constexpr std::uint32_t kTargetCounts[] = {1, 2, 4};

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_mt,
                      "Threaded engine wall-clock throughput vs target "
                      "(xstream worker) count, workers replying") {
  ctx.report().MarkRealtime();
  const unsigned cores = std::thread::hardware_concurrency();
  ctx.Note(
      "Single-update storm (64 B values) against a threaded engine: one "
      "closed-loop client thread per target, each client's dkey pinned "
      "to its own target by the placement hash, every request decoded by "
      "the engine's network progress thread (clients have no pump) and "
      "every reply sent by the worker that ran it. "
      "Rates are realtime counters — compare trajectories per machine, "
      "not across machines. The 4-target / 1-target RATIO is gated on "
      "hosts with >= 4 cores (this host: " +
      std::to_string(cores) + ").");

  const int repetitions = ctx.quick() ? 2 : 4;
  const std::uint64_t ops = ctx.quick() ? 1500 : 15000;

  AsciiTable table({"targets", "client threads", "updates/s"});
  bool all_ok = true;
  double rate1 = 0.0;
  double rate4 = 0.0;
  for (std::uint32_t targets : kTargetCounts) {
    double best = 0.0;
    for (int rep = 0; rep < repetitions; ++rep) {
      best = std::max(best, ThreadedEngineRate(targets, ops, rep, &all_ok));
    }
    if (targets == 1) rate1 = best;
    if (targets == 4) rate4 = best;
    table.AddRow({std::to_string(targets), std::to_string(targets),
                  FormatCount(best) + "updates/s"});
    ctx.Metric("mt_updates_per_sec", "updates_per_sec", best,
               {{"targets", std::to_string(targets)}},
               bench::MetricDirection::kHigherIsBetter);
  }
  ctx.Check("every threaded-engine update succeeded", all_ok);
  // The point of real xstreams: independent targets scale across cores.
  // Ratio, not absolute rate, so it ports across machines — but it needs
  // the cores to exist; a 1-core host time-slices all workers and the
  // check must not penalize it.
  if (cores >= 4) {
    ctx.Check("4-target updates/s >= 2x 1-target (host has >= 4 cores)",
              rate4 >= 2.0 * rate1);
  } else {
    ctx.Note("scaling gate skipped: host has " + std::to_string(cores) +
             " core(s) < 4, workers time-slice and the 2x ratio is "
             "unmeasurable — check passes vacuously");
    ctx.Check("4-target updates/s >= 2x 1-target (host has >= 4 cores)",
              true);
  }
  ctx.Metric("mt_scaling_1_to_4", "ratio", rate1 > 0.0 ? rate4 / rate1 : 0.0,
             {}, bench::MetricDirection::kHigherIsBetter);
  ctx.Table("Threaded engine throughput vs target count (wall clock)",
            table);
}

ROS2_BENCH_MAIN()
