// Telemetry overhead: the same single-update/fetch storm against two
// engines that differ ONLY in EngineConfig::telemetry. The instrumented
// arm pays the full accounting bill — per-opcode sharded counters, three
// latency histogram records per request, the trace-ring push, scheduler
// op timing — and the gate demands it keeps >= 90% of the uninstrumented
// arm's throughput (the ISSUE's <= 10% overhead budget), enforced via the
// bench exit code.
//
// A primitives section prices the raw hot-path operations (relaxed
// sharded Counter::Add, per-shard-mutex Histogram::Record) in ns/op so a
// regression in the metric objects themselves is visible even when the
// end-to-end ratio hides inside run-to-run noise.
//
// The whole report is realtime-tagged: wall-clock rates churn by machine,
// so benchctl keeps this section out of EXPERIMENTS.md and the committed
// baseline. The overhead RATIO check is what gates.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "bench/paired.h"
#include "bench/registry.h"
#include "common/bytes.h"
#include "common/table.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "telemetry/metrics.h"

using namespace ros2;

namespace {

/// One engine + one pumped client; returns wall seconds for the timed loop
/// (2 ops per iteration), 0.0 on any failure.
double EngineSeconds(bool telemetry, std::uint64_t iters, int rep,
                     bool* all_ok) {
  daos::ClusterSpec spec;
  spec.engine.address = "fabric://telemetry-bench-" +
                        std::to_string(int(telemetry)) + "-" +
                        std::to_string(rep);
  spec.engine.targets = 4;
  // Every update lands a new epoch version in SCM; size for the full rep
  // (iters x 1 KiB spread over 4 targets) with headroom.
  spec.engine.scm_per_target = 64 * kMiB;
  spec.engine.xstream_workers = false;  // serial: per-op cost dominates,
                                        // no thread scheduling noise in
                                        // the ratio
  spec.engine.telemetry = telemetry;
  auto cluster = daos::Cluster::Boot(spec);
  if (!cluster.ok()) {
    *all_ok = false;
    return 0.0;
  }
  daos::DaosClient::ConnectOptions connect;
  connect.client_address = spec.engine.address + "-client";
  auto client = (*cluster)->Connect(connect);
  if (!client.ok()) {
    *all_ok = false;
    return 0.0;
  }
  auto cont = (*client)->ContainerCreate("bench");
  auto oid = cont.ok() ? (*client)->AllocOid(*cont)
                       : Result<daos::ObjectId>(cont.status());
  if (!oid.ok()) {
    *all_ok = false;
    return 0.0;
  }
  const Buffer value = MakePatternBuffer(1024, 9);

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::string dkey = "k" + std::to_string(i % 64);
    if (!(*client)->UpdateSingle(*cont, *oid, dkey, "a", value).ok() ||
        !(*client)->FetchSingle(*cont, *oid, dkey, "a").ok()) {
      *all_ok = false;
      return 0.0;
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// ns per Counter::Add / Histogram::Record on the shard-0 hot path.
template <typename Fn>
double NsPerOp(std::uint64_t iters, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) fn(i);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         double(iters);
}

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_telemetry,
                      "Engine throughput with telemetry on vs compiled "
                      "off — the <= 10% overhead budget, gated") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "Single-update + single-fetch storm (1 KiB values, serial engine, "
      "pumped client) against two engines differing only in "
      "EngineConfig::telemetry. Each measurement is a back-to-back "
      "off/on PAIR (both arms see the same ambient conditions) and the "
      "gated ratio is the MEDIAN over all pairs, so an ambient spike "
      "that lands on one pair cannot swing the verdict. Rates are "
      "realtime counters — the gate is the RATIO: instrumented >= 0.90 "
      "x uninstrumented.");

  // Median-of-paired-ratios: a sum (or best-of) across arms leaves the
  // verdict hostage to whichever arm caught the machine's bad moment; a
  // pair runs within ~100 ms, so its ratio cancels ambient load, and the
  // median ignores the pairs a spike still managed to split.
  const int pairs = ctx.quick() ? 7 : 9;
  const std::uint64_t iters = ctx.quick() ? 10000 : 30000;
  constexpr double kGate = 0.90;

  bool all_ok = true;
  bench::Pairs seconds;  // a = telemetry off, b = on; a/b = rate on/off
  auto run_pairs = [&](int count) {
    for (int pair = 0; pair < count; ++pair) {
      const int rep = int(seconds.size());
      const double off = EngineSeconds(false, iters, rep, &all_ok);
      const double on = EngineSeconds(true, iters, rep, &all_ok);
      seconds.Add(off, on);
    }
  };
  run_pairs(pairs);
  double ratio = seconds.MedianRatio();
  if (all_ok && ratio < kGate) {
    // A sub-gate first median on a ~6%-overhead change is usually ambient
    // noise that landed asymmetrically; one re-measure (gating the median
    // of ALL pairs) separates a real regression from a bad minute.
    ctx.Note("first-round overhead median below gate; re-measuring");
    run_pairs(pairs);
    ratio = seconds.MedianRatio();
  }
  const double total_ops = 2.0 * double(iters) * double(seconds.size());
  const double rate_off =
      seconds.SumA() > 0.0 ? total_ops / seconds.SumA() : 0.0;
  const double rate_on =
      seconds.SumB() > 0.0 ? total_ops / seconds.SumB() : 0.0;

  AsciiTable table({"arm", "ops/s", "vs uninstrumented"});
  table.AddRow({"telemetry off", FormatCount(rate_off) + "ops/s", "1.00"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ratio);
  table.AddRow({"telemetry on", FormatCount(rate_on) + "ops/s", buf});
  ctx.Table("Engine ops/s, telemetry on vs off (wall clock)", table);

  ctx.Metric("telemetry_off_ops_per_sec", "ops_per_sec", rate_off, {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("telemetry_on_ops_per_sec", "ops_per_sec", rate_on, {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("telemetry_overhead_ratio", "ratio", ratio, {},
             bench::MetricDirection::kHigherIsBetter);

  ctx.Check("every benchmark op succeeded", all_ok);
  ctx.Check("instrumented engine keeps >= 90% of uninstrumented ops/s",
            ratio >= kGate);

  // Primitive costs: what one metric update actually costs, isolated.
  const std::uint64_t prim_iters = ctx.quick() ? 2000000 : 20000000;
  telemetry::Counter counter(5);
  const double counter_ns =
      NsPerOp(prim_iters, [&](std::uint64_t i) { counter.Add(1, i & 3); });
  telemetry::Histogram hist(5);
  const double hist_ns = NsPerOp(prim_iters / 8, [&](std::uint64_t i) {
    hist.Record(double(1 + (i & 1023)) * kUsec, i & 3);
  });
  AsciiTable prim({"primitive", "ns/op"});
  std::snprintf(buf, sizeof(buf), "%.1f", counter_ns);
  prim.AddRow({"Counter::Add (sharded, relaxed)", buf});
  std::snprintf(buf, sizeof(buf), "%.1f", hist_ns);
  prim.AddRow({"Histogram::Record (per-shard mutex)", buf});
  ctx.Table("Metric primitive cost", prim);
  ctx.Metric("counter_add_ns", "ns_per_op", counter_ns, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("histogram_record_ns", "ns_per_op", hist_ns, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Check("counter add stays under 1us", counter_ns < 1000.0);
}

ROS2_BENCH_MAIN()
