// Inline-crypto throughput: the multi-block ChaCha20Xor that the client's
// inline encryption runs against the one-block-at-a-time scalar reference
// it replaced, on 4 KiB and 1 MiB buffers.
//
// Each pair XORs the same buffer with the scalar reference, then with the
// dispatched path (the widest width this CPU runs). XOR with one keystream
// is its own inverse, so a buffer that is back to its original bytes after
// a pair proves the two keystreams agree. The gates, through the bench
// exit code: every pair restores the buffer, and the median over pairs of
// dispatched/scalar rate is >= 3x when an 8- or 16-lane width is selected
// (>= 1.5x on the 4-lane baseline). Both arms alternate in one loop
// (bench::Pairs), so ambient load lands on both alike. A second table
// times every runnable width on 1 MiB for reference; it is not gated.
//
// The whole report is realtime-tagged: wall-clock rates churn by machine,
// so benchctl keeps this section out of EXPERIMENTS.md and the committed
// baseline. The ratio is what gates.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "bench/paired.h"
#include "bench/registry.h"
#include "common/bytes.h"
#include "common/table.h"
#include "common/units.h"
#include "core/chacha20.h"

using namespace ros2;

namespace {

using XorFn = decltype(core::detail::ChaChaWidth::xor_fn);

constexpr std::uint64_t kNonce = 0x5EED;
// Each timed sample covers this many bytes: a 4 KiB arm makes 64 calls, so
// timer resolution never dominates it.
constexpr std::uint64_t kSampleBytes = 256 * kKiB;

core::ChaChaKey BenchKey() {
  core::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = std::uint8_t(7 * i);
  return key;
}

/// MiB/s of `fn` over `buf`, one call per `call_bytes` slice, until the
/// sample covers kSampleBytes; the slice's file offset is its index.
double RateMibs(XorFn fn, std::span<std::byte> buf, std::uint64_t call_bytes) {
  const core::ChaChaKey key = BenchKey();
  const std::uint64_t calls =
      std::max<std::uint64_t>(1, kSampleBytes / call_bytes);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < calls; ++i) {
    const std::uint64_t slice = i % (buf.size() / call_bytes);
    fn(key, kNonce, slice * call_bytes,
       buf.subspan(slice * call_bytes, call_bytes));
  }
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return seconds > 0.0 ? double(calls * call_bytes) / double(kMiB) / seconds
                       : 0.0;
}

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_crypto,
                      "ChaCha20 multi-block keystream vs the scalar "
                      "reference on 4 KiB and 1 MiB buffers, gated") {
  ctx.report().MarkRealtime();
  const core::detail::ChaChaWidth& selected = core::detail::ChaChaSelected();
  const core::detail::ChaChaWidth& scalar = core::detail::ChaChaWidths()[0];
  const double gate = selected.lanes >= 8 ? 3.0 : 1.5;
  ctx.Note("ChaCha20Xor runs " + std::to_string(selected.lanes) +
           " keystream blocks per pass on this CPU. Each pair XORs one "
           "buffer with the scalar reference, then with the dispatched "
           "path; rates are realtime counters — the gate is the median "
           "dispatched/scalar ratio (>= 3x at 8 or 16 lanes, >= 1.5x at 4).");

  const int warmup = 3;
  const int pairs = ctx.quick() ? 15 : 60;
  AsciiTable table({"buffer", "scalar MiB/s", "dispatched MiB/s",
                    "median ratio"});
  bool all_ok = true;
  bool all_fast = true;
  for (const std::uint64_t size : {4 * kKiB, kMiB}) {
    const Buffer original = MakePatternBuffer(kMiB, size);
    Buffer buf = original;
    bench::Pairs mibs;  // a = dispatched, b = scalar reference
    for (int i = 0; i < warmup + pairs; ++i) {
      const double scalar_mibs = RateMibs(scalar.xor_fn, buf, size);
      const double fast_mibs = RateMibs(&core::ChaCha20Xor, buf, size);
      if (buf != original) all_ok = false;
      if (i >= warmup) mibs.Add(fast_mibs, scalar_mibs);
    }
    const double ratio = mibs.MedianRatio();
    if (ratio < gate) all_fast = false;
    const std::string label = FormatBytes(size);
    char scalar_buf[32];
    char fast_buf[32];
    char ratio_buf[32];
    std::snprintf(scalar_buf, sizeof(scalar_buf), "%.0f", mibs.MedianB());
    std::snprintf(fast_buf, sizeof(fast_buf), "%.0f", mibs.MedianA());
    std::snprintf(ratio_buf, sizeof(ratio_buf), "%.2fx", ratio);
    table.AddRow({label, scalar_buf, fast_buf, ratio_buf});
    const bench::Params params = {{"buffer", label}};
    ctx.Metric("chacha_scalar_mib_per_sec", "mib_per_sec", mibs.MedianB(),
               params, bench::MetricDirection::kHigherIsBetter);
    ctx.Metric("chacha_dispatched_mib_per_sec", "mib_per_sec", mibs.MedianA(),
               params, bench::MetricDirection::kHigherIsBetter);
    ctx.Metric("chacha_dispatched_to_scalar_ratio", "ratio", ratio, params,
               bench::MetricDirection::kHigherIsBetter);
  }
  ctx.Table("ChaCha20Xor, dispatched vs scalar reference (wall clock)",
            table);

  // Every runnable width on 1 MiB, best of a few samples: the per-width
  // rates README quotes. Informational only.
  AsciiTable widths({"lanes", "MiB/s (1 MiB buffer)"});
  Buffer buf = MakePatternBuffer(kMiB, 1);
  for (const core::detail::ChaChaWidth& width : core::detail::ChaChaWidths()) {
    if (!width.runnable) {
      widths.AddRow({std::to_string(width.lanes), "not supported by CPU"});
      continue;
    }
    double best = 0.0;
    for (int i = 0; i < (ctx.quick() ? 3 : 10); ++i) {
      best = std::max(best, RateMibs(width.xor_fn, buf, kMiB));
    }
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.0f", best);
    widths.AddRow({std::to_string(width.lanes), rate});
    ctx.Metric("chacha_width_mib_per_sec", "mib_per_sec", best,
               {{"lanes", std::to_string(width.lanes)}},
               bench::MetricDirection::kHigherIsBetter);
  }
  ctx.Table("ChaCha20Xor per compiled width (wall clock)", widths);
  ctx.Metric("chacha_selected_lanes", "lanes", selected.lanes);

  ctx.Check("every pair's two keystreams agree (buffer restored)", all_ok);
  ctx.Check(selected.lanes >= 8
                ? "median dispatched/scalar rate >= 3x on 4 KiB and 1 MiB"
                : "median dispatched/scalar rate >= 1.5x on 4 KiB and 1 MiB",
            all_fast);
}

ROS2_BENCH_MAIN()
