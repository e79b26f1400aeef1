// VOS read cost proportional to the bytes returned, straight against one
// target's Vos (no RPC), checksums on. Two gated sections:
//
// Chunked checksums: a 4 KiB aligned sub-read of a 1 MiB NVMe record
// against a whole-record read of the same record. Under a single checksum
// per record, a sub-read must load and check the whole record and both
// arms cost the same; with one per Vos::kCsumChunk a sub-read moves and
// verifies one chunk. The gates: the median sub-read takes <= 1/8 of the
// median whole-record read, and each sub-read moves exactly one chunk off
// the device.
//
// Log depth: a 64 KiB HEAD read of an SCM akey whose extent was written
// once, against the same read of an akey whose extent was rewritten 32
// times. A fetch that walks the record log newest first stops at the
// newest record, so the deep read costs what the shallow one does; one
// that replays the log loads and verifies all 32. The gate: median deep
// read <= 1.5x the median shallow read.
//
// Both arms of each section alternate in one loop (bench::Pairs), so
// ambient load lands on both alike, and the gates go through the bench
// exit code. The whole report is realtime-tagged: wall-clock times churn
// by machine, so benchctl keeps this section out of EXPERIMENTS.md and the
// committed baseline. The ratios and the device byte count are what gate.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/paired.h"
#include "bench/registry.h"
#include "common/bytes.h"
#include "common/table.h"
#include "common/units.h"
#include "daos/vos.h"

using namespace ros2;

namespace {

constexpr std::uint64_t kRecord = kMiB;
constexpr std::uint64_t kSubRead = 4 * kKiB;
constexpr int kRecords = 16;
constexpr double kGate = 1.0 / 8.0;

constexpr std::uint64_t kDepthRead = 64 * kKiB;  // SCM tier (<= threshold)
constexpr int kDepth = 32;
constexpr double kDepthGate = 1.5;

/// Microseconds one FetchArray of `out.size()` bytes at `offset` of dkey
/// `dkey` takes; clears `*ok` on a failed fetch or a byte mismatch against
/// the pattern `tag`.
double FetchUs(const daos::Vos& vos, const std::string& dkey,
               std::uint64_t tag, std::uint64_t offset,
               std::span<std::byte> out, bool* ok) {
  const daos::ObjectId oid{1, 1};
  const auto start = std::chrono::steady_clock::now();
  const Status s =
      vos.FetchArray(oid, dkey, "a", daos::kEpochHead, offset, out);
  const auto stop = std::chrono::steady_clock::now();
  if (!s.ok() || VerifyPattern(out, tag, offset) != -1) *ok = false;
  return std::chrono::duration<double, std::micro>(stop - start).count();
}

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_vos,
                      "VOS 4 KiB sub-read vs whole 1 MiB record read, and "
                      "HEAD read vs record-log depth, checksums on — gated") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "One Vos target, 16 records of 1 MiB on the NVMe tier, checksums on. "
      "Each pair reads a 4 KiB-aligned 4 KiB slice of a record, then the "
      "whole record. Times are realtime counters — the gates are the "
      "ratio of the arms' medians (<= 1/8) and the device bytes each "
      "sub-read moves (exactly one checksum chunk).");
  ctx.Note(
      "Log depth: two 64 KiB SCM akeys, one written once and one whose "
      "extent was rewritten 32 times. Each pair reads the whole extent of "
      "both at HEAD; the gate is median deep read <= 1.5x median shallow "
      "read.");

  storage::NvmeDeviceConfig dev_config;
  dev_config.capacity_bytes = 64 * kMiB;
  storage::NvmeDevice device(dev_config);
  spdk::Bdev bdev(&device);
  scm::PmemPool scm(8 * kMiB);
  daos::Vos vos(&scm, &bdev);
  bool all_ok = true;
  std::vector<std::string> dkeys;
  for (int r = 0; r < kRecords; ++r) {
    dkeys.push_back("d" + std::to_string(r));
    const Buffer data = MakePatternBuffer(kRecord, std::uint64_t(r));
    if (!vos.UpdateArray(daos::ObjectId{1, 1}, dkeys.back(), "a", 1, 0, data)
             .ok()) {
      all_ok = false;
    }
  }
  // Tags: the shallow akey holds tag kDepth; the deep akey's writes carry
  // tags 0..kDepth-1 at epochs 1..kDepth, so HEAD shows tag kDepth - 1.
  for (int w = 0; w <= kDepth; ++w) {
    const bool deep = w < kDepth;
    const Buffer data = MakePatternBuffer(kDepthRead, std::uint64_t(w));
    if (!vos.UpdateArray(daos::ObjectId{1, 1}, deep ? "deep" : "shallow",
                         "a", daos::Epoch(w + 1), 0, data)
             .ok()) {
      all_ok = false;
    }
  }

  const int warmup = 8;
  const int pairs = ctx.quick() ? 200 : 1000;
  Buffer sub(kSubRead);
  Buffer whole(kRecord);
  bench::Pairs us;  // a = 4 KiB sub-read, b = whole-record read
  std::uint64_t sub_device_bytes = 0;
  for (int i = 0; i < warmup + pairs; ++i) {
    const int record = i % kRecords;
    const std::uint64_t offset =
        std::uint64_t(i) * 37 % (kRecord / kSubRead) * kSubRead;
    const std::uint64_t before = device.bytes_read();
    const double sub_us =
        FetchUs(vos, dkeys[record], record, offset, sub, &all_ok);
    const std::uint64_t moved = device.bytes_read() - before;
    const double whole_us =
        FetchUs(vos, dkeys[record], record, 0, whole, &all_ok);
    if (i < warmup) continue;
    sub_device_bytes += moved;
    us.Add(sub_us, whole_us);
  }
  const double sub_median = us.MedianA();
  const double whole_median = us.MedianB();
  const double ratio = whole_median > 0.0 ? sub_median / whole_median : 0.0;
  const double bytes_per_sub = double(sub_device_bytes) / double(pairs);

  AsciiTable table({"read", "median us", "device bytes/read"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", sub_median);
  table.AddRow(
      {"4 KiB sub-read", buf, FormatBytes(std::uint64_t(bytes_per_sub))});
  std::snprintf(buf, sizeof(buf), "%.1f", whole_median);
  table.AddRow({"1 MiB whole record", buf, FormatBytes(kRecord)});
  ctx.Table("VOS fetch, sub-read vs whole record (wall clock)", table);

  ctx.Metric("vos_sub_read_us", "us", sub_median, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("vos_whole_read_us", "us", whole_median, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("vos_sub_to_whole_ratio", "ratio", ratio, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("vos_sub_read_device_bytes", "bytes", bytes_per_sub, {},
             bench::MetricDirection::kLowerIsBetter);

  Buffer depth_out(kDepthRead);
  bench::Pairs depth_us;  // a = 32-deep log, b = one record
  for (int i = 0; i < warmup + pairs; ++i) {
    const double deep_us =
        FetchUs(vos, "deep", kDepth - 1, 0, depth_out, &all_ok);
    const double shallow_us =
        FetchUs(vos, "shallow", kDepth, 0, depth_out, &all_ok);
    if (i < warmup) continue;
    depth_us.Add(deep_us, shallow_us);
  }
  const double deep_median = depth_us.MedianA();
  const double shallow_median = depth_us.MedianB();
  const double depth_ratio =
      shallow_median > 0.0 ? deep_median / shallow_median : 0.0;

  AsciiTable depth_table({"64 KiB HEAD read", "median us"});
  std::snprintf(buf, sizeof(buf), "%.1f", shallow_median);
  depth_table.AddRow({"1 record", buf});
  std::snprintf(buf, sizeof(buf), "%.1f", deep_median);
  depth_table.AddRow({std::to_string(kDepth) + " records", buf});
  ctx.Table("VOS fetch vs record-log depth (wall clock)", depth_table);

  ctx.Metric("vos_shallow_read_us", "us", shallow_median, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("vos_deep_read_us", "us", deep_median, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("vos_deep_to_shallow_ratio", "ratio", depth_ratio, {},
             bench::MetricDirection::kLowerIsBetter);

  ctx.Check("every fetch succeeded byte-exact", all_ok);
  ctx.Check("median 4 KiB sub-read <= 1/8 of a whole 1 MiB record read",
            ratio > 0.0 && ratio <= kGate);
  ctx.Check("each 4 KiB sub-read moves exactly one checksum chunk",
            sub_device_bytes ==
                std::uint64_t(pairs) * daos::Vos::kCsumChunk);
  ctx.Check("median HEAD read of a 32-deep log <= 1.5x a 1-record log",
            depth_ratio > 0.0 && depth_ratio <= kDepthGate);
}

ROS2_BENCH_MAIN()
