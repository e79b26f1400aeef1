// VOS read cost proportional to the bytes returned, straight against one
// target's Vos (no RPC), checksums on, and SCM cost proportional to the
// SCM used. Four gated sections and one reported case:
//
// Chunked checksums: a 4 KiB aligned sub-read of a 1 MiB NVMe record
// against a whole-record read of the same record. Under a single checksum
// per record, a sub-read must load and check the whole record and both
// arms cost the same; with one per Vos::kCsumChunk (4 KiB, one LBA) a
// sub-read moves and verifies one 4 KiB chunk. The gates: the median
// sub-read takes <= 1/8 of the median whole-record read, and each
// sub-read moves exactly one 4 KiB chunk off the device.
//
// Batched chunk CRC: Crc32cChunks over 1 MiB in 4 KiB chunks (what a
// whole-record write or read verifies) against one Crc32c over the same
// MiB. Small chunks must not make whole-record checksums dearer than one
// pass; a loop of per-chunk Crc32c calls, printed for reference, spends
// a quarter of each chunk in a single-chain tail. The gate: median paired
// ratio batched / one pass <= 1.05.
//
// Log depth: a 64 KiB HEAD read of an SCM akey whose extent was written
// once, against the same read of an akey whose extent was rewritten 32
// times. A fetch that walks the record log newest first stops at the
// newest record, so the deep read costs what the shallow one does; one
// that replays the log loads and verifies all 32. The gate: median deep
// read <= 1.5x the median shallow read.
//
// Pool boot: building a 256 MiB PmemPool against building a 64 MiB one
// (an engine target's default). A pool whose arena is zero-filled up front
// takes time (and resident memory) in proportion to its capacity; a lazily
// backed one costs the same at both sizes. Both sizes come from their own
// mmap, so the arms differ in capacity only (a pool under glibc's mmap
// threshold would be carved out of the heap without a system call). The
// gate: median 256 MiB build <= 2x the median 64 MiB build.
//
// Small SCM reads (reported, not gated): FetchSingle of an 8-byte value
// among 64k live SCM records, the shape of a directory entry or inode
// lookup, in microseconds per fetch.
//
// Both arms of each section alternate in one loop (bench::Pairs), so
// ambient load lands on both alike, and the gates go through the bench
// exit code. The whole report is realtime-tagged: wall-clock times churn
// by machine, so benchctl keeps this section out of EXPERIMENTS.md and the
// committed baseline. The ratios and the device byte count are what gate.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/paired.h"
#include "bench/registry.h"
#include "common/bytes.h"
#include "common/crc.h"
#include "common/table.h"
#include "common/units.h"
#include "daos/vos.h"

using namespace ros2;

namespace {

constexpr std::uint64_t kRecord = kMiB;
constexpr std::uint64_t kSubRead = 4 * kKiB;
constexpr int kRecords = 16;
constexpr double kGate = 1.0 / 8.0;

constexpr std::uint64_t kCrcChunk = 4 * kKiB;
constexpr double kCrcGate = 1.05;

constexpr std::uint64_t kDepthRead = 64 * kKiB;  // SCM tier (<= threshold)
constexpr int kDepth = 32;
constexpr double kDepthGate = 1.5;

constexpr std::uint64_t kSmallPool = 64 * kMiB;
constexpr std::uint64_t kLargePool = 256 * kMiB;
constexpr double kBootGate = 2.0;

constexpr int kSmallRecords = 64 * 1024;
constexpr int kSmallFetchBatch = 256;

/// Microseconds one PmemPool of `capacity` bytes takes to build (its
/// destruction is not timed).
double BuildPoolUs(std::uint64_t capacity) {
  const auto start = std::chrono::steady_clock::now();
  auto pool = std::make_unique<scm::PmemPool>(capacity);
  const auto stop = std::chrono::steady_clock::now();
  pool.reset();
  return std::chrono::duration<double, std::micro>(stop - start).count();
}

/// Microseconds one call of `fn` takes.
template <typename Fn>
double TimeUs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(stop - start).count();
}

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
                      "VOS 4 KiB sub-read vs whole 1 MiB record read, "
                      "batched 4 KiB chunk CRC vs one pass, HEAD read vs "
                      "record-log depth, checksums on, and SCM pool build "
                      "time vs capacity — gated") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "One Vos target, 16 records of 1 MiB on the NVMe tier, checksums on. "
      "Each pair reads a 4 KiB-aligned 4 KiB slice of a record, then the "
      "whole record. Times are realtime counters — the gates are the "
      "ratio of the arms' medians (<= 1/8) and the device bytes each "
      "sub-read moves (exactly one 4 KiB checksum chunk).");
  ctx.Note(
      "Batched CRC: each pair checksums one 1 MiB buffer as 256 4 KiB "
      "chunks with Crc32cChunks and as one Crc32c pass; the gate is the "
      "median paired ratio <= 1.05. A loop of 256 Crc32c calls is timed "
      "beside them for reference.");
  ctx.Note(
      "Log depth: two 64 KiB SCM akeys, one written once and one whose "
      "extent was rewritten 32 times. Each pair reads the whole extent of "
      "both at HEAD; the gate is median deep read <= 1.5x median shallow "
      "read.");
  ctx.Note(
      "Pool boot: each pair builds a 256 MiB and a 64 MiB PmemPool; the "
      "gate is median 256 MiB build <= 2x median 64 MiB build. Small SCM "
      "reads: FetchSingle of 8-byte values among 64k live SCM records, "
      "reported per fetch without a gate.");

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

  const Buffer crc_data = MakePatternBuffer(kRecord, 99);
  std::vector<std::uint32_t> crcs(kRecord / kCrcChunk);
  std::uint32_t one_crc = 0;
  bench::Pairs crc_us;  // a = Crc32cChunks, b = one Crc32c pass
  std::vector<double> loop_us;
  const std::span<const std::byte> crc_span(crc_data);
  for (int i = 0; i < warmup + pairs; ++i) {
    const double batched =
        TimeUs([&] { Crc32cChunks(crc_data, kCrcChunk, crcs); });
    const double looped = TimeUs([&] {
      for (std::uint64_t pos = 0; pos < kRecord; pos += kCrcChunk) {
        crcs[pos / kCrcChunk] = Crc32c(crc_span.subspan(pos, kCrcChunk));
      }
    });
    const double one_pass = TimeUs([&] { one_crc = Crc32c(crc_data); });
    if (i < warmup) continue;
    crc_us.Add(batched, one_pass);
    loop_us.push_back(looped);
  }
  const double crc_ratio = crc_us.MedianRatio();
  const double loop_median = bench::Median(std::move(loop_us));
  // The loop arm ran last, so `crcs` holds per-chunk Crc32c values.
  std::vector<std::uint32_t> batched(crcs.size());
  Crc32cChunks(crc_data, kCrcChunk, batched);
  if (batched != crcs || one_crc != Crc32cPortable(crc_data)) all_ok = false;

  AsciiTable crc_table({"1 MiB CRC-32C", "median us"});
  std::snprintf(buf, sizeof(buf), "%.1f", crc_us.MedianA());
  crc_table.AddRow({"Crc32cChunks, 4 KiB chunks", buf});
  std::snprintf(buf, sizeof(buf), "%.1f", loop_median);
  crc_table.AddRow({"256 Crc32c calls, 4 KiB each", buf});
  std::snprintf(buf, sizeof(buf), "%.1f", crc_us.MedianB());
  crc_table.AddRow({"one Crc32c pass", buf});
  ctx.Table("Batched chunk CRC vs one pass (wall clock)", crc_table);

  ctx.Metric("crc_chunks_1mib_us", "us", crc_us.MedianA(), {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("crc_chunk_loop_1mib_us", "us", loop_median, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("crc_one_pass_1mib_us", "us", crc_us.MedianB(), {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("crc_chunks_to_one_pass_ratio", "ratio", crc_ratio, {},
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

  const int boot_pairs = ctx.quick() ? 16 : 64;
  bench::Pairs boot_us;  // a = 256 MiB pool, b = 64 MiB pool
  for (int i = 0; i < warmup + boot_pairs; ++i) {
    const double large_us = BuildPoolUs(kLargePool);
    const double small_us = BuildPoolUs(kSmallPool);
    if (i < warmup) continue;
    boot_us.Add(large_us, small_us);
  }
  const double large_median = boot_us.MedianA();
  const double small_median = boot_us.MedianB();
  const double boot_ratio =
      small_median > 0.0 ? large_median / small_median : 0.0;

  AsciiTable boot_table({"PmemPool build", "median us"});
  std::snprintf(buf, sizeof(buf), "%.1f", small_median);
  boot_table.AddRow({FormatBytes(kSmallPool), buf});
  std::snprintf(buf, sizeof(buf), "%.1f", large_median);
  boot_table.AddRow({FormatBytes(kLargePool), buf});
  ctx.Table("SCM pool build vs capacity (wall clock)", boot_table);

  ctx.Metric("scm_pool_64mib_build_us", "us", small_median, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("scm_pool_256mib_build_us", "us", large_median, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("scm_pool_build_ratio", "ratio", boot_ratio, {},
             bench::MetricDirection::kLowerIsBetter);

  // Small SCM reads: one 8-byte single value per dkey of their own object.
  const daos::ObjectId small_oid{2, 1};
  std::vector<std::string> small_dkeys;
  small_dkeys.reserve(kSmallRecords);
  for (int r = 0; r < kSmallRecords; ++r) {
    small_dkeys.push_back("e" + std::to_string(r));
    const Buffer value = MakePatternBuffer(8, std::uint64_t(r));
    if (!vos.UpdateSingle(small_oid, small_dkeys.back(), "v", 1, value)
             .ok()) {
      all_ok = false;
    }
  }
  std::vector<double> small_us;
  const int batches = ctx.quick() ? 64 : 512;
  std::uint64_t next = 0;
  for (int b = 0; b < warmup + batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int f = 0; f < kSmallFetchBatch; ++f) {
      // A stride coprime to the record count visits them in scattered
      // order, so the lookups are not cache-warm neighbours.
      next = (next + 7919) % kSmallRecords;
      Result<Buffer> value = vos.FetchSingle(small_oid, small_dkeys[next],
                                             "v", daos::kEpochHead);
      if (!value.ok() || VerifyPattern(*value, next, 0) != -1) {
        all_ok = false;
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    if (b < warmup) continue;
    small_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count() /
        kSmallFetchBatch);
  }
  const double small_read_median = bench::Median(std::move(small_us));
  AsciiTable small_table({"8-byte FetchSingle", "median us"});
  std::snprintf(buf, sizeof(buf), "%.3f", small_read_median);
  small_table.AddRow({std::to_string(kSmallRecords) + " live SCM records",
                      buf});
  ctx.Table("Small SCM reads (wall clock)", small_table);
  ctx.Metric("vos_small_fetch_us", "us", small_read_median, {},
             bench::MetricDirection::kLowerIsBetter);

  ctx.Check("every fetch and checksum byte-exact", all_ok);
  ctx.Check("median 4 KiB sub-read <= 1/8 of a whole 1 MiB record read",
            ratio > 0.0 && ratio <= kGate);
  ctx.Check("each 4 KiB sub-read moves exactly one 4 KiB checksum chunk",
            daos::Vos::kCsumChunk == kSubRead &&
                sub_device_bytes == std::uint64_t(pairs) * kSubRead);
  ctx.Check("median Crc32cChunks over 1 MiB in 4 KiB chunks <= 1.05x one "
            "Crc32c pass",
            crc_ratio > 0.0 && crc_ratio <= kCrcGate);
  ctx.Check("median HEAD read of a 32-deep log <= 1.5x a 1-record log",
            depth_ratio > 0.0 && depth_ratio <= kDepthGate);
  ctx.Check("median 256 MiB pool build <= 2x a 64 MiB pool build",
            boot_ratio > 0.0 && boot_ratio <= kBootGate);
}

ROS2_BENCH_MAIN()
