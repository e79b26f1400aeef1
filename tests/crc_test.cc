#include "common/crc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bytes.h"
#include "support/test_support.h"

namespace ros2 {
namespace {

using ros2::test::AsBytes;

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / iSCSI test vectors for CRC-32C.
  std::uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);

  std::uint8_t ones[32];
  for (auto& b : ones) b = 0xFF;
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62A8AB43u);

  std::uint8_t ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = std::uint8_t(i);
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46DD794Eu);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, StreamingMatchesOneShot) {
  Buffer data = MakePatternBuffer(10000, /*tag=*/7);
  const std::uint32_t whole = Crc32c(data);
  std::uint32_t streamed = 0;
  std::size_t pos = 0;
  for (std::size_t chunk : {100u, 900u, 4096u, 4904u}) {
    streamed = Crc32c(std::span<const std::byte>(data.data() + pos, chunk),
                      streamed);
    pos += chunk;
  }
  ASSERT_EQ(pos, data.size());
  EXPECT_EQ(streamed, whole);
}

/// The hardware kernel runs three interleaved streams over 3 x 512-byte
/// groups; lengths and split points around this size reach its group
/// loop, its merge and its single-stream tail.
constexpr std::size_t kGroup = 3 * 512;

TEST(Crc32cTest, StreamingSplitInsideInterleaveGroups) {
  Buffer data = MakePatternBuffer(6 * kGroup + 100, /*tag=*/11);
  for (std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    std::uint32_t streamed = seed;
    std::size_t pos = 0;
    for (std::size_t chunk : {std::size_t(513), kGroup + 7, kGroup / 2,
                              2 * kGroup - 1, kGroup}) {
      streamed = Crc32c(std::span<const std::byte>(data.data() + pos, chunk),
                        streamed);
      pos += chunk;
    }
    streamed = Crc32c(std::span<const std::byte>(data).subspan(pos), streamed);
    EXPECT_EQ(streamed, Crc32cPortable(data, seed)) << "seed=" << seed;
  }
}

/// Bit-at-a-time reference CRC32C (reversed poly 0x82F63B78) — the
/// definition the sliced/hardware fast paths must reproduce exactly.
std::uint32_t ReferenceCrc32c(const std::byte* data, std::size_t size,
                              std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= std::uint32_t(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32cTest, FastPathsMatchBitwiseReference) {
  // Lengths straddle the 8-byte slicing boundary and the interleave
  // group (one short, exact, one over, two groups plus a tail, a VOS
  // checksum chunk, and past 1 MiB); offsets exercise unaligned heads; a
  // nonzero seed exercises streaming state.
  const std::size_t lengths[] = {
      0, 1, 7, 8, 9, 15, 16, 63, 64, 100, 511, 512, 1000,
      kGroup - 1, kGroup, kGroup + 1, 2 * kGroup + 7,
      32 * 1024, 32 * 1024 + 7, (1 << 20) + 13};
  Buffer data = MakePatternBuffer((1 << 20) + 13 + 5, /*tag=*/21);
  for (std::size_t len : lengths) {
    for (std::size_t offset : {0u, 1u, 3u, 5u}) {
      for (std::uint32_t seed : {0u, 0xDEADBEEFu}) {
        std::span<const std::byte> view(data.data() + offset, len);
        const std::uint32_t expect =
            ReferenceCrc32c(view.data(), view.size(), seed);
        // The dispatching entry point (hardware where CPUID allows)...
        EXPECT_EQ(Crc32c(view, seed), expect)
            << "len=" << len << " offset=" << offset << " seed=" << seed;
        // ...and the slicing-by-8 software path explicitly: on SSE4.2
        // hosts Crc32c() never reaches it, so pin it on every host.
        EXPECT_EQ(Crc32cPortable(view, seed), expect)
            << "portable len=" << len << " offset=" << offset
            << " seed=" << seed;
      }
    }
  }
}

TEST(Crc32cTest, ChunksMatchPerChunkCrc) {
  // Crc32cChunks runs three chunks at a time on SSE4.2 hosts, so chunk
  // counts 0-7 reach its three-chain loop, its leftovers and both at once;
  // a short last chunk, unaligned bases and a chunk size that is not a
  // multiple of 8 reach its per-chain byte tail and its single-chunk path.
  // The expected values come from per-chunk Crc32c and, pinned on every
  // host, Crc32cPortable.
  Buffer data = MakePatternBuffer(7 * 32 * 1024 + 8, /*tag=*/31);
  for (std::size_t chunk : {std::size_t(512), std::size_t(4096),
                            std::size_t(32 * 1024), std::size_t(1003)}) {
    for (std::size_t chunks = 0; chunks <= 7; ++chunks) {
      for (std::size_t short_by : {std::size_t(0), std::size_t(3), chunk - 1}) {
        if (chunks == 0 && short_by != 0) continue;
        const std::size_t size = chunks * chunk - short_by;
        for (std::size_t offset : {0u, 1u, 5u}) {
          std::span<const std::byte> view(data.data() + offset, size);
          std::vector<std::uint32_t> got(chunks, 0xA5A5A5A5u);
          Crc32cChunks(view, chunk, got);
          for (std::size_t i = 0; i < chunks; ++i) {
            const auto one = view.subspan(
                i * chunk, std::min(chunk, size - i * chunk));
            EXPECT_EQ(got[i], Crc32c(one))
                << "chunk=" << chunk << " chunks=" << chunks
                << " short_by=" << short_by << " offset=" << offset
                << " i=" << i;
            EXPECT_EQ(got[i], Crc32cPortable(one))
                << "portable chunk=" << chunk << " chunks=" << chunks
                << " short_by=" << short_by << " offset=" << offset
                << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  Buffer data = MakePatternBuffer(4096, /*tag=*/3);
  const std::uint32_t before = Crc32c(data);
  data[2048] ^= std::byte(0x01);
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32cTest, DetectsSwappedBlocks) {
  Buffer data = MakePatternBuffer(512, /*tag=*/9);
  const std::uint32_t before = Crc32c(data);
  std::swap(data[0], data[511]);
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc64Test, KnownVector) {
  // CRC-64/XZ("123456789") = 0x995DC9BBDF1939FA.
  EXPECT_EQ(Crc64("123456789", 9), 0x995DC9BBDF1939FAull);
}

TEST(Crc64Test, SpanOverloadMatchesRaw) {
  const char* s = "object-storage";
  EXPECT_EQ(Crc64(AsBytes(s, 14)), Crc64(s, 14));
}

TEST(Crc64Test, DifferentSeedsDiffer) {
  const char* s = "seed me";
  EXPECT_NE(Crc64(s, 7, 0), Crc64(s, 7, 1));
}

}  // namespace
}  // namespace ros2
