#include "core/chacha20.h"

#include <gtest/gtest.h>

#include <random>

#include "common/bytes.h"

namespace ros2::core {
namespace {

ChaChaKey TestKey() {
  ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = std::uint8_t(i);
  return key;
}

// RFC 8439 Appendix A.1: ChaCha20 block function test vectors #1-#5.
// Through the public API, the keystream for block `counter` is the XOR of
// 64 zero bytes at stream_offset = counter * 64. RFC 8439 puts a 96-bit
// nonce in words 13-15; this layout holds the counter's high half in word
// 13 and a 64-bit nonce in words 14-15, so vector #5's nonce (byte 11 = 2,
// i.e. word 15 = 0x02000000) is passed as 0x02000000 << 32.
struct KnownAnswer {
  const char* name;
  ChaChaKey key;
  std::uint64_t nonce;
  std::uint64_t counter;
  std::array<std::uint8_t, 64> keystream;
};

ChaChaKey KeyWithByte(std::size_t index, std::uint8_t value) {
  ChaChaKey key{};
  key[index] = value;
  return key;
}

const KnownAnswer kRfc8439Block[] = {
    {"#1",
     ChaChaKey{},
     0,
     0,
     {0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a,
      0xe5, 0x53, 0x86, 0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d,
      0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc, 0x8b, 0x77, 0x0d, 0xc7, 0xda,
      0x41, 0x59, 0x7c, 0x51, 0x57, 0x48, 0x8d, 0x77, 0x24, 0xe0, 0x3f,
      0xb8, 0xd8, 0x4a, 0x37, 0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1,
      0x1c, 0xc3, 0x87, 0xb6, 0x69, 0xb2, 0xee, 0x65, 0x86}},
    {"#2",
     ChaChaKey{},
     0,
     1,
     {0x9f, 0x07, 0xe7, 0xbe, 0x55, 0x51, 0x38, 0x7a, 0x98, 0xba, 0x97,
      0x7c, 0x73, 0x2d, 0x08, 0x0d, 0xcb, 0x0f, 0x29, 0xa0, 0x48, 0xe3,
      0x65, 0x69, 0x12, 0xc6, 0x53, 0x3e, 0x32, 0xee, 0x7a, 0xed, 0x29,
      0xb7, 0x21, 0x76, 0x9c, 0xe6, 0x4e, 0x43, 0xd5, 0x71, 0x33, 0xb0,
      0x74, 0xd8, 0x39, 0xd5, 0x31, 0xed, 0x1f, 0x28, 0x51, 0x0a, 0xfb,
      0x45, 0xac, 0xe1, 0x0a, 0x1f, 0x4b, 0x79, 0x4d, 0x6f}},
    {"#3",
     KeyWithByte(31, 0x01),
     0,
     1,
     {0x3a, 0xeb, 0x52, 0x24, 0xec, 0xf8, 0x49, 0x92, 0x9b, 0x9d, 0x82,
      0x8d, 0xb1, 0xce, 0xd4, 0xdd, 0x83, 0x20, 0x25, 0xe8, 0x01, 0x8b,
      0x81, 0x60, 0xb8, 0x22, 0x84, 0xf3, 0xc9, 0x49, 0xaa, 0x5a, 0x8e,
      0xca, 0x00, 0xbb, 0xb4, 0xa7, 0x3b, 0xda, 0xd1, 0x92, 0xb5, 0xc4,
      0x2f, 0x73, 0xf2, 0xfd, 0x4e, 0x27, 0x36, 0x44, 0xc8, 0xb3, 0x61,
      0x25, 0xa6, 0x4a, 0xdd, 0xeb, 0x00, 0x6c, 0x13, 0xa0}},
    {"#4",
     KeyWithByte(1, 0xff),
     0,
     2,
     {0x72, 0xd5, 0x4d, 0xfb, 0xf1, 0x2e, 0xc4, 0x4b, 0x36, 0x26, 0x92,
      0xdf, 0x94, 0x13, 0x7f, 0x32, 0x8f, 0xea, 0x8d, 0xa7, 0x39, 0x90,
      0x26, 0x5e, 0xc1, 0xbb, 0xbe, 0xa1, 0xae, 0x9a, 0xf0, 0xca, 0x13,
      0xb2, 0x5a, 0xa2, 0x6c, 0xb4, 0xa6, 0x48, 0xcb, 0x9b, 0x9d, 0x1b,
      0xe6, 0x5b, 0x2c, 0x09, 0x24, 0xa6, 0x6c, 0x54, 0xd5, 0x45, 0xec,
      0x1b, 0x73, 0x74, 0xf4, 0x87, 0x2e, 0x99, 0xf0, 0x96}},
    {"#5",
     ChaChaKey{},
     0x02000000ull << 32,
     0,
     {0xc2, 0xc6, 0x4d, 0x37, 0x8c, 0xd5, 0x36, 0x37, 0x4a, 0xe2, 0x04,
      0xb9, 0xef, 0x93, 0x3f, 0xcd, 0x1a, 0x8b, 0x22, 0x88, 0xb3, 0xdf,
      0xa4, 0x96, 0x72, 0xab, 0x76, 0x5b, 0x54, 0xee, 0x27, 0xc7, 0x8a,
      0x97, 0x0e, 0x0e, 0x95, 0x5c, 0x14, 0xf3, 0xa8, 0x8e, 0x74, 0x1b,
      0x97, 0xc2, 0x86, 0xf7, 0x5f, 0x8f, 0xc2, 0x99, 0xe8, 0x14, 0x83,
      0x62, 0xfa, 0x19, 0x8a, 0x39, 0x53, 0x1b, 0xed, 0x6d}},
};

TEST(ChaCha20Test, Rfc8439BlockFunctionVectors) {
  for (const KnownAnswer& kat : kRfc8439Block) {
    Buffer data(64, std::byte(0));
    ChaCha20Xor(kat.key, kat.nonce, kat.counter * 64, data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(std::uint8_t(data[i]), kat.keystream[i])
          << "vector " << kat.name << " byte " << i;
    }
  }
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  const ChaChaKey key = TestKey();
  Buffer data = MakePatternBuffer(10000, 1);
  Buffer original = data;
  ChaCha20Xor(key, 42, 0, data);
  EXPECT_NE(data, original);
  ChaCha20Xor(key, 42, 0, data);  // XOR stream is its own inverse
  EXPECT_EQ(data, original);
}

TEST(ChaCha20Test, CiphertextLooksNothingLikePlaintext) {
  const ChaChaKey key = TestKey();
  Buffer data(1024, std::byte(0));  // all zeros: ciphertext = keystream
  ChaCha20Xor(key, 1, 0, data);
  int zero_count = 0;
  for (std::byte b : data) {
    if (b == std::byte(0)) ++zero_count;
  }
  EXPECT_LT(zero_count, 32);  // keystream should have few zero bytes
}

TEST(ChaCha20Test, StreamOffsetSeekable) {
  // Encrypting [0, 1000) in one shot must equal encrypting [0, 300) and
  // [300, 1000) separately — the property chunk-split DFS writes rely on.
  const ChaChaKey key = TestKey();
  Buffer whole = MakePatternBuffer(1000, 2);
  Buffer split = whole;
  ChaCha20Xor(key, 7, 0, whole);
  ChaCha20Xor(key, 7, 0, std::span<std::byte>(split.data(), 300));
  ChaCha20Xor(key, 7, 300, std::span<std::byte>(split.data() + 300, 700));
  EXPECT_EQ(whole, split);
}

TEST(ChaCha20Test, UnalignedOffsetsWithinBlock) {
  const ChaChaKey key = TestKey();
  Buffer whole = MakePatternBuffer(200, 3);
  Buffer split = whole;
  ChaCha20Xor(key, 9, 0, whole);
  // Split at a non-64 boundary inside a keystream block.
  ChaCha20Xor(key, 9, 0, std::span<std::byte>(split.data(), 37));
  ChaCha20Xor(key, 9, 37, std::span<std::byte>(split.data() + 37, 163));
  EXPECT_EQ(whole, split);
}

TEST(ChaCha20Test, DifferentKeysDiffer) {
  Buffer a(256, std::byte(0));
  Buffer b(256, std::byte(0));
  ChaChaKey k1 = TestKey();
  ChaChaKey k2 = TestKey();
  k2[0] ^= 1;
  ChaCha20Xor(k1, 1, 0, a);
  ChaCha20Xor(k2, 1, 0, b);
  EXPECT_NE(a, b);
}

TEST(ChaCha20Test, DifferentNoncesDiffer) {
  Buffer a(256, std::byte(0));
  Buffer b(256, std::byte(0));
  const ChaChaKey key = TestKey();
  ChaCha20Xor(key, 1, 0, a);
  ChaCha20Xor(key, 2, 0, b);
  EXPECT_NE(a, b);
}

TEST(ChaCha20Test, EmptySpanIsNoop) {
  const ChaChaKey key = TestKey();
  ChaCha20Xor(key, 1, 0, {});
}

TEST(DeriveNonceTest, DeterministicAndSpread) {
  EXPECT_EQ(DeriveNonce(1, 2), DeriveNonce(1, 2));
  EXPECT_NE(DeriveNonce(1, 2), DeriveNonce(2, 1));
  EXPECT_NE(DeriveNonce(1, 2), DeriveNonce(1, 3));
}

class ChaChaOffsetTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaChaOffsetTest, SeekEquivalenceAtOffset) {
  // Property: keystream position is absolute; any split point yields the
  // same ciphertext.
  const std::uint64_t offset = GetParam();
  const ChaChaKey key = TestKey();
  Buffer whole = MakePatternBuffer(512, offset);
  Buffer prefix_suffix = whole;
  ChaCha20Xor(key, 5, offset, whole);
  const std::size_t cut = 129;
  ChaCha20Xor(key, 5, offset,
              std::span<std::byte>(prefix_suffix.data(), cut));
  ChaCha20Xor(key, 5, offset + cut,
              std::span<std::byte>(prefix_suffix.data() + cut, 512 - cut));
  EXPECT_EQ(whole, prefix_suffix);
}

INSTANTIATE_TEST_SUITE_P(Offsets, ChaChaOffsetTest,
                         ::testing::Values(0, 1, 63, 64, 65, 4096,
                                           (1ull << 20) + 17));

// ---- Every compiled keystream width against the scalar reference --------

class ChaChaWidthTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    for (const detail::ChaChaWidth& width : detail::ChaChaWidths()) {
      if (width.lanes == GetParam() && width.runnable) width_ = &width;
    }
    if (width_ == nullptr) {
      GTEST_SKIP() << GetParam()
                   << "-lane ChaCha20 is not compiled for, or not "
                      "supported by, this host";
    }
  }

  /// XORs the same buffer with the scalar reference and with the width
  /// under test, over [start, start + length) of a larger buffer, so a
  /// stray write outside the span or an unaligned data pointer also shows.
  void ExpectMatch(const ChaChaKey& key, std::uint64_t nonce,
                   std::uint64_t stream_offset, std::size_t start,
                   std::size_t length, std::uint64_t tag) const {
    Buffer expected = MakePatternBuffer(start + length + 64, tag);
    Buffer actual = expected;
    detail::ChaChaWidths().front().xor_fn(
        key, nonce, stream_offset,
        std::span<std::byte>(expected.data() + start, length));
    width_->xor_fn(key, nonce, stream_offset,
                   std::span<std::byte>(actual.data() + start, length));
    EXPECT_TRUE(expected == actual)
        << width_->lanes << " lanes, stream_offset " << stream_offset
        << ", length " << length << ", start " << start;
  }

  const detail::ChaChaWidth* width_ = nullptr;
};

TEST_P(ChaChaWidthTest, MatchesReferenceOnRandomCases) {
  std::mt19937_64 rng(0xC4AC4A20u + std::uint64_t(GetParam()));
  for (int i = 0; i < 300; ++i) {
    ChaChaKey key;
    for (std::uint8_t& b : key) b = std::uint8_t(rng());
    const std::uint64_t nonce = rng();
    // Half the cases near the start of a file, half anywhere in 2^64.
    const std::uint64_t offset = i % 2 == 0 ? rng() % (1u << 20) : rng();
    ExpectMatch(key, nonce, offset, rng() % 16, rng() % 5001,
                std::uint64_t(i));
  }
}

TEST_P(ChaChaWidthTest, MatchesReferenceAroundPassBoundaries) {
  const std::size_t pass = 64 * std::size_t(GetParam());
  for (std::uint64_t offset : {0, 1, 37, 63, 64, 65, 4096 + 5}) {
    for (std::size_t length :
         {std::size_t(0), std::size_t(1), std::size_t(63), std::size_t(64),
          std::size_t(65), pass - 1, pass, pass + 1, 2 * pass + 37,
          3 * pass - 63, std::size_t(4999), std::size_t(5000)}) {
      ExpectMatch(TestKey(), 11, offset, offset % 7, length, length);
    }
  }
}

TEST_P(ChaChaWidthTest, CounterLowWordCarriesIntoHighWord) {
  // Block 2^32 starts at stream byte 2^38: word 12 wraps to 0 and word 13
  // becomes 1 inside one pass.
  for (std::uint64_t back : {100, 64, 1, 64 * 64 + 3}) {
    ExpectMatch(TestKey(), 3, (1ull << 38) - back, 0, 5000, back);
  }
}

TEST_P(ChaChaWidthTest, StreamPositionWrapsModTwoToThe64) {
  // The reference takes byte i at (stream_offset + i) mod 2^64, so a span
  // that runs past 2^64 continues at block 0.
  for (std::uint64_t back : {1, 63, 64, 100, 64 * 17, 4999}) {
    ExpectMatch(TestKey(), 5, 0 - back, 3, 5000, back);
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ChaChaWidthTest,
                         ::testing::Values(4, 8, 16));

TEST(ChaChaWidthsTest, ScalarFirstAndWidestRunnableSelected) {
  const auto widths = detail::ChaChaWidths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.front().lanes, 1);
  int widest = 0;
  for (const detail::ChaChaWidth& width : widths) {
    if (width.runnable) widest = width.lanes;
  }
  EXPECT_EQ(detail::ChaChaSelected().lanes, widest);
  EXPECT_GE(widest, 4);
  std::printf("ChaCha20Xor runs %d lanes\n", widest);
}

}  // namespace
}  // namespace ros2::core
