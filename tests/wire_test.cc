#include "rpc/wire.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace ros2::rpc {
namespace {

// Golden vectors: the wire format is little-endian BY CONTRACT, not by
// host accident. These committed bytes must match the encoder's output on
// every host (and a decoder fed the committed bytes must yield the
// original values), pinning cross-architecture frame compatibility.
TEST(WireTest, GoldenLittleEndianScalars) {
  Encoder enc;
  enc.U8(0x01).U16(0x0203).U32(0x04050607).U64(0x08090A0B0C0D0E0Full);
  const std::uint8_t expect[] = {
      0x01,                                            // U8
      0x03, 0x02,                                      // U16 LE
      0x07, 0x06, 0x05, 0x04,                          // U32 LE
      0x0F, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08,  // U64 LE
  };
  ASSERT_EQ(enc.buffer().size(), sizeof(expect));
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(enc.buffer()[i], std::byte(expect[i])) << "byte " << i;
  }
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.U8().value(), 0x01);
  EXPECT_EQ(dec.U16().value(), 0x0203);
  EXPECT_EQ(dec.U32().value(), 0x04050607u);
  EXPECT_EQ(dec.U64().value(), 0x08090A0B0C0D0E0Full);
  EXPECT_TRUE(dec.Done());
}

TEST(WireTest, GoldenLittleEndianLengthPrefixes) {
  Encoder enc;
  enc.Str("Hi");
  const std::byte two[] = {std::byte(0xAA), std::byte(0xBB)};
  enc.Bytes(two);
  const std::uint8_t expect[] = {
      0x02, 0x00, 0x00, 0x00, 'H', 'i',     // u32 LE length + chars
      0x02, 0x00, 0x00, 0x00, 0xAA, 0xBB,   // u32 LE length + bytes
  };
  ASSERT_EQ(enc.buffer().size(), sizeof(expect));
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(enc.buffer()[i], std::byte(expect[i])) << "byte " << i;
  }
}

TEST(WireTest, EncoderLatchesLengthOverflow) {
  static const std::byte kByte{0x42};
  Encoder enc;
  enc.U32(7);
  EXPECT_TRUE(enc.ok());
  const std::size_t before = enc.buffer().size();
  // A span claiming 2^33 bytes: the length cannot fit the u32 prefix. The
  // encoder must latch the overflow and append NOTHING (the span contents
  // are never read), instead of silently truncating the length.
  enc.Bytes(std::span<const std::byte>(&kByte, std::size_t(1) << 33));
  EXPECT_FALSE(enc.ok());
  EXPECT_EQ(enc.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(enc.buffer().size(), before);
  // The latch is sticky across further (valid) appends.
  enc.U8(1);
  EXPECT_FALSE(enc.ok());
}

TEST(WireTest, ScalarRoundTrip) {
  Encoder enc;
  enc.U8(0xAB).U16(0xCDEF).U32(0xDEADBEEF).U64(0x0123456789ABCDEFull);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.U8().value(), 0xAB);
  EXPECT_EQ(dec.U16().value(), 0xCDEF);
  EXPECT_EQ(dec.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(dec.U64().value(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(dec.Done());
}

TEST(WireTest, StringRoundTrip) {
  Encoder enc;
  enc.Str("hello").Str("").Str("path/with/slashes");
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.Str().value(), "hello");
  EXPECT_EQ(dec.Str().value(), "");
  EXPECT_EQ(dec.Str().value(), "path/with/slashes");
}

TEST(WireTest, BytesRoundTrip) {
  Buffer payload = MakePatternBuffer(1000, 3);
  Encoder enc;
  enc.Bytes(payload).Bytes({});
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.Bytes().value(), payload);
  EXPECT_TRUE(dec.Bytes().value().empty());
}

TEST(WireTest, MixedMessage) {
  Encoder enc;
  enc.U32(7).Str("dkey").U64(4096).Bytes(MakePatternBuffer(64, 1)).U8(1);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.U32().value(), 7u);
  EXPECT_EQ(dec.Str().value(), "dkey");
  EXPECT_EQ(dec.U64().value(), 4096u);
  EXPECT_EQ(dec.Bytes().value().size(), 64u);
  EXPECT_EQ(dec.U8().value(), 1);
  EXPECT_TRUE(dec.Done());
}

TEST(WireTest, TruncatedScalarFails) {
  Encoder enc;
  enc.U16(42);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.U32().status().code(), ErrorCode::kDataLoss);
}

TEST(WireTest, TruncatedStringFails) {
  Encoder enc;
  enc.U32(100);  // declares a 100-byte string with no payload
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.Str().status().code(), ErrorCode::kDataLoss);
}

TEST(WireTest, EmptyBufferFailsCleanly) {
  Decoder dec(std::span<const std::byte>{});
  EXPECT_EQ(dec.U8().status().code(), ErrorCode::kDataLoss);
  EXPECT_TRUE(dec.Done());
}

TEST(WireTest, RemainingTracksPosition) {
  Encoder enc;
  enc.U32(1).U32(2);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.remaining(), 8u);
  (void)dec.U32();
  EXPECT_EQ(dec.remaining(), 4u);
}

TEST(WireTest, TakeMovesBuffer) {
  Encoder enc;
  enc.U64(99);
  Buffer taken = enc.Take();
  EXPECT_EQ(taken.size(), 8u);
  EXPECT_TRUE(enc.buffer().empty());
}

TEST(WireTest, BinaryStringsWithEmbeddedNuls) {
  std::string s("a\0b", 3);
  Encoder enc;
  enc.Str(s);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.Str().value(), s);
}

TEST(WireTest, InPlaceBytesAndViewsMatchTheCopyingForms) {
  Encoder in_place;
  in_place.Str("k");
  std::span<std::byte> slot = in_place.BytesInPlace(3);
  ASSERT_EQ(slot.size(), 3u);
  for (std::byte b : slot) EXPECT_EQ(b, std::byte{0});
  slot[0] = std::byte{1};
  slot[2] = std::byte{3};
  const std::byte value[] = {std::byte{1}, std::byte{0}, std::byte{3}};
  Encoder copied;
  copied.Str("k").Bytes(value);
  EXPECT_EQ(in_place.buffer(), copied.buffer());

  Decoder dec(in_place.buffer());
  EXPECT_EQ(dec.StrView().value(), "k");
  auto view = dec.BytesView();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), in_place.buffer().data() + 9);  // no copy
  EXPECT_EQ(Buffer(view->begin(), view->end()), Buffer(value, value + 3));
  EXPECT_TRUE(dec.Done());
  // Views are bounds-checked like the copying forms.
  const std::byte claims_more[] = {std::byte{9}, std::byte{0}, std::byte{0},
                                   std::byte{0}, std::byte{'x'}};
  Decoder short_str(claims_more);
  EXPECT_EQ(short_str.StrView().status().code(), ErrorCode::kDataLoss);
  Decoder short_bytes(claims_more);
  EXPECT_EQ(short_bytes.BytesView().status().code(), ErrorCode::kDataLoss);
}

TEST(WireTest, InPlaceBytesLatchesLengthOverflow) {
  Encoder enc;
  enc.U8(1);
  EXPECT_TRUE(enc.BytesInPlace(std::size_t(1) << 33).empty());
  EXPECT_FALSE(enc.ok());
  EXPECT_EQ(enc.buffer().size(), 1u);
}

}  // namespace
}  // namespace ros2::rpc
