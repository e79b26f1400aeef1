// Wire codec: length-prefixed, explicitly little-endian serialization for
// RPC messages.
//
// Deliberately tiny (no schema compiler); every RPC message in the stack is
// built and parsed through Encoder/Decoder so framing bugs have one home.
//
// The byte layout is LITTLE-ENDIAN BY CONSTRUCTION — scalars are assembled
// from / split into bytes with shifts, never memcpy'd through host integer
// layout — so frames produced on any host decode identically on any other
// (wire_test pins the layout with committed golden vectors). Both
// directions are bounds-checked: Decoder never reads past the frame (every
// accessor returns a Result), and Encoder latches a sticky error when a
// length field would overflow its u32 prefix instead of silently
// truncating; check ok()/status() before trusting buffer().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace ros2::rpc {

class Encoder {
 public:
  /// Small RPC frames (headers, unary replies) fit this without a single
  /// regrowth; encoding is on the per-call hot path of the async
  /// pipeline, where incremental vector doubling showed up as several
  /// reallocations per frame.
  static constexpr std::size_t kInlineReserve = 112;

  /// `reserve`: the frame's final size, when the caller knows it, so a
  /// frame carrying a payload is allocated once and never regrown.
  explicit Encoder(std::size_t reserve = kInlineReserve) {
    buf_.reserve(reserve);
  }

  Encoder& U8(std::uint8_t v);
  Encoder& U16(std::uint16_t v);
  Encoder& U32(std::uint32_t v);
  Encoder& U64(std::uint64_t v);
  Encoder& Str(std::string_view v);              ///< u32 length + bytes
  Encoder& Bytes(std::span<const std::byte> v);  ///< u32 length + bytes
  /// Bytes() whose `size` payload bytes the caller fills in place: returns
  /// them (zeroed), valid until the next append; empty on overflow.
  std::span<std::byte> BytesInPlace(std::size_t size);

  /// False once any length field overflowed its u32 prefix. A frame from
  /// an overflowed encoder is incomplete and must not be sent.
  bool ok() const { return overflowed_ == false; }
  Status status() const;

  const Buffer& buffer() const { return buf_; }
  Buffer Take() { return std::move(buf_); }

 private:
  void Append(const void* data, std::size_t size);
  Buffer buf_;
  bool overflowed_ = false;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> data) : data_(data) {}

  Result<std::uint8_t> U8();
  Result<std::uint16_t> U16();
  Result<std::uint32_t> U32();
  Result<std::uint64_t> U64();
  Result<std::string> Str();
  Result<Buffer> Bytes();
  /// Str()/Bytes() without the copy: views into the frame.
  Result<std::string_view> StrView();
  Result<std::span<const std::byte>> BytesView();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  Status Need(std::size_t n) const;
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace ros2::rpc
