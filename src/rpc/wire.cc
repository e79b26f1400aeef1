#include "rpc/wire.h"

#include <limits>

namespace ros2::rpc {
namespace {

constexpr std::uint64_t kMaxLenPrefix =
    std::numeric_limits<std::uint32_t>::max();

}  // namespace

void Encoder::Append(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::byte*>(data);
  buf_.insert(buf_.end(), bytes, bytes + size);
}

Status Encoder::status() const {
  return overflowed_
             ? OutOfRange("encoded length exceeds the u32 wire prefix")
             : Status::Ok();
}

Encoder& Encoder::U8(std::uint8_t v) {
  buf_.push_back(std::byte(v));
  return *this;
}
Encoder& Encoder::U16(std::uint16_t v) {
  const std::byte le[2] = {std::byte(v & 0xFF), std::byte(v >> 8)};
  Append(le, sizeof(le));
  return *this;
}
Encoder& Encoder::U32(std::uint32_t v) {
  const std::byte le[4] = {std::byte(v & 0xFF), std::byte((v >> 8) & 0xFF),
                           std::byte((v >> 16) & 0xFF),
                           std::byte(v >> 24)};
  Append(le, sizeof(le));
  return *this;
}
Encoder& Encoder::U64(std::uint64_t v) {
  std::byte le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = std::byte((v >> (8 * i)) & 0xFF);
  }
  Append(le, sizeof(le));
  return *this;
}
Encoder& Encoder::Str(std::string_view v) {
  if (std::uint64_t(v.size()) > kMaxLenPrefix) {
    overflowed_ = true;
    return *this;
  }
  U32(std::uint32_t(v.size()));
  Append(v.data(), v.size());
  return *this;
}
Encoder& Encoder::Bytes(std::span<const std::byte> v) {
  if (std::uint64_t(v.size()) > kMaxLenPrefix) {
    overflowed_ = true;
    return *this;
  }
  U32(std::uint32_t(v.size()));
  Append(v.data(), v.size());
  return *this;
}

std::span<std::byte> Encoder::BytesInPlace(std::size_t size) {
  if (std::uint64_t(size) > kMaxLenPrefix) {
    overflowed_ = true;
    return {};
  }
  U32(std::uint32_t(size));
  buf_.resize(buf_.size() + size);
  return std::span<std::byte>(buf_).last(size);
}

Status Decoder::Need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    return DataLoss("truncated RPC message");
  }
  return Status::Ok();
}

Result<std::uint8_t> Decoder::U8() {
  ROS2_RETURN_IF_ERROR(Need(1));
  const std::uint8_t v = std::uint8_t(data_[pos_]);
  pos_ += 1;
  return v;
}
Result<std::uint16_t> Decoder::U16() {
  ROS2_RETURN_IF_ERROR(Need(2));
  const std::uint16_t v =
      std::uint16_t(std::uint16_t(data_[pos_]) |
                    (std::uint16_t(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}
Result<std::uint32_t> Decoder::U32() {
  ROS2_RETURN_IF_ERROR(Need(4));
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | std::uint32_t(data_[pos_ + std::size_t(i)]);
  }
  pos_ += 4;
  return v;
}
Result<std::uint64_t> Decoder::U64() {
  ROS2_RETURN_IF_ERROR(Need(8));
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | std::uint64_t(data_[pos_ + std::size_t(i)]);
  }
  pos_ += 8;
  return v;
}
Result<std::string> Decoder::Str() {
  ROS2_ASSIGN_OR_RETURN(std::string_view v, StrView());
  return std::string(v);
}
Result<Buffer> Decoder::Bytes() {
  ROS2_ASSIGN_OR_RETURN(std::span<const std::byte> v, BytesView());
  return Buffer(v.begin(), v.end());
}
Result<std::string_view> Decoder::StrView() {
  ROS2_ASSIGN_OR_RETURN(std::span<const std::byte> v, BytesView());
  return std::string_view(reinterpret_cast<const char*>(v.data()), v.size());
}
Result<std::span<const std::byte>> Decoder::BytesView() {
  ROS2_ASSIGN_OR_RETURN(std::uint32_t len, U32());
  ROS2_RETURN_IF_ERROR(Need(len));
  const std::span<const std::byte> v = data_.subspan(pos_, len);
  pos_ += len;
  return v;
}

}  // namespace ros2::rpc
