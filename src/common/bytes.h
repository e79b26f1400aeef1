// Byte-buffer helpers: deterministic pattern fill/verify used by tests and
// the FIO harness to prove that every engine really moves the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ros2 {

using Buffer = std::vector<std::byte>;
/// Read-only view of bytes someone else owns (a frame, a header).
using ByteView = std::span<const std::byte>;

/// Bytes allocated without being initialised, for a payload whose producer
/// writes every byte (a Buffer would zero it first). Move-only.
class RawBuffer {
 public:
  RawBuffer() = default;
  explicit RawBuffer(std::size_t size)
      : data_(std::make_unique_for_overwrite<std::byte[]>(size)),
        size_(size) {}
  RawBuffer(RawBuffer&& other) noexcept
      : data_(std::move(other.data_)), size_(std::exchange(other.size_, 0)) {}
  RawBuffer& operator=(RawBuffer&& other) noexcept {
    data_ = std::move(other.data_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::byte* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<std::byte> span() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t size_ = 0;
};

/// Fills `out` with a position-dependent pattern derived from (tag, offset):
/// byte i = mix(tag, offset + i). Any slice of a filled region can be
/// re-derived and verified independently, which lets tests check partial and
/// unaligned reads.
inline void FillPattern(std::span<std::byte> out, std::uint64_t tag,
                        std::uint64_t offset) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t x = tag * 0x9E3779B97F4A7C15ull + (offset + i);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    out[i] = static_cast<std::byte>(x >> 56);
  }
}

/// Returns the index of the first mismatching byte, or -1 if `data` matches
/// the pattern for (tag, offset).
inline std::ptrdiff_t VerifyPattern(std::span<const std::byte> data,
                                    std::uint64_t tag, std::uint64_t offset) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint64_t x = tag * 0x9E3779B97F4A7C15ull + (offset + i);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    if (data[i] != static_cast<std::byte>(x >> 56)) {
      return std::ptrdiff_t(i);
    }
  }
  return -1;
}

/// Convenience: a Buffer of `size` bytes filled with the (tag, offset) pattern.
inline Buffer MakePatternBuffer(std::size_t size, std::uint64_t tag,
                                std::uint64_t offset = 0) {
  Buffer buf(size);
  FillPattern(buf, tag, offset);
  return buf;
}

}  // namespace ros2
