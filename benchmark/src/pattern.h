// Seeded content for every byte the benchmark writes.
//
// A file region's bytes are a window of one seeded pattern stream:
// byte o of a region with base b is stream[(b + o) mod kSpan]. Any
// sub-range of any region can then be re-derived and compared without
// per-byte generation, which keeps verification cheap enough to check
// every read byte-exact at gigabytes per second.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.h"

namespace wallbench {

/// Mixes up to three keys into one 64-bit value (splitmix64 finaliser).
inline std::uint64_t Mix(std::uint64_t a, std::uint64_t b = 0,
                         std::uint64_t c = 0) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull) *
                                                  0xBF58476D1CE4E5B9ull ^
                    (c + 0x94D049BB133111EBull) * 0xD6E8FEB86659FD93ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

class DataPool {
 public:
  /// Distinct pattern bytes; region bases are reduced modulo this.
  static constexpr std::uint64_t kSpan = 8ull << 20;
  /// Longest window a single I/O may take.
  static constexpr std::uint64_t kMaxIo = 1ull << 20;

  explicit DataPool(std::uint64_t seed) : bytes_(kSpan + kMaxIo) {
    ros2::Rng rng(Mix(seed, 0x7061747465726eull));
    for (std::uint64_t i = 0; i < kSpan; i += 8) {
      const std::uint64_t v = rng.Next();
      std::memcpy(bytes_.data() + i, &v, 8);
    }
    // The tail repeats the head so every window is contiguous.
    std::memcpy(bytes_.data() + kSpan, bytes_.data(), kMaxIo);
  }

  /// Bytes [base + offset, +len) of the stream; len <= kMaxIo.
  std::span<const std::byte> Window(std::uint64_t base, std::uint64_t offset,
                                    std::size_t len) const {
    return {bytes_.data() + (base + offset) % kSpan, len};
  }

 private:
  std::vector<std::byte> bytes_;
};

}  // namespace wallbench
