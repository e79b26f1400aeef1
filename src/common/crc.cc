#include "common/crc.h"

#include <array>
#include <cstring>

namespace ros2 {
namespace {

// CRC32C (reflected, poly 0x1EDC6F41 -> reversed 0x82F63B78). This is the
// data-path checksum (charged per payload byte by the checksum ablation),
// so the software path uses slicing-by-8 — eight table lookups consume
// eight bytes per iteration with no inter-byte dependency chain — and
// x86-64 hosts with SSE4.2 use the hardware crc32 instruction instead
// (same polynomial, same running-remainder convention, picked once at
// runtime via CPUID).
//
// One crc32 instruction has a latency of three cycles but issues every
// cycle, so a single dependency chain runs it at a third of its rate. The
// hardware path therefore runs three independent chains over three
// consecutive kCrcBlock-byte blocks (Gopal et al., "Fast CRC Computation
// for iSCSI Polynomial Using CRC32 Instruction", Intel 2011) and merges
// them. The running remainder is linear over GF(2): the remainder of
// A||B is the remainder of B from zero, XOR the remainder of A carried
// through |B| zero bytes — a multiply by x^(8|B|) mod P. That carry is a
// fixed linear map on 32 bits, so four 256-entry tables per distance (one
// per remainder byte) apply it; they are built at compile time and need
// nothing beyond SSE4.2.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

using Crc32cSlices = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32cSlices BuildCrc32cSlices() {
  Crc32cSlices slices{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    slices[0][i] = crc;
  }
  for (std::size_t k = 1; k < slices.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = slices[k - 1][i];
      slices[k][i] = slices[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return slices;
}

const Crc32cSlices& Crc32cTables() {
  static const Crc32cSlices slices = BuildCrc32cSlices();
  return slices;
}

/// Software slicing-by-8 over the running (pre-inversion) remainder.
std::uint32_t Crc32cSoftware(std::uint32_t crc, const std::byte* data,
                             std::size_t size) {
  const Crc32cSlices& t = Crc32cTables();
  while (size >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, data, sizeof(chunk));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    chunk ^= crc;
    crc = t[7][chunk & 0xFFu] ^ t[6][(chunk >> 8) & 0xFFu] ^
          t[5][(chunk >> 16) & 0xFFu] ^ t[4][(chunk >> 24) & 0xFFu] ^
          t[3][(chunk >> 32) & 0xFFu] ^ t[2][(chunk >> 40) & 0xFFu] ^
          t[1][(chunk >> 48) & 0xFFu] ^ t[0][chunk >> 56];
    data += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ std::uint32_t(data[i])) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ROS2_CRC32C_HW 1

/// Bytes per stream in one interleaved group; a group is three blocks.
constexpr std::size_t kCrcBlock = 512;

/// A GF(2)-linear map on 32-bit remainders: the images of its 32 basis
/// bits.
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t Apply(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t out = 0;
  for (int bit = 0; v != 0; ++bit, v >>= 1) {
    if (v & 1u) out ^= m[bit];
  }
  return out;
}

constexpr Gf2Matrix Compose(const Gf2Matrix& outer, const Gf2Matrix& inner) {
  Gf2Matrix out{};
  for (int bit = 0; bit < 32; ++bit) out[bit] = Apply(outer, inner[bit]);
  return out;
}

/// The four byte-indexed tables of the map that carries a remainder
/// through `bytes` zero bytes: the carry of crc is the XOR of table k at
/// byte k of crc. The map is built by repeated squaring of the one-bit
/// step, as zlib's crc32_combine does.
using Crc32cShift = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr Crc32cShift BuildCrc32cShift(std::size_t bytes) {
  Gf2Matrix step{};  // one zero bit: crc >> 1, folding in the polynomial
  step[0] = kCrc32cPoly;
  for (int bit = 1; bit < 32; ++bit) {
    step[bit] = std::uint32_t(1) << (bit - 1);
  }
  Gf2Matrix carry{};
  for (int bit = 0; bit < 32; ++bit) carry[bit] = std::uint32_t(1) << bit;
  for (std::size_t bits = 8 * bytes; bits != 0; bits >>= 1) {
    if (bits & 1u) carry = Compose(step, carry);
    step = Compose(step, step);
  }
  Crc32cShift shift{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      shift[k][i] = Apply(carry, i << (8 * k));
    }
  }
  return shift;
}

constexpr Crc32cShift kShiftOneBlock = BuildCrc32cShift(kCrcBlock);
constexpr Crc32cShift kShiftTwoBlocks = BuildCrc32cShift(2 * kCrcBlock);

inline std::uint32_t Shift(const Crc32cShift& t, std::uint32_t crc) {
  return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
         t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
}

__attribute__((target("sse4.2"))) inline std::uint64_t Crc32cWord(
    std::uint64_t crc, const std::byte* data) {
  std::uint64_t word = 0;
  std::memcpy(&word, data, sizeof(word));
  return __builtin_ia32_crc32di(crc, word);
}

/// SSE4.2 crc32 path; only called after the runtime CPUID check. Whole
/// three-block groups run as three chains; the tail runs as one.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cHardware(
    std::uint32_t crc, const std::byte* data, std::size_t size) {
  std::uint64_t crc64 = crc;
  for (; size >= 3 * kCrcBlock; size -= 3 * kCrcBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kCrcBlock; i += 8) {
      crc64 = Crc32cWord(crc64, data + i);
      crc1 = Crc32cWord(crc1, data + kCrcBlock + i);
      crc2 = Crc32cWord(crc2, data + 2 * kCrcBlock + i);
    }
    crc64 = Shift(kShiftTwoBlocks, std::uint32_t(crc64)) ^
            Shift(kShiftOneBlock, std::uint32_t(crc1)) ^ crc2;
    data += 3 * kCrcBlock;
  }
  for (; size >= 8; size -= 8) {
    crc64 = Crc32cWord(crc64, data);
    data += 8;
  }
  crc = std::uint32_t(crc64);
  for (std::size_t i = 0; i < size; ++i) {
    crc = __builtin_ia32_crc32qi(crc, std::uint8_t(data[i]));
  }
  return crc;
}

bool HaveSse42() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif  // __x86_64__

// CRC-64/XZ (reflected, poly 0x42F0E1EBA9EA3693 -> reversed). Metadata
// self-checks only — stays byte-at-a-time.
constexpr std::uint64_t kCrc64Poly = 0xC96C5795D7870F42ull;

std::array<std::uint64_t, 256> BuildCrc64Table() {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrc64Poly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint64_t, 256>& Crc64Table() {
  static const auto table = BuildCrc64Table();
  return table;
}

}  // namespace

std::uint32_t Crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
#if defined(ROS2_CRC32C_HW)
  if (HaveSse42()) {
    return ~Crc32cHardware(crc, data.data(), data.size());
  }
#endif
  return ~Crc32cSoftware(crc, data.data(), data.size());
}

std::uint32_t Crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  return Crc32c(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

std::uint32_t Crc32cPortable(std::span<const std::byte> data,
                             std::uint32_t seed) {
  return ~Crc32cSoftware(~seed, data.data(), data.size());
}

std::uint64_t Crc64(std::span<const std::byte> data, std::uint64_t seed) {
  const auto& table = Crc64Table();
  std::uint64_t crc = ~seed;
  for (std::byte b : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t Crc64(const void* data, std::size_t size, std::uint64_t seed) {
  return Crc64(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

}  // namespace ros2
