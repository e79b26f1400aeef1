// End-to-end checksums: CRC-32C (Castagnoli) and CRC-64/XZ.
//
// DAOS uses end-to-end checksums on every extent; we mirror that with
// CRC-32C (the polynomial DAOS defaults to), in hardware where the CPU has
// the SSE4.2 crc32 instruction. CRC-64 is used for superblock/metadata
// self-checks where a longer code is cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ros2 {

/// CRC-32C over `data`, seeded with `seed` (pass the previous value to
/// stream over multiple chunks; 0 for a fresh computation). Dispatches once
/// at runtime: where CPUID reports SSE4.2, three interleaved crc32
/// instruction chains over consecutive 512-byte blocks, merged by a
/// table-driven GF(2) shift (a single chain for the tail); otherwise the
/// portable slicing-by-8 table path.
std::uint32_t Crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Convenience overload over raw memory.
std::uint32_t Crc32c(const void* data, std::size_t size, std::uint32_t seed = 0);

/// The portable slicing-by-8 path, bypassing the hardware dispatch. Always
/// identical to Crc32c(); exposed so tests pin the software path even on
/// hosts where Crc32c() takes the SSE4.2 instruction.
std::uint32_t Crc32cPortable(std::span<const std::byte> data,
                             std::uint32_t seed = 0);

/// CRC-64/XZ over `data`.
std::uint64_t Crc64(std::span<const std::byte> data, std::uint64_t seed = 0);
std::uint64_t Crc64(const void* data, std::size_t size, std::uint64_t seed = 0);

}  // namespace ros2
