// ChaCha20 stream cipher for the DPU-resident inline encryption service
// (§1: "DPU-resident features such as ... inline services (e.g.,
// encryption/decryption) close to the NIC").
//
// State layout: the original ChaCha 64-bit-counter / 64-bit-nonce variant,
// not RFC 8439's 32-bit counter with a 96-bit nonce. Words 0-3 hold the
// constant "expand 32-byte k", 4-11 the key, 12-13 the block counter (low
// word first) and 14-15 the nonce (low word first). The 20-round block
// function itself is RFC 8439's, so its Appendix A.1 vectors apply once
// RFC state words 13-15 (its nonce) are set through the counter's high
// word and this nonce.
//
// The keystream position is tied to the absolute file offset, so
// chunk-split and unaligned writes encrypt consistently: byte i of a file
// is always XORed with keystream byte i for that (key, nonce). Positions
// wrap mod 2^64: byte i of `data` sits at pos = (stream_offset + i) mod
// 2^64, in the block with counter pos / 64. Note the documented
// trade-off: rewriting a byte range reuses keystream (fine for a
// performance prototype; a production service would hash a version into
// the nonce).
//
// ChaCha20Xor computes several keystream blocks per pass, one vector lane
// per block: 4 lanes on any host (SSE2, or NEON on Arm), 8 with AVX2 and
// 16 with AVX-512F on x86-64. The widest width the CPU supports is picked
// once per process at runtime. A partial first block and the last < N
// blocks go through the scalar block function, kept as the reference.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ros2::core {

using ChaChaKey = std::array<std::uint8_t, 32>;

/// XORs `data` (in place) with the ChaCha20 keystream for `key`/`nonce`,
/// starting at absolute keystream byte `stream_offset`. Encryption and
/// decryption are the same operation.
void ChaCha20Xor(const ChaChaKey& key, std::uint64_t nonce,
                 std::uint64_t stream_offset, std::span<std::byte> data);

/// Deterministic per-object nonce derivation (object id halves mixed).
std::uint64_t DeriveNonce(std::uint64_t hi, std::uint64_t lo);

namespace detail {

/// One keystream width compiled into this binary. For tests and the
/// throughput bench only; everything else calls ChaCha20Xor.
struct ChaChaWidth {
  int lanes;      ///< keystream blocks per pass; 1 = the scalar reference
  bool runnable;  ///< this CPU has the instructions the width needs
  /// Same contract as ChaCha20Xor.
  void (*xor_fn)(const ChaChaKey& key, std::uint64_t nonce,
                 std::uint64_t stream_offset, std::span<std::byte> data);
};

/// Every compiled width, narrowest (the scalar reference) first.
std::span<const ChaChaWidth> ChaChaWidths();

/// The widest runnable width: the one ChaCha20Xor runs.
const ChaChaWidth& ChaChaSelected();

}  // namespace detail
}  // namespace ros2::core
