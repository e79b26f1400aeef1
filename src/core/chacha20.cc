#include "core/chacha20.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace ros2::core {
namespace {

constexpr std::uint32_t Rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

void QuarterRound(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                  std::uint32_t& d) {
  a += b; d ^= a; d = Rotl(d, 16);
  c += d; b ^= c; b = Rotl(b, 12);
  a += b; d ^= a; d = Rotl(d, 8);
  c += d; b ^= c; b = Rotl(b, 7);
}

/// The input state for (key, nonce) with a zero block counter.
void InitState(const ChaChaKey& key, std::uint64_t nonce,
               std::uint32_t state[16]) {
  // "expand 32-byte k"
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    std::memcpy(&state[4 + i], key.data() + 4 * i, 4);
  }
  // 64-bit counter + 64-bit nonce variant (original ChaCha layout).
  state[12] = 0;
  state[13] = 0;
  state[14] = std::uint32_t(nonce);
  state[15] = std::uint32_t(nonce >> 32);
}

/// One 64-byte ChaCha20 block for (key, nonce, counter).
void Block(const ChaChaKey& key, std::uint64_t nonce, std::uint64_t counter,
           std::uint8_t out[64]) {
  std::uint32_t state[16];
  InitState(key, nonce, state);
  state[12] = std::uint32_t(counter);
  state[13] = std::uint32_t(counter >> 32);

  std::uint32_t working[16];
  std::memcpy(working, state, sizeof(state));
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = working[i] + state[i];
    std::memcpy(out + 4 * i, &v, 4);
  }
}

/// The scalar reference: one block per iteration.
void XorScalar(const ChaChaKey& key, std::uint64_t nonce,
               std::uint64_t stream_offset, std::span<std::byte> data) {
  std::uint8_t block[64];
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = stream_offset + done;
    const std::uint64_t counter = pos / 64;
    const std::uint64_t within = pos % 64;
    Block(key, nonce, counter, block);
    const std::size_t n =
        std::min<std::size_t>(data.size() - done, 64 - within);
    for (std::size_t i = 0; i < n; ++i) {
      data[done + i] ^= std::byte(block[within + i]);
    }
    done += n;
  }
}

// ---- Multi-block kernel -------------------------------------------------
//
// Structure-of-arrays form: vector x[i] holds state word i of N consecutive
// blocks, one block per lane, so the 20 rounds run on N blocks with the
// scalar code's operations. One body serves every width; the wrappers
// below compile it for the instruction set each width needs. Written with
// GCC/Clang vector extensions and __builtin_shufflevector (GCC >= 12).

template <int N>
struct Vec {
  typedef std::uint32_t U32 __attribute__((vector_size(4 * N)));
};
using U32x4 = Vec<4>::U32;

/// Shuffle index `e` of the per-128-bit-lane unpack that interleaves
/// `kWidth`-word chunks of a (even chunks) and b (odd chunks) from the low
/// (kHigh = 0) or high (kHigh = 1) half of each lane; b's indices start
/// at `n`. kWidth 1 is punpck{l,h}dq, kWidth 2 is punpck{l,h}qdq.
template <int kWidth, int kHigh>
constexpr int UnpackIndex(int e, int n) {
  const int lane = e / 4 * 4;
  const int chunk = e % 4 / kWidth;
  const int word = lane + 2 * kHigh + chunk / 2 * kWidth + e % kWidth;
  return chunk % 2 == 0 ? word : n + word;
}

template <int kWidth, int kHigh, int N, int... I>
[[gnu::always_inline]] inline void Unpack(const typename Vec<N>::U32& a,
                                          const typename Vec<N>::U32& b,
                                          typename Vec<N>::U32& out,
                                          std::integer_sequence<int, I...>) {
  out = __builtin_shufflevector(a, b, UnpackIndex<kWidth, kHigh>(I, N)...);
}

/// x <<<= kBits in every lane.
template <int kBits, int N>
[[gnu::always_inline]] inline void RotlV(typename Vec<N>::U32& x) {
  x = (x << kBits) | (x >> (32 - kBits));
}

template <int N>
[[gnu::always_inline]] inline void QuarterRoundV(typename Vec<N>::U32& a,
                                                 typename Vec<N>::U32& b,
                                                 typename Vec<N>::U32& c,
                                                 typename Vec<N>::U32& d) {
  a += b; d ^= a; RotlV<16, N>(d);
  c += d; b ^= c; RotlV<12, N>(b);
  a += b; d ^= a; RotlV<8, N>(d);
  c += d; b ^= c; RotlV<7, N>(b);
}

/// XORs N whole keystream blocks, starting at the block-aligned absolute
/// position `pos`, into the N * 64 bytes at `data`.
template <int N>
[[gnu::always_inline]] inline void XorPass(const std::uint32_t state[16],
                                           std::uint64_t pos,
                                           std::byte* data) {
  using V = typename Vec<N>::U32;
  V input[16];
  for (int i = 0; i < 16; ++i) input[i] = V{} + state[i];
  // Lane j is block (pos + 64 j) / 64, wrapping mod 2^64 exactly as the
  // scalar loop's `stream_offset + done` does.
  std::uint32_t lo[N];
  std::uint32_t hi[N];
  for (int j = 0; j < N; ++j) {
    const std::uint64_t counter = (pos + 64 * std::uint64_t(j)) / 64;
    lo[j] = std::uint32_t(counter);
    hi[j] = std::uint32_t(counter >> 32);
  }
  std::memcpy(&input[12], lo, sizeof(V));
  std::memcpy(&input[13], hi, sizeof(V));

  V x[16];
  for (int i = 0; i < 16; ++i) x[i] = input[i];
  for (int round = 0; round < 10; ++round) {
    QuarterRoundV<N>(x[0], x[4], x[8], x[12]);
    QuarterRoundV<N>(x[1], x[5], x[9], x[13]);
    QuarterRoundV<N>(x[2], x[6], x[10], x[14]);
    QuarterRoundV<N>(x[3], x[7], x[11], x[15]);
    QuarterRoundV<N>(x[0], x[5], x[10], x[15]);
    QuarterRoundV<N>(x[1], x[6], x[11], x[12]);
    QuarterRoundV<N>(x[2], x[7], x[8], x[13]);
    QuarterRoundV<N>(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += input[i];

  // Transpose each 4x4 tile of words within every 128-bit lane: afterwards
  // 128-bit lane k of out[m] holds words 4g..4g+3 of block 4k + m, which
  // are XORed into the data 16 bytes at a time.
  const auto seq = std::make_integer_sequence<int, N>();
  for (int g = 0; g < 4; ++g) {
    V t[4];
    Unpack<1, 0, N>(x[4 * g], x[4 * g + 1], t[0], seq);
    Unpack<1, 0, N>(x[4 * g + 2], x[4 * g + 3], t[1], seq);
    Unpack<1, 1, N>(x[4 * g], x[4 * g + 1], t[2], seq);
    Unpack<1, 1, N>(x[4 * g + 2], x[4 * g + 3], t[3], seq);
    V out[4];
    Unpack<2, 0, N>(t[0], t[1], out[0], seq);
    Unpack<2, 1, N>(t[0], t[1], out[1], seq);
    Unpack<2, 0, N>(t[2], t[3], out[2], seq);
    Unpack<2, 1, N>(t[2], t[3], out[3], seq);
    for (int m = 0; m < 4; ++m) {
      for (int k = 0; k < N / 4; ++k) {
        std::byte* p = data + 64 * (4 * k + m) + 16 * g;
        U32x4 keystream;
        U32x4 word;
        std::memcpy(&keystream, reinterpret_cast<const char*>(&out[m]) + 16 * k,
                    sizeof(U32x4));
        std::memcpy(&word, p, sizeof(U32x4));
        word ^= keystream;
        std::memcpy(p, &word, sizeof(U32x4));
      }
    }
  }
}

using PassFn = void (*)(const std::uint32_t state[16], std::uint64_t pos,
                        std::byte* data);

void Pass4(const std::uint32_t state[16], std::uint64_t pos,
           std::byte* data) {
  XorPass<4>(state, pos, data);
}

#ifdef __x86_64__
// Only called once the runtime CPUID check has passed.
__attribute__((target("avx2"))) void Pass8(const std::uint32_t state[16],
                                            std::uint64_t pos,
                                            std::byte* data) {
  XorPass<8>(state, pos, data);
}

__attribute__((target("avx512f"))) void Pass16(const std::uint32_t state[16],
                                               std::uint64_t pos,
                                               std::byte* data) {
  XorPass<16>(state, pos, data);
}
#endif  // __x86_64__

/// ChaCha20Xor with `Pass` for each run of kLanes whole blocks and the
/// scalar reference for a partial first block and the last < kLanes blocks.
template <PassFn Pass, int kLanes>
void XorLanes(const ChaChaKey& key, std::uint64_t nonce,
              std::uint64_t stream_offset, std::span<std::byte> data) {
  constexpr std::size_t kPassBytes = 64 * kLanes;
  std::size_t done =
      std::min<std::size_t>(data.size(), (64 - stream_offset % 64) % 64);
  XorScalar(key, nonce, stream_offset, data.first(done));
  std::uint32_t state[16];
  InitState(key, nonce, state);
  for (; data.size() - done >= kPassBytes; done += kPassBytes) {
    Pass(state, stream_offset + done, data.data() + done);
  }
  XorScalar(key, nonce, stream_offset + done, data.subspan(done));
}

}  // namespace

namespace detail {

std::span<const ChaChaWidth> ChaChaWidths() {
  static const ChaChaWidth kWidths[] = {
      {1, true, &XorScalar},
      {4, true, &XorLanes<Pass4, 4>},
#ifdef __x86_64__
      {8, bool(__builtin_cpu_supports("avx2")), &XorLanes<Pass8, 8>},
      {16, bool(__builtin_cpu_supports("avx512f")), &XorLanes<Pass16, 16>},
#endif
  };
  return kWidths;
}

const ChaChaWidth& ChaChaSelected() {
  const std::span<const ChaChaWidth> widths = ChaChaWidths();
  return *std::find_if(widths.rbegin(), widths.rend(),
                       [](const ChaChaWidth& w) { return w.runnable; });
}

}  // namespace detail

void ChaCha20Xor(const ChaChaKey& key, std::uint64_t nonce,
                 std::uint64_t stream_offset, std::span<std::byte> data) {
  static const auto xor_fn = detail::ChaChaSelected().xor_fn;
  xor_fn(key, nonce, stream_offset, data);
}

std::uint64_t DeriveNonce(std::uint64_t hi, std::uint64_t lo) {
  std::uint64_t x = hi * 0x9E3779B97F4A7C15ull ^ (lo + 0xD1B54A32D192ED03ull);
  x ^= x >> 32;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 29;
  return x;
}

}  // namespace ros2::core
