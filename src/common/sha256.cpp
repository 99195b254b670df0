#include "common/sha256.h"

#include <bit>
#include <cstring>

#include "common/hot_path.h"
#include "common/sha256_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace txconc {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// The kernel every Sha256 uses, chosen once per process from CPUID.
sha256_kernels::Compress compress() {
  static const sha256_kernels::Compress kernel =
      sha256_kernels::has_sha_ni() ? sha256_kernels::compress_sha_ni
                                   : sha256_kernels::compress_scalar;
  return kernel;
}

}  // namespace

namespace sha256_kernels {

TXCONC_HOT void compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = load_be32(data + 4 * i);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

// The state lives in two registers in the order sha256rnds2 wants:
// abef = {f, e, b, a} and cdgh = {h, g, d, c} (lowest lane first). Each
// group of four rounds adds its constants to four message words and runs
// two sha256rnds2 steps; groups 4..15 extend the message schedule from
// the previous four groups with sha256msg1/msg2.
TXCONC_HOT __attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int group = 0; group < 16; ++group) {
      __m128i& cur = w[group & 3];
      if (group < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(data + 16 * group)),
            kByteSwap);
      } else {
        const __m128i& prev1 = w[(group - 1) & 3];
        const __m128i& prev2 = w[(group - 2) & 3];
        const __m128i& prev3 = w[(group - 3) & 3];
        cur = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(cur, prev3),
                          _mm_alignr_epi8(prev1, prev2, 4)),
            prev1);
      }
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   kRoundConstants.data() + 4 * group)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#else

bool has_sha_ni() { return false; }

void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) {
  compress_scalar(state, data, blocks);
}

#endif

}  // namespace sha256_kernels

Sha256::Sha256() : state_(kInitialState), buffer_{} {}

TXCONC_HOT void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  bit_length_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_used_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_used_);
    std::memcpy(buffer_.data() + buffer_used_, data.data(), take);
    buffer_used_ += take;
    offset += take;
    if (buffer_used_ < 64) return;
    compress()(state_.data(), buffer_.data(), 1);
    buffer_used_ = 0;
  }
  const std::size_t full_blocks = (data.size() - offset) / 64;
  if (full_blocks > 0) {
    compress()(state_.data(), data.data() + offset, full_blocks);
    offset += 64 * full_blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_used_ = data.size() - offset;
  }
}

TXCONC_HOT Sha256::Digest Sha256::finalize() {
  // Append the 0x80 terminator, zero padding, and the 64-bit bit length.
  buffer_[buffer_used_++] = 0x80;
  if (buffer_used_ > 56) {
    std::memset(buffer_.data() + buffer_used_, 0, 64 - buffer_used_);
    compress()(state_.data(), buffer_.data(), 1);
    buffer_used_ = 0;
  }
  std::memset(buffer_.data() + buffer_used_, 0, 56 - buffer_used_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length_ >> (56 - 8 * i));
  }
  compress()(state_.data(), buffer_.data(), 1);

  Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    store_be32(digest.data() + 4 * i, state_[i]);
  }
  return digest;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256::Digest Sha256::hash_twice(std::span<const std::uint8_t> data) {
  const Digest once = hash(data);
  return hash(once);
}

}  // namespace txconc
