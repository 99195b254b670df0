// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for transaction ids, block hashes and merkle trees so that the
// simulated chains have realistic, collision-resistant identifiers.
//
// The compression function runs on the x86-64 SHA extensions (SHA-NI)
// when CPUID reports them, and otherwise on a portable scalar kernel,
// which is also the reference the tests compare the hardware kernel
// against. The choice is made once per process; there is no knob.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace txconc {

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.update(part1);
///   h.update(part2);
///   auto digest = h.finalize();   // 32 bytes
///
/// finalize() may be called once; the object is then exhausted.
class Sha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  Sha256();

  /// Absorb more input.
  void update(std::span<const std::uint8_t> data);

  /// Pad, finish, and return the digest.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);

  /// Double SHA-256 (Bitcoin-style txid construction).
  static Digest hash_twice(std::span<const std::uint8_t> data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t bit_length_ = 0;
  std::size_t buffer_used_ = 0;
};

}  // namespace txconc
