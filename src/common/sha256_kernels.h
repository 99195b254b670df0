// The SHA-256 compression kernels behind Sha256 (private to src/common).
//
// Sha256 picks one kernel at first use from CPUID and calls nothing else;
// this header exists so tests can run both kernels on the same input. It
// is a test seam, not a switch: no caller outside sha256.cpp and the tests
// includes it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace txconc::sha256_kernels {

/// Compress `blocks` consecutive 64-byte blocks into `state` (8 words, the
/// FIPS 180-4 order a..h). Both kernels compute the same function.
using Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);

/// Portable reference kernel; the only one on hosts without SHA-NI.
void compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks);

/// True when the CPU has the SHA extensions plus SSSE3 and SSE4.1 (CPUID
/// leaf 7 EBX bit 29, leaf 1 ECX bits 9 and 19). Always false off x86-64.
bool has_sha_ni();

/// x86-64 SHA-NI kernel. Call it only when has_sha_ni() is true. Off
/// x86-64 it forwards to compress_scalar and is never selected.
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks);

}  // namespace txconc::sha256_kernels
