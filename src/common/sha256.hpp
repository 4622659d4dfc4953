// SHA-256 (FIPS 180-4), implemented from scratch so container digests are
// content-addressed without an external crypto dependency.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace xaas::common {

namespace detail {
/// Compresses `blocks` consecutive 64-byte blocks into `state`.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks);

/// Portable compression: the fallback, and the reference the hardware
/// path is tested against.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

/// Compression with the x86 SHA extensions, or nullptr when CPUID does not
/// report both SHA and SSE4.1 (and on other architectures).
Sha256Compress sha256_compress_hardware();
}  // namespace detail

/// Incremental SHA-256 hasher. Whole blocks are compressed with the CPU's
/// SHA instructions when it has them, else portably; both give the same
/// digest.
///
/// Usage:
///   Sha256 h;
///   h.update("abc");
///   std::string digest = h.hex_digest();
class Sha256 {
public:
  Sha256();
  /// Hash with a specific compress function (tests pin each path).
  explicit Sha256(detail::Sha256Compress compress);

  /// Absorb more bytes. May be called repeatedly.
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Finalize and return the 32-byte digest. The hasher must not be
  /// updated afterwards.
  std::array<std::uint8_t, 32> digest();

  /// Finalize and return the digest as a 64-character lowercase hex string.
  std::string hex_digest();

private:
  detail::Sha256Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffer_len_ = 0;
  bool finalized_ = false;
};

/// One-shot convenience: hex SHA-256 of a byte string.
std::string sha256_hex(std::string_view data);

}  // namespace xaas::common
