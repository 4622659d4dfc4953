// Non-cryptographic hashing and cache-key helpers shared by the serving
// layer: shard selection in the sharded registry and key derivation in
// the tiered caches. SHA-256 (common/sha256.hpp) stays the
// content-address; FNV-1a is only ever a bucket/shard discriminator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace xaas::common {

/// FNV-1a 64-bit: fast, dependency-free, good avalanche for short keys
/// like digests and tag references.
inline std::uint64_t fnv1a_64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Shard index for a key. `shard_count` must be non-zero; it does not
/// need to be a power of two.
inline std::size_t shard_index(std::string_view key, std::size_t shard_count) {
  return static_cast<std::size_t>(fnv1a_64(key) % shard_count);
}

/// Fold `value` into the running hash `seed` (boost::hash_combine's
/// mix): field-wise hashes of composite cache keys.
inline void hash_mix(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Append one component to a composite cache key. Components are joined
/// with '\x1f' (unit separator), which cannot appear in digests, option
/// names/values, or target strings — so distinct tuples never collide by
/// concatenation.
inline void key_append(std::string& key, std::string_view part) {
  if (!key.empty()) key.push_back('\x1f');
  key.append(part);
}

/// Canonical form of an option-selection map: length-prefixed
/// "<len>:name<len>:value" tokens in key order (std::map iteration
/// order). The length prefixes make the encoding injective for any
/// component content, so two selection maps have equal canonical forms
/// iff they are equal — the specialization-cache correctness contract.
inline std::string canonical_selections(
    const std::map<std::string, std::string>& selections) {
  std::string out;
  const auto append_token = [&out](const std::string& token) {
    out += std::to_string(token.size());
    out.push_back(':');
    out.append(token);
  };
  for (const auto& [name, value] : selections) {
    append_token(name);
    append_token(value);
  }
  return out;
}

}  // namespace xaas::common
