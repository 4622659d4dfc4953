#include "common/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace xaas::common {
namespace {

// NIST FIPS 180-4 / CAVP SHA256ShortMsg known answers. Their lengths
// straddle the padding boundary and take the direct-from-input block path
// at several alignments.
struct KnownAnswer {
  std::string message;
  const char* digest;
};

const std::vector<KnownAnswer>& known_answers() {
  static const std::vector<KnownAnswer> answers = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      // 896-bit FIPS 180-4 example: two blocks via the direct path.
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {"a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"},
      {"message digest",
       "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650"},
      {"abcdefghijklmnopqrstuvwxyz",
       "71c480df93d6ae2f1efad1447c66c9525e316218cf51fc8d9ed832f2daf18b73"},
      // Exactly one block (64 bytes) and two blocks (128 bytes) of zeros.
      {std::string(64, '\0'),
       "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"},
      {std::string(128, '\0'),
       "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  return answers;
}

std::string hex_with(detail::Sha256Compress compress, std::string_view data) {
  Sha256 h(compress);
  h.update(data);
  return h.hex_digest();
}

/// Hash `data` fed in random chunks of 0..200 bytes, so updates start and
/// end at every offset within a block.
std::string hex_chunked(detail::Sha256Compress compress, std::string_view data,
                        Rng& rng) {
  Sha256 h(compress);
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(rng.next_below(201), data.size() - off);
    h.update(data.substr(off, chunk));
    off += chunk;
  }
  return h.hex_digest();
}

void expect_known_answers(detail::Sha256Compress compress) {
  for (const auto& [message, digest] : known_answers()) {
    EXPECT_EQ(hex_with(compress, message), digest) << message.size();
  }
}

/// Seeded differential against the portable reference: every length
/// 0..300 and 1 MiB, each side fed in its own random chunking.
void expect_matches_portable(detail::Sha256Compress compress) {
  Rng rng(0x5a256);
  std::vector<std::size_t> lengths(301);
  for (std::size_t n = 0; n <= 300; ++n) lengths[n] = n;
  lengths.push_back(std::size_t{1} << 20);
  for (const std::size_t n : lengths) {
    std::string data(n, '\0');
    for (auto& c : data) c = static_cast<char>(rng.next_u64());
    const std::string expect =
        hex_chunked(&detail::sha256_compress_portable, data, rng);
    EXPECT_EQ(hex_with(compress, data), expect) << n;
    EXPECT_EQ(hex_chunked(compress, data, rng), expect) << n;
  }
}

TEST(Sha256, KnownAnswerVectors) {
  for (const auto& [message, digest] : known_answers()) {
    EXPECT_EQ(sha256_hex(message), digest) << message.size();
  }
}

TEST(Sha256, PortableCompressKnownAnswers) {
  expect_known_answers(&detail::sha256_compress_portable);
}

TEST(Sha256, HardwareCompressKnownAnswers) {
  const detail::Sha256Compress hardware = detail::sha256_compress_hardware();
  if (!hardware) GTEST_SKIP() << "CPUID reports no SHA or no SSE4.1";
  expect_known_answers(hardware);
}

TEST(Sha256, HardwareCompressMatchesPortable) {
  const detail::Sha256Compress hardware = detail::sha256_compress_hardware();
  if (!hardware) GTEST_SKIP() << "CPUID reports no SHA or no SSE4.1";
  expect_matches_portable(hardware);
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : data) h.update(&c, 1);
  EXPECT_EQ(h.hex_digest(), sha256_hex(data));
}

TEST(Sha256, ExactBlockBoundary) {
  const std::string block(64, 'x');
  const std::string two_blocks(128, 'x');
  EXPECT_NE(sha256_hex(block), sha256_hex(two_blocks));
  // 55/56/57 bytes straddle the padding boundary.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string msg(n, 'y');
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(h.hex_digest(), sha256_hex(msg)) << n;
  }
}

TEST(Sha256, MixedChunkSizesMatchOneShot) {
  // Feed the same 1000-byte message in awkward chunk sizes so updates
  // straddle the staging buffer / direct-block boundary in every way.
  std::string data(1000, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  const std::string expect = sha256_hex(data);
  for (std::size_t chunk : {1u, 3u, 63u, 64u, 65u, 127u, 128u, 200u, 999u}) {
    Sha256 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.update(data.substr(off, chunk));
    }
    EXPECT_EQ(h.hex_digest(), expect) << chunk;
  }
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(sha256_hex("a"), sha256_hex("b"));
  EXPECT_NE(sha256_hex("content-a"), sha256_hex("content-b"));
}

TEST(Sha256, DigestIs64HexChars) {
  const std::string d = sha256_hex("anything");
  ASSERT_EQ(d.size(), 64u);
  for (char c : d) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

}  // namespace
}  // namespace xaas::common
