#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "util/errors.hpp"

#include <string>

namespace hammer::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(digest_hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(digest_hex(sha256(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  // Feed in awkward chunk sizes that straddle the 64-byte block boundary.
  for (std::size_t chunk : {1u, 3u, 7u, 63u, 64u, 65u}) {
    Sha256 h;
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      h.update(std::string_view(msg).substr(i, chunk));
    }
    EXPECT_EQ(h.finish(), sha256(msg)) << "chunk=" << chunk;
  }
}

TEST(Sha256Test, ExactBlockBoundaryLengths) {
  // Lengths around the padding edges: 55 bytes is the longest message whose
  // padding fits its last block, 56..63 spill into one more block. Digests
  // of `len` 'x' bytes from an independent implementation (Python hashlib).
  const std::pair<std::size_t, const char*> vectors[] = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
      {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464"},
  };
  for (const auto& [len, hex] : vectors) {
    std::string input(len, 'x');
    EXPECT_EQ(digest_hex(sha256(input)), hex) << "len=" << len;
    // Byte-at-a-time streaming ends on every buffer fill level.
    Sha256 h;
    for (char c : input) h.update(std::string_view(&c, 1));
    EXPECT_EQ(digest_hex(h.finish()), hex) << "len=" << len;
  }
}

TEST(Sha256Test, ReuseAfterFinishThrows) {
  Sha256 h;
  h.update("x");
  h.finish();
  EXPECT_THROW(h.update("y"), hammer::LogicError);
  EXPECT_THROW(h.finish(), hammer::LogicError);
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256Test, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  std::string msg = "Hi There";
  Digest d = hmac_sha256(key, std::span<const std::uint8_t>(
                                  reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(d),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  std::string key = "Jefe";
  std::string msg = "what do ya want for nothing?";
  Digest d = hmac_sha256(
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst) {
  std::vector<std::uint8_t> key(131, 0xaa);
  std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  Digest d = hmac_sha256(key, std::span<const std::uint8_t>(
                                  reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(d),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

}  // namespace
}  // namespace hammer::crypto
