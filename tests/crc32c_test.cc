// CRC32C: published vectors, kernel cross-checks on every seam length, and
// streaming/one-shot equivalence.

#include "bitmap/crc32c.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bix {
namespace {

uint32_t CrcOf(const std::string& s) { return Crc32c(s.data(), s.size()); }

TEST(Crc32cTest, Rfc3720Vectors) {
  // The check value every CRC32C implementation must reproduce.
  EXPECT_EQ(CrcOf("123456789"), 0xE3069283u);
  // iSCSI test patterns (RFC 3720 B.4).
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; ++i) descending[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(Crc32c(descending.data(), descending.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0x12345678u, nullptr, 0), 0x12345678u);
}

TEST(Crc32cTest, KernelsAgreeOnEverySeamLength) {
  // The hardware kernel has head/body/tail seams at 8-byte alignment; the
  // portable kernel at 8-byte strides.  Exercise every length 0..64 at
  // every starting alignment 0..7 and require identical inverted states.
  std::vector<uint8_t> buf(64 + 8);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2; portable kernel is the only implementation";
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      uint32_t p = crc32c_internal::PortableUpdate(~0u, buf.data() + align, len);
      uint32_t h = crc32c_internal::HardwareUpdate(~0u, buf.data() + align, len);
      ASSERT_EQ(p, h) << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32cTest, ExtendChainsEqualOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789 the quick";
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32c(data.data(), split);
    uint32_t chained = Crc32cExtend(part, data.data() + split,
                                    data.size() - split);
    ASSERT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::vector<uint8_t> buf(257, 0xA5);
  uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t byte : {size_t{0}, size_t{1}, size_t{128}, size_t{256}}) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32c(buf.data(), buf.size()), base)
          << "byte=" << byte << " bit=" << bit;
      buf[byte] ^= static_cast<uint8_t>(1 << bit);
    }
  }
}

std::vector<uint8_t> PseudoRandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> buf(n);
  uint64_t x = seed;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x >> 24);
  }
  return buf;
}

TEST(Crc32cTest, CombineEqualsOneShotAtEverySplit) {
  const std::vector<uint8_t> buf =
      PseudoRandomBytes(9000, 0x2545F4914F6CDD1Dull);
  // The full 9000 bytes at every split point, and shorter prefixes (block
  // sizes and their neighbours) at every seventh.
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{4096},
                     size_t{4097}, size_t{9000}}) {
    const uint32_t whole = Crc32c(buf.data(), len);
    for (size_t split = 0; split <= len; ++split) {
      if (len != 9000 && split % 7 != 0 && split != len) continue;
      const uint32_t a = Crc32c(buf.data(), split);
      const uint32_t b = Crc32c(buf.data() + split, len - split);
      ASSERT_EQ(Crc32cCombine(a, b, len - split), whole)
          << "len=" << len << " split=" << split;
    }
  }
  // Combining many blocks left to right, as a blob file's verifier does.
  uint32_t acc = 0;
  for (size_t begin = 0; begin < buf.size(); begin += 4096) {
    const size_t n = std::min<size_t>(4096, buf.size() - begin);
    acc = Crc32cCombine(acc, Crc32c(buf.data() + begin, n), n);
  }
  EXPECT_EQ(acc, Crc32c(buf.data(), buf.size()));
  // An empty second part leaves the first checksum as it is.
  EXPECT_EQ(Crc32cCombine(0x12345678u, 0, 0), 0x12345678u);
}

TEST(Crc32cTest, TripleKernelEqualsPortableAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> buf = PseudoRandomBytes(3 * 256 + 64, 77);
  for (size_t len = 0; len <= 200; ++len) {
    for (size_t align = 0; align < 8; ++align) {
      // Three streams at three different alignments.
      const uint8_t* data[3] = {buf.data() + align,
                                buf.data() + 256 + (align + 3) % 8,
                                buf.data() + 512 + (align + 5) % 8};
      uint32_t crcs[3];
      Crc32cTriple(data, len, crcs);
      uint32_t state[3] = {~0u, ~0u, ~0u};
      if (crc32c_internal::HardwareAvailable()) {
        crc32c_internal::HardwareUpdate3(state, data, len);
      } else {
        for (int k = 0; k < 3; ++k) {
          state[k] = crc32c_internal::PortableUpdate(~0u, data[k], len);
        }
      }
      for (int k = 0; k < 3; ++k) {
        const uint32_t want =
            crc32c_internal::PortableUpdate(~0u, data[k], len);
        ASSERT_EQ(state[k], want)
            << "len=" << len << " align=" << align << " stream=" << k;
        ASSERT_EQ(crcs[k], ~want)
            << "len=" << len << " align=" << align << " stream=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace bix
