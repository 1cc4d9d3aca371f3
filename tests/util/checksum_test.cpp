#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bw::util {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // The iSCSI/RFC 3720 check value for the classic "123456789" vector.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  // 32 zero bytes (RFC 3720 appendix B.4 test pattern).
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(crc32c("", 0), 0u);
  Crc32c crc;
  EXPECT_EQ(crc.value(), 0u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data =
      "Down the Black Hole: Dismantling Operational Practices of BGP "
      "Blackholing at IXPs";
  const std::uint32_t expected = crc32c(data);
  // Every split point must give the same answer as the one-shot call.
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32c crc;
    crc.update(data.data(), split);
    crc.update(data.data() + split, data.size() - split);
    EXPECT_EQ(crc.value(), expected) << "split at " << split;
  }
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // The bit-at-a-time definition, against which both folds — the sliced
  // tables and, where the CPU has it, the SSE4.2 instruction — and the
  // one Crc32c picks are checked over unaligned starts and every tail
  // length.
  const auto reference = [](const unsigned char* p, std::size_t n) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  std::vector<unsigned char> bytes(128);
  std::uint32_t x = 12345;
  for (auto& b : bytes) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 16);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; offset + n <= bytes.size(); ++n) {
      const std::uint32_t want = reference(bytes.data() + offset, n);
      EXPECT_EQ(crc32c(bytes.data() + offset, n), want)
          << "offset " << offset << " length " << n;
      for (const bool hardware : {false, true}) {
        if (hardware && !crc32c_detail::hardware_available()) continue;
        EXPECT_EQ(crc32c_detail::fold(0xFFFFFFFFu, bytes.data() + offset, n,
                                      hardware) ^
                      0xFFFFFFFFu,
                  want)
            << (hardware ? "hardware" : "table") << " fold, offset "
            << offset << " length " << n;
      }
    }
  }
}

TEST(Crc32cTest, ResetStartsOver) {
  Crc32c crc;
  crc.update("garbage", 7);
  crc.reset();
  crc.update("123456789", 9);
  EXPECT_EQ(crc.value(), 0xE3069283u);
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::string data(64, 'x');
  const std::uint32_t clean = crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(crc32c(data), clean) << "byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

}  // namespace
}  // namespace bw::util
