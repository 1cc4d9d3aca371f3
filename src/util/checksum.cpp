#include "util/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace bw::util {

namespace {

/// Reflected CRC32C tables (polynomial 0x1EDC6F41, reflected 0x82F63B78),
/// generated at compile time — no magic blob to rot in the source. Table 0
/// is the classic byte-at-a-time table; table k advances a byte through k
/// further zero bytes, so eight lookups fold eight bytes at once
/// ("slicing-by-8").
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Table = std::array<std::uint32_t, 256>;

constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = make_tables();

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes this very CRC, reflected, so it
// folds the same state the tables do.
__attribute__((target("sse4.2"))) std::uint32_t fold_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t n) noexcept {
  std::uint64_t wide = crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<std::uint32_t>(wide);
  for (; n > 0; --n, ++p) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

}  // namespace

namespace crc32c_detail {

bool hardware_available() noexcept {
#if defined(__x86_64__)
  static const bool available =
      (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2") != 0);
  return available;
#else
  return false;
#endif
}

std::uint32_t fold(std::uint32_t state, const void* data, std::size_t n,
                   [[maybe_unused]] bool hardware) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (hardware) return fold_sse42(state, p, n);
#endif
  std::uint32_t crc = state;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      std::uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const auto lo = static_cast<std::uint32_t>(word) ^ crc;
      const auto hi = static_cast<std::uint32_t>(word >> 32);
      crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return crc;
}

}  // namespace crc32c_detail

void Crc32c::update(const void* data, std::size_t n) noexcept {
  state_ = crc32c_detail::fold(state_, data, n,
                               crc32c_detail::hardware_available());
}

std::uint32_t crc32c(const void* data, std::size_t n) noexcept {
  Crc32c c;
  c.update(data, n);
  return c.value();
}

}  // namespace bw::util
