// CRC32C (Castagnoli) checksums for on-disk integrity frames.
//
// The binary dataset container and the scenario cache live on disk for the
// full length of a measurement campaign; truncation, torn writes, and bit
// rot must be *detected*, never decoded. CRC32C is the conventional storage
// checksum (iSCSI, ext4, LevelDB). An x86-64 CPU with SSE4.2 folds eight
// bytes per `crc32` instruction; any other CPU takes the portable
// slicing-by-8 table fold, which gives the same values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bw::util {

/// Incremental CRC32C accumulator.
class Crc32c {
 public:
  /// Fold `n` bytes into the running checksum.
  void update(const void* data, std::size_t n) noexcept;

  /// The checksum of everything folded in so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ kXorOut; }

  void reset() noexcept { state_ = kXorOut; }

 private:
  static constexpr std::uint32_t kXorOut = 0xFFFFFFFFu;
  std::uint32_t state_{kXorOut};
};

/// Crc32c::update's fold over the raw (pre-XOR) state, exposed so tests
/// can check both paths against the definition: the SSE4.2 instruction
/// when `hardware` (only where hardware_available()), else the tables.
namespace crc32c_detail {
[[nodiscard]] bool hardware_available() noexcept;
[[nodiscard]] std::uint32_t fold(std::uint32_t state, const void* data,
                                 std::size_t n, bool hardware) noexcept;
}  // namespace crc32c_detail

/// One-shot CRC32C of a byte range.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t n) noexcept;

[[nodiscard]] inline std::uint32_t crc32c(std::string_view bytes) noexcept {
  return crc32c(bytes.data(), bytes.size());
}

}  // namespace bw::util
