// CRC32C (Castagnoli) checksums for on-disk integrity frames.
//
// The binary dataset container and the scenario cache live on disk for the
// full length of a measurement campaign; truncation, torn writes, and bit
// rot must be *detected*, never decoded. CRC32C is the conventional storage
// checksum (iSCSI, ext4, LevelDB); this is the portable table-driven
// implementation, folding eight bytes per step (slicing-by-8) — fast
// enough to be invisible next to the disk and the chunk decoders.
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

/// One-shot CRC32C of a byte range.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t n) noexcept;

[[nodiscard]] inline std::uint32_t crc32c(std::string_view bytes) noexcept {
  return crc32c(bytes.data(), bytes.size());
}

}  // namespace bw::util
