// Checksummed sectioned file container: the framing of .bwds v3.
//
// Layout (all integers little-endian, host-endian assumed homogeneous):
//
//   header   u64 magic "bwds0003"  u32 version(3)  u32 flags(0)
//   payloads section payload blobs, back to back
//   TOC      per section: u32 id  u32 reserved  u64 offset  u64 length
//            u32 crc32c(payload)                               (28 bytes)
//   footer   u32 section_count  u32 crc32c(header ‖ TOC)
//            u64 toc_offset  u64 file_size  u32 magic "bwnd"   (28 bytes)
//
// The TOC lives at the *end* so writers stream payloads without seeking —
// exactly what the atomic temp-then-rename commit wants. Every byte of the
// file is covered by a check: payloads by per-section CRCs, the header and
// TOC by the footer CRC, and the footer fields by cross-validation
// (file_size against the actual size, toc_offset/section_count against the
// bounds, the closing magic literally). Truncation loses the footer, a torn
// in-place write breaks a payload CRC, and a swapped or re-ordered section
// breaks offsets or CRCs — all surfaced as a section-precise util::Status
// instead of a garbage decode.
//
// There is one version. Older headers (bwds0001, bwds0002) are refused by
// read_toc with data_loss naming the version; what the sections mean is the
// caller's business (core/dataset, store/flow_store).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/checksum.hpp"
#include "util/status.hpp"

namespace bw::util::container {

inline constexpr std::uint64_t kMagic = 0x3330303073647762ULL;  // "bwds0003"
inline constexpr std::uint32_t kVersion = 3;
inline constexpr std::uint32_t kFooterMagic = 0x646E7762u;  // "bwnd"
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kTocEntryBytes = 28;
inline constexpr std::size_t kFooterBytes = 28;

/// Four-character section id packed little-endian ("PERI" -> 'P' first).
[[nodiscard]] constexpr std::uint32_t section_id(char a, char b, char c,
                                                 char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

[[nodiscard]] std::string section_name(std::uint32_t id);

struct Section {
  std::uint32_t id{0};
  std::uint64_t offset{0};  ///< payload offset from file start
  std::uint64_t length{0};  ///< payload bytes
  std::uint32_t crc{0};     ///< crc32c of the payload
};

struct Toc {
  std::uint64_t file_size{0};
  std::vector<Section> sections;

  /// First section with `id`, or nullptr.
  [[nodiscard]] const Section* find(std::uint32_t id) const;
};

/// Streaming container writer over a caller-owned ostream. Payload bytes
/// go through write() so lengths and CRCs accumulate without seeking.
class Writer {
 public:
  /// Emits the file header immediately.
  explicit Writer(std::ostream& os);

  void begin_section(std::uint32_t id);
  void write(const void* data, std::size_t n);
  void end_section();

  /// Writes the TOC and footer. Returns the stream's verdict.
  [[nodiscard]] Status finish();

 private:
  std::ostream& os_;
  std::vector<Section> sections_;
  Crc32c meta_crc_;     ///< header ‖ TOC, folded as bytes are emitted
  Crc32c section_crc_;  ///< current section payload
  std::uint64_t written_{0};
  bool in_section_{false};
  bool finished_{false};
};

/// Read and fully validate the footer and TOC of a seekable istream of
/// `file_size` bytes: magics, version, size cross-check, bounds of every
/// section, and the header+TOC checksum. Payload CRCs are NOT checked here
/// (see verify_section) — this call touches only the frame metadata.
[[nodiscard]] Result<Toc> read_toc(std::istream& is, std::uint64_t file_size);

/// Stream `section`'s payload and compare its CRC. Leaves the stream
/// positioned at the section payload start on success.
[[nodiscard]] Status verify_section(std::istream& is, const Section& section);

}  // namespace bw::util::container
