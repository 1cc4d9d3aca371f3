#include "util/container.hpp"

#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>
#include <vector>

namespace bw::util::container {

namespace {

template <typename T>
void append_raw(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T read_raw(const char*& p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  p += sizeof(v);
  return v;
}

std::string header_bytes() {
  std::string h;
  append_raw(h, kMagic);
  append_raw(h, kVersion);
  append_raw(h, std::uint32_t{0});  // flags
  return h;
}

std::string toc_entry_bytes(const Section& s) {
  std::string e;
  append_raw(e, s.id);
  append_raw(e, std::uint32_t{0});  // reserved
  append_raw(e, s.offset);
  append_raw(e, s.length);
  append_raw(e, s.crc);
  return e;
}

}  // namespace

std::string section_name(std::uint32_t id) {
  std::string name;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xFFu);
    name += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name;
}

const Section* Toc::find(std::uint32_t id) const {
  for (const auto& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

Writer::Writer(std::ostream& os) : os_(os) {
  const std::string h = header_bytes();
  os_.write(h.data(), static_cast<std::streamsize>(h.size()));
  meta_crc_.update(h.data(), h.size());
  written_ = h.size();
}

void Writer::begin_section(std::uint32_t id) {
  Section s;
  s.id = id;
  s.offset = written_;
  sections_.push_back(s);
  section_crc_.reset();
  in_section_ = true;
}

void Writer::write(const void* data, std::size_t n) {
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  section_crc_.update(data, n);
  written_ += n;
}

void Writer::end_section() {
  Section& s = sections_.back();
  s.length = written_ - s.offset;
  s.crc = section_crc_.value();
  in_section_ = false;
}

Status Writer::finish() {
  if (in_section_ || finished_) {
    return internal_error("container::Writer: finish() out of sequence");
  }
  finished_ = true;
  std::string toc;
  for (const auto& s : sections_) toc += toc_entry_bytes(s);
  meta_crc_.update(toc.data(), toc.size());

  std::string footer;
  append_raw(footer, static_cast<std::uint32_t>(sections_.size()));
  append_raw(footer, meta_crc_.value());
  append_raw(footer, written_);  // toc_offset
  append_raw(footer,
             written_ + static_cast<std::uint64_t>(toc.size()) + kFooterBytes);
  append_raw(footer, kFooterMagic);

  os_.write(toc.data(), static_cast<std::streamsize>(toc.size()));
  os_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  if (!os_) return data_loss("container::Writer: stream write failed");
  return ok_status();
}

Result<Toc> read_toc(std::istream& is, std::uint64_t file_size) {
  if (file_size < kHeaderBytes + kFooterBytes) {
    return data_loss("container: file too small for header and footer (" +
                     std::to_string(file_size) + " bytes)");
  }

  // Header first: distinguishes "not a container at all" and the retired
  // versions from a truncated or damaged container.
  char header[kHeaderBytes];
  is.seekg(0, std::ios::beg);
  is.read(header, static_cast<std::streamsize>(kHeaderBytes));
  if (!is) return data_loss("container: cannot read header");
  const char* hp = header;
  const std::uint64_t magic = read_raw<std::uint64_t>(hp);
  const std::uint32_t version = read_raw<std::uint32_t>(hp);
  const std::string_view magic_text(header, 8);
  if (magic_text == "bwds0001" || magic_text == "bwds0002") {
    // v1 had no checksums; v2 kept the flows in one AoS FLOW section.
    return data_loss("container: legacy v" + std::string(1, magic_text[7]) +
                     " file (" + std::string(magic_text) +
                     "); regenerate it with bw-generate, or rebuild it from "
                     "a CSV export with bw-generate --from-csv");
  }
  if (magic != kMagic) return data_loss("container: bad magic");
  if (version != kVersion) {
    return data_loss("container: unsupported version " +
                     std::to_string(version) + " (expected " +
                     std::to_string(kVersion) + ")");
  }

  char footer[kFooterBytes];
  is.seekg(static_cast<std::streamoff>(file_size - kFooterBytes),
           std::ios::beg);
  is.read(footer, static_cast<std::streamsize>(kFooterBytes));
  if (!is) return data_loss("container: cannot read footer");
  const char* fp = footer;
  const std::uint32_t section_count = read_raw<std::uint32_t>(fp);
  const std::uint32_t meta_crc = read_raw<std::uint32_t>(fp);
  const std::uint64_t toc_offset = read_raw<std::uint64_t>(fp);
  const std::uint64_t recorded_size = read_raw<std::uint64_t>(fp);
  const std::uint32_t footer_magic = read_raw<std::uint32_t>(fp);
  if (footer_magic != kFooterMagic) {
    return data_loss("container: bad footer magic (truncated file?)");
  }
  if (recorded_size != file_size) {
    return data_loss("container: file is " + std::to_string(file_size) +
                     " bytes but the footer committed " +
                     std::to_string(recorded_size));
  }
  Toc toc;
  toc.file_size = file_size;
  const std::uint64_t toc_bytes =
      static_cast<std::uint64_t>(section_count) * kTocEntryBytes;
  if (toc_offset < kHeaderBytes ||
      toc_offset + toc_bytes + kFooterBytes != file_size) {
    return data_loss("container: TOC bounds are inconsistent");
  }

  std::vector<char> toc_raw(toc_bytes);
  is.seekg(static_cast<std::streamoff>(toc_offset), std::ios::beg);
  is.read(toc_raw.data(), static_cast<std::streamsize>(toc_bytes));
  if (!is) return data_loss("container: cannot read TOC");

  Crc32c crc;
  crc.update(header, kHeaderBytes);
  crc.update(toc_raw.data(), toc_raw.size());
  if (crc.value() != meta_crc) {
    return data_loss("container: header/TOC checksum mismatch");
  }

  const char* tp = toc_raw.data();
  for (std::uint32_t i = 0; i < section_count; ++i) {
    Section s;
    s.id = read_raw<std::uint32_t>(tp);
    (void)read_raw<std::uint32_t>(tp);  // reserved
    s.offset = read_raw<std::uint64_t>(tp);
    s.length = read_raw<std::uint64_t>(tp);
    s.crc = read_raw<std::uint32_t>(tp);
    if (s.offset < kHeaderBytes || s.offset > toc_offset ||
        s.length > toc_offset - s.offset) {
      return data_loss("container: section " + section_name(s.id) +
                       " lies outside the payload region");
    }
    toc.sections.push_back(s);
  }
  return toc;
}

Status verify_section(std::istream& is, const Section& section) {
  is.clear();
  is.seekg(static_cast<std::streamoff>(section.offset), std::ios::beg);
  Crc32c crc;
  char buf[1 << 16];
  std::uint64_t left = section.length;
  while (left > 0) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, sizeof(buf)));
    is.read(buf, static_cast<std::streamsize>(n));
    if (!is) {
      return data_loss("container: section " + section_name(section.id) +
                       " truncated");
    }
    crc.update(buf, n);
    left -= n;
  }
  if (crc.value() != section.crc) {
    return data_loss("container: section " + section_name(section.id) +
                     " checksum mismatch");
  }
  is.seekg(static_cast<std::streamoff>(section.offset), std::ios::beg);
  return ok_status();
}

}  // namespace bw::util::container
