#include "store/flow_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/checksum.hpp"

namespace bw::store {

namespace {

using util::container::Section;
using util::container::Toc;

template <typename T>
T read_raw(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  p += sizeof(v);
  return v;
}

/// Verify a metadata section's CRC and read its payload into memory.
util::Result<std::vector<std::uint8_t>> read_section(std::istream& is,
                                                     const Toc& toc,
                                                     std::uint32_t id) {
  const Section* section = toc.find(id);
  if (section == nullptr) {
    return util::data_loss("missing section " +
                           util::container::section_name(id));
  }
  if (auto s = util::container::verify_section(is, *section); !s.ok()) {
    return s;
  }
  std::vector<std::uint8_t> payload(section->length);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  if (!is) {
    return util::data_loss("cannot read section " +
                           util::container::section_name(id));
  }
  return payload;
}

util::Result<std::vector<ChunkMeta>> parse_index(
    const std::vector<std::uint8_t>& payload, const char* name) {
  if (payload.size() < sizeof(std::uint64_t)) {
    return util::data_loss(std::string(name) + ": truncated index header");
  }
  const std::uint8_t* p = payload.data();
  const std::uint64_t count = read_raw<std::uint64_t>(p);
  if (payload.size() !=
      sizeof(std::uint64_t) + count * kChunkMetaBytes) {
    return util::data_loss(std::string(name) +
                           ": length does not match entry count");
  }
  std::vector<ChunkMeta> metas;
  metas.reserve(count);
  std::uint64_t next_row = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ChunkMeta m = parse_meta(p);
    p += kChunkMetaBytes;
    if (m.row_begin != next_row) {
      return util::data_loss(std::string(name) +
                             ": chunk row ranges are not contiguous");
    }
    next_row += m.row_count;
    metas.push_back(m);
  }
  return metas;
}

struct CacheMetrics {
  obs::Counter& decoded;
  obs::Counter& cache_hit;
  obs::Counter& evicted;
  obs::Counter& decode_us;
  obs::Counter& crc_us;
  obs::Counter& bytes_decoded;
};

const CacheMetrics& cache_metrics() {
  static const CacheMetrics m{
      obs::Registry::global().counter("store.chunk.decoded"),
      obs::Registry::global().counter("store.chunk.cache_hit"),
      obs::Registry::global().counter("store.chunk.evicted"),
      obs::Registry::global().counter("store.chunk.decode_us"),
      obs::Registry::global().counter("store.chunk.crc_us"),
      obs::Registry::global().counter("store.chunk.bytes_decoded")};
  return m;
}

}  // namespace

std::size_t chunk_rows() {
  constexpr std::size_t kDefault = 128 * 1024;
  const char* env = std::getenv("BW_STORE_CHUNK_ROWS");
  if (env == nullptr || *env == '\0') return kDefault;
  const long v = std::atol(env);
  if (v < 16) return 16;
  if (v > (4L << 20)) return std::size_t{4} << 20;
  return static_cast<std::size_t>(v);
}

ChunkSource& ChunkSource::operator=(ChunkSource&& other) noexcept {
  if (this != &other) {
    this->~ChunkSource();
    fd_ = other.fd_;
    map_ = other.map_;
    size_ = other.size_;
    other.fd_ = -1;
    other.map_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

ChunkSource::~ChunkSource() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), size_);
    map_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<ChunkSource> ChunkSource::open(const std::string& path) {
  ChunkSource src;
  src.fd_ = ::open(path.c_str(), O_RDONLY);
  if (src.fd_ < 0) {
    return util::not_found("ChunkSource: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(src.fd_, &st) != 0) {
    return util::unavailable("ChunkSource: cannot stat " + path);
  }
  src.size_ = static_cast<std::uint64_t>(st.st_size);
  const char* no_mmap = std::getenv("BW_STORE_NO_MMAP");
  const bool want_mmap =
      src.size_ > 0 && (no_mmap == nullptr || *no_mmap == '\0' ||
                        std::strcmp(no_mmap, "0") == 0);
  if (want_mmap) {
    void* map = ::mmap(nullptr, src.size_, PROT_READ, MAP_PRIVATE, src.fd_, 0);
    if (map != MAP_FAILED) {
      src.map_ = static_cast<const std::uint8_t*>(map);
    }
    // MAP_FAILED silently degrades to the pread path.
  }
  return src;
}

const std::uint8_t* ChunkSource::fetch(
    std::uint64_t offset, std::uint64_t length,
    std::vector<std::uint8_t>& scratch) const {
  if (offset > size_ || length > size_ - offset) return nullptr;
  if (map_ != nullptr) return map_ + offset;
  scratch.resize(length);
  std::uint64_t done = 0;
  while (done < length) {
    const ssize_t n =
        ::pread(fd_, scratch.data() + done, length - done,
                static_cast<off_t>(offset + done));
    if (n <= 0) return nullptr;
    done += static_cast<std::uint64_t>(n);
  }
  return scratch.data();
}

util::Result<std::shared_ptr<const FlowStore>> FlowStore::open(
    const std::string& path) {
  const auto ctx = [&path](util::Status s) {
    return std::move(s).with_context("FlowStore::open: " + path);
  };

  std::ifstream is(path, std::ios::binary);
  if (!is) return ctx(util::not_found("cannot open file"));
  is.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(is.tellg());

  auto toc_result = util::container::read_toc(is, file_size);
  if (!toc_result.ok()) return ctx(toc_result.status());
  const Toc& toc = *toc_result;
  if (toc.version != util::container::kVersionV3) {
    return ctx(util::data_loss(
        "v" + std::to_string(toc.version) +
        " container holds no column chunks; migrate it with "
        "`bw-convert <file> --out <file.v3.bwds>`"));
  }

  std::shared_ptr<FlowStore> fs(new FlowStore());
  fs->path_ = path;
  for (const Section& s : toc.sections) {
    if (s.id == kSecChunk) fs->dst_sections_.push_back(s);
    if (s.id == kSecSrcChunk) fs->src_sections_.push_back(s);
  }

  auto smet = read_section(is, toc, kSecStoreMeta);
  if (!smet.ok()) return ctx(smet.status());
  if (smet->size() != 4 * sizeof(std::uint64_t)) {
    return ctx(util::data_loss("SMET: unexpected length"));
  }
  {
    const std::uint8_t* p = smet->data();
    fs->flow_count_ = read_raw<std::uint64_t>(p);
    fs->unknown_mac_flows_ = read_raw<std::uint64_t>(p);
    (void)read_raw<std::uint64_t>(p);  // nominal chunk rows (informational)
    (void)read_raw<std::uint64_t>(p);  // reserved
  }

  auto mdic = read_section(is, toc, kSecMacDict);
  if (!mdic.ok()) return ctx(mdic.status());
  {
    if (mdic->size() < sizeof(std::uint64_t)) {
      return ctx(util::data_loss("MDIC: truncated dictionary header"));
    }
    const std::uint8_t* p = mdic->data();
    const std::uint64_t count = read_raw<std::uint64_t>(p);
    if (mdic->size() != (count + 1) * sizeof(std::uint64_t)) {
      return ctx(util::data_loss("MDIC: length does not match entry count"));
    }
    fs->mac_dict_.resize(count);
    std::memcpy(fs->mac_dict_.data(), p, count * sizeof(std::uint64_t));
    if (!std::is_sorted(fs->mac_dict_.begin(), fs->mac_dict_.end())) {
      return ctx(util::data_loss("MDIC: dictionary is not sorted"));
    }
  }

  auto cidx = read_section(is, toc, kSecChunkIndex);
  if (!cidx.ok()) return ctx(cidx.status());
  auto dst_metas = parse_index(*cidx, "CIDX");
  if (!dst_metas.ok()) return ctx(dst_metas.status());
  fs->dst_metas_ = std::move(*dst_metas);

  auto sidx = read_section(is, toc, kSecSrcIndex);
  if (!sidx.ok()) return ctx(sidx.status());
  auto src_metas = parse_index(*sidx, "SIDX");
  if (!src_metas.ok()) return ctx(src_metas.status());
  fs->src_metas_ = std::move(*src_metas);

  const auto total = [](const std::vector<ChunkMeta>& metas) {
    std::uint64_t rows = 0;
    for (const ChunkMeta& m : metas) rows += m.row_count;
    return rows;
  };
  if (fs->dst_metas_.size() != fs->dst_sections_.size() ||
      fs->src_metas_.size() != fs->src_sections_.size()) {
    return ctx(util::data_loss("index entry count does not match the "
                               "number of chunk sections"));
  }
  if (total(fs->dst_metas_) != fs->flow_count_ ||
      total(fs->src_metas_) != fs->flow_count_) {
    return ctx(
        util::data_loss("index row totals do not match the flow count"));
  }
  for (std::size_t k = 1; k < fs->dst_metas_.size(); ++k) {
    if (fs->dst_metas_[k].row_count != 0 &&
        fs->dst_metas_[k - 1].row_count != 0 &&
        fs->dst_metas_[k].min_ip < fs->dst_metas_[k - 1].max_ip) {
      return ctx(util::data_loss("CIDX: chunks are not sorted by dst"));
    }
  }

  auto source = ChunkSource::open(path);
  if (!source.ok()) return ctx(source.status());
  fs->source_ = std::move(*source);
  fs->cache_ = std::vector<CacheEntry>(fs->dst_metas_.size() +
                                       fs->src_metas_.size());
  return std::shared_ptr<const FlowStore>(std::move(fs));
}

util::Status FlowStore::section_error(std::size_t k, bool src,
                                     util::Status s) const {
  return std::move(s).with_context("FlowStore: " + path_ + ": section " +
                                   (src ? "SCHK" : "CHNK") + "[" +
                                   std::to_string(k) + "]");
}

util::Status FlowStore::decode_checked(
    std::size_t k, bool src,
    const std::function<util::Status(const std::uint8_t*, std::size_t)>&
        decode) const {
  const std::vector<Section>& sections = src ? src_sections_ : dst_sections_;
  const auto ctx = [&](util::Status s) {
    return section_error(k, src, std::move(s));
  };
  if (k >= sections.size()) return ctx(util::internal_error("out of range"));
  const Section& section = sections[k];
  const obs::StopWatch watch;

  std::vector<std::uint8_t> scratch;
  const std::uint8_t* payload =
      source_.fetch(section.offset, section.length, scratch);
  if (payload == nullptr) return ctx(util::data_loss("truncated payload"));

  const obs::StopWatch crc_watch;
  util::Crc32c crc;
  crc.update(payload, section.length);
  cache_metrics().crc_us.add(crc_watch.elapsed_us());
  if (crc.value() != section.crc) {
    return ctx(util::data_loss("checksum mismatch"));
  }

  if (util::Status s = decode(payload, section.length); !s.ok()) {
    return ctx(std::move(s));
  }
  chunks_decoded_.fetch_add(1, std::memory_order_relaxed);
  cache_metrics().decoded.add();
  cache_metrics().bytes_decoded.add(section.length);
  cache_metrics().decode_us.add(watch.elapsed_us());
  return util::ok_status();
}

util::Status FlowStore::try_decode(std::size_t k,
                                   const DstChunkSpans& out) const {
  return decode_checked(
      k, false,
      [&](const std::uint8_t* payload, std::size_t len) -> util::Status {
        if (util::Status s = decode_dst_chunk(payload, len, out); !s.ok()) {
          return s;
        }
        for (std::size_t i = 0; i < out.rows(); ++i) {
          if (out.src_mac_id[i] >= mac_dict_.size() ||
              out.dst_mac_id[i] >= mac_dict_.size()) {
            return util::data_loss("MAC id outside the dictionary");
          }
        }
        return util::ok_status();
      });
}

util::Status FlowStore::try_decode(std::size_t k,
                                   const SrcChunkSpans& out) const {
  return decode_checked(
      k, true, [&](const std::uint8_t* payload, std::size_t len) {
        return decode_src_chunk(payload, len, out);
      });
}

util::Status FlowStore::try_decode(std::size_t k, bool src,
                                   ChunkData& out) const {
  const std::vector<ChunkMeta>& metas = src ? src_metas_ : dst_metas_;
  if (k >= metas.size()) {
    return section_error(k, src, util::internal_error("out of range"));
  }
  const std::size_t rows = metas[k].row_count;
  return src ? try_decode(k, src_spans(out, rows))
             : try_decode(k, dst_spans(out, rows));
}

bool FlowStore::lookup(CacheEntry& e,
                       std::shared_ptr<const ChunkData>& out) const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  if (e.data == nullptr) return false;
  e.stamp = ++cache_clock_;
  out = e.data;
  cache_metrics().cache_hit.add();
  return true;
}

void FlowStore::insert(CacheEntry& e,
                       const std::shared_ptr<const ChunkData>& data) const {
  // Evicted chunks are released after the lock drops: freeing ~6 MB of
  // columns is not work to do while every other thread waits.
  std::vector<std::shared_ptr<const ChunkData>> evicted;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    e.data = data;
    e.bytes = data->footprint_bytes();
    e.stamp = ++cache_clock_;
    cache_bytes_ += e.bytes;
    while (cache_bytes_ > kChunkCacheBudgetBytes) {
      CacheEntry* victim = nullptr;
      for (CacheEntry& c : cache_) {
        if (&c != &e && c.data != nullptr &&
            (victim == nullptr || c.stamp < victim->stamp)) {
          victim = &c;
        }
      }
      if (victim == nullptr) break;  // the new chunk alone is over budget
      cache_bytes_ -= victim->bytes;
      victim->bytes = 0;
      evicted.push_back(std::move(victim->data));
    }
  }
  cache_metrics().evicted.add(evicted.size());
}

util::Status FlowStore::try_chunk(
    std::size_t k, bool src, std::shared_ptr<const ChunkData>& out) const {
  const std::size_t n = src ? src_metas_.size() : dst_metas_.size();
  if (k >= n) {
    return section_error(k, src, util::internal_error("out of range"));
  }
  CacheEntry& e = cache_[src ? dst_metas_.size() + k : k];
  if (lookup(e, out)) return util::ok_status();
  // Single flight: the first thread to miss decodes, the others wait here
  // and then find the chunk resident.
  const std::lock_guard<std::mutex> flight(e.decode);
  if (lookup(e, out)) return util::ok_status();
  auto data = std::make_shared<ChunkData>();
  if (util::Status s = try_decode(k, src, *data); !s.ok()) return s;
  insert(e, data);
  out = std::move(data);
  return util::ok_status();
}

std::size_t FlowStore::cache_bytes() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_bytes_;
}

std::shared_ptr<const ChunkData> FlowStore::chunk(std::size_t k) const {
  std::shared_ptr<const ChunkData> out;
  if (util::Status s = try_chunk(k, false, out); !s.ok()) {
    throw std::runtime_error(s.message());
  }
  return out;
}

std::shared_ptr<const ChunkData> FlowStore::src_chunk(std::size_t k) const {
  std::shared_ptr<const ChunkData> out;
  if (util::Status s = try_chunk(k, true, out); !s.ok()) {
    throw std::runtime_error(s.message());
  }
  return out;
}

}  // namespace bw::store
