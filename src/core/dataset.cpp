#include "core/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/container.hpp"
#include "util/parallel.hpp"

namespace bw::core {

namespace {

/// dataset.{save,load}.{ok,fail,wall_us} plus a latency histogram — the
/// numbers that separate "cache hit" from "regenerate + save" in a run
/// manifest at a glance.
struct IoMetrics {
  obs::Counter* ok;
  obs::Counter* fail;
  obs::Counter* wall_us;
  obs::Histogram* latency;
};

const IoMetrics& io_metrics(const char* op) {
  auto make = [](const std::string& base) {
    auto& reg = obs::Registry::global();
    return IoMetrics{&reg.counter(base + ".ok"), &reg.counter(base + ".fail"),
                     &reg.counter(base + ".wall_us"),
                     &reg.histogram(base + ".latency_us")};
  };
  static const IoMetrics save = make("dataset.save");
  static const IoMetrics load = make("dataset.load");
  return op[0] == 's' ? save : load;
}

void record_io(const IoMetrics& m, bool succeeded, const obs::StopWatch& wall) {
  const std::uint64_t us = wall.elapsed_us();
  (succeeded ? m.ok : m.fail)->add();
  m.wall_us->add(us);
  m.latency->record(us);
}

}  // namespace

Dataset Dataset::from_run(ixp::RunResult run, const ixp::Platform& platform) {
  std::unordered_map<net::Mac, bgp::Asn> macs;
  for (const auto& m : platform.members()) macs[m.port_mac] = m.asn;
  // The platform's origin table is the BGP-derived prefix->origin view the
  // paper resolves source addresses against.
  auto origins = platform.origin_prefix_table();
  return Dataset(std::move(run.control), std::move(run.data), std::move(macs),
                 std::move(origins), platform.config().period);
}

Dataset::Dataset(bgp::UpdateLog control, flow::FlowLog data,
                 std::unordered_map<net::Mac, bgp::Asn> mac_to_asn,
                 std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes,
                 util::TimeRange period, const BuildOptions& options)
    : control_(std::move(control)),
      data_(std::move(data)),
      mac_to_asn_(std::move(mac_to_asn)),
      origin_prefixes_(std::move(origin_prefixes)),
      period_(period) {
  sanitize(options);
  build_indices();
}

namespace {

/// Adjacent input-order time inversions — what an out-of-order feed looks
/// like before the build sorts it.
template <typename Records>
std::size_t count_inversions(const Records& records) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].time < records[i - 1].time) ++n;
  }
  return n;
}

bool flow_records_equal(const flow::FlowRecord& a, const flow::FlowRecord& b) {
  return a.time == b.time && a.src_ip == b.src_ip && a.dst_ip == b.dst_ip &&
         a.proto == b.proto && a.src_port == b.src_port &&
         a.dst_port == b.dst_port && a.src_mac == b.src_mac &&
         a.dst_mac == b.dst_mac && a.packets == b.packets && a.bytes == b.bytes;
}

/// Total order over every FlowRecord field, so exact duplicates sort
/// adjacent and the dedupe pass is thread-count independent.
bool flow_record_less(const flow::FlowRecord& a, const flow::FlowRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.src_ip != b.src_ip) return a.src_ip < b.src_ip;
  if (a.dst_ip != b.dst_ip) return a.dst_ip < b.dst_ip;
  if (a.proto != b.proto) return a.proto < b.proto;
  if (a.src_port != b.src_port) return a.src_port < b.src_port;
  if (a.dst_port != b.dst_port) return a.dst_port < b.dst_port;
  if (a.src_mac != b.src_mac) return a.src_mac < b.src_mac;
  if (a.dst_mac != b.dst_mac) return a.dst_mac < b.dst_mac;
  if (a.packets != b.packets) return a.packets < b.packets;
  return a.bytes < b.bytes;
}

}  // namespace

void Dataset::sanitize(const BuildOptions& options) {
  quality_.reordered_updates = count_inversions(control_);
  quality_.reordered_flows = count_inversions(data_);

  if (options.quarantine_out_of_period) {
    const util::TimeMs lo = period_.begin - options.period_slack;
    const util::TimeMs hi = period_.end + options.period_slack;
    auto out_of_period = [&](util::TimeMs t) { return t < lo || t >= hi; };
    const std::size_t control_before = control_.size();
    std::erase_if(control_,
                  [&](const bgp::Update& u) { return out_of_period(u.time); });
    quality_.out_of_period_updates = control_before - control_.size();
    const std::size_t flows_before = data_.size();
    std::erase_if(data_, [&](const flow::FlowRecord& r) {
      return out_of_period(r.time);
    });
    quality_.out_of_period_flows = flows_before - data_.size();
  }

  if (options.dedupe_flows && !data_.empty()) {
    // Full-key sort makes exact duplicates adjacent; build_indices re-sorts
    // by time afterwards, so the record order analyses see is unchanged.
    util::parallel_sort(util::ThreadPool::global(), data_.begin(), data_.end(),
                        flow_record_less);
    const std::size_t before = data_.size();
    data_.erase(std::unique(data_.begin(), data_.end(), flow_records_equal),
                data_.end());
    quality_.duplicate_flows = before - data_.size();
  }

  // Unattributable MACs (e.g. a damaged MAC table): flows whose handover
  // port — or egress port, blackhole MAC aside — has no member mapping.
  const net::Mac blackhole = net::Mac::blackhole();
  for (const auto& r : data_) {
    const bool src_unknown = mac_to_asn_.find(r.src_mac) == mac_to_asn_.end();
    const bool dst_unknown = r.dst_mac != blackhole &&
                             mac_to_asn_.find(r.dst_mac) == mac_to_asn_.end();
    if (src_unknown || dst_unknown) ++quality_.unknown_mac_flows;
  }
}

namespace {

/// Control-plane time order, withdraws before announces at equal times —
/// shared by the overlapped build and the chunked-open control build so the
/// two modes agree on the update sequence byte-for-byte.
bool control_update_less(const bgp::Update& a, const bgp::Update& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.type == bgp::UpdateType::kWithdraw &&
         b.type == bgp::UpdateType::kAnnounce;
}

}  // namespace

void Dataset::replay_blackholes() {
  blackhole_updates_.clear();
  for (const auto& u : control_) {
    if (!u.is_blackhole()) continue;
    blackhole_updates_.push_back(u);
    if (u.type == bgp::UpdateType::kAnnounce) {
      rs_index_.open(u.prefix, u.time, u.communities, u.sender_asn);
    } else {
      rs_index_.close(u.prefix, u.time);
    }
  }
  rs_index_.finalize(period_.end);
}

std::unordered_map<net::Mac, std::uint32_t> Dataset::member_id_map() {
  // Dense member-source table: ascending unique source ASes, plus the
  // MAC -> dense id map the column build resolves handover MACs through.
  // Iterating a flat per-id array then visits ASes in ascending-ASN order,
  // i.e. exactly the order a std::map<Asn, ...> accumulation produces.
  source_as_.clear();
  source_as_.reserve(mac_to_asn_.size());
  for (const auto& [mac, asn] : mac_to_asn_) source_as_.push_back(asn);
  std::sort(source_as_.begin(), source_as_.end());
  source_as_.erase(std::unique(source_as_.begin(), source_as_.end()),
                   source_as_.end());
  std::unordered_map<net::Mac, std::uint32_t> member_ids;
  member_ids.reserve(mac_to_asn_.size());
  for (const auto& [mac, asn] : mac_to_asn_) {
    member_ids[mac] = static_cast<std::uint32_t>(
        std::lower_bound(source_as_.begin(), source_as_.end(), asn) -
        source_as_.begin());
  }
  return member_ids;
}

std::unordered_map<net::Mac, std::uint32_t> Dataset::build_control_indices() {
  util::ThreadPool& pool = util::ThreadPool::global();
  util::parallel_sort(pool, control_.begin(), control_.end(),
                      control_update_less);
  replay_blackholes();
  // FlatLpm freezes the origin table with last-wins dedupe — exactly the
  // overwrite semantics the trie's insert loop had.
  origin_lpm_ = net::FlatLpm<bgp::Asn>(origin_prefixes_);
  return member_id_map();
}

void Dataset::build_indices() {
  util::ThreadPool& pool = util::ThreadPool::global();

  // Sort the two raw corpora concurrently; each sort is itself parallel.
  // Both comparators, with parallel_sort's stability, yield an order that
  // is independent of the thread count.
  auto control_sorted = pool.submit([&] {
    util::parallel_sort(pool, control_.begin(), control_.end(),
                        control_update_less);
  });
  util::parallel_sort(pool, data_.begin(), data_.end(),
                      [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
                        return a.time < b.time;
                      });
  control_sorted.get();

  // The route-server replay is inherently sequential (open/close state),
  // but it only walks the control plane — overlap it with the trie build
  // and the flow-index sorts below.
  auto blackholes_done = pool.submit([&] { replay_blackholes(); });
  auto lpm_done = pool.submit([&] {
    // FlatLpm freezes the origin table with last-wins dedupe — exactly the
    // overwrite semantics the trie's insert loop had.
    origin_lpm_ = net::FlatLpm<bgp::Asn>(origin_prefixes_);
  });

  by_dst_.resize(data_.size());
  std::vector<std::size_t> by_src(data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) by_dst_[i] = by_src[i] = i;
  // Tie-break on the flow index so the comparators induce a total order:
  // the sorted indices are then unique, i.e. identical at any thread count.
  auto by_dst_done = pool.submit([&] {
    util::parallel_sort(pool, by_dst_.begin(), by_dst_.end(),
                        [this](std::size_t a, std::size_t b) {
                          if (data_[a].dst_ip != data_[b].dst_ip) {
                            return data_[a].dst_ip < data_[b].dst_ip;
                          }
                          if (data_[a].time != data_[b].time) {
                            return data_[a].time < data_[b].time;
                          }
                          return a < b;
                        });
  });
  util::parallel_sort(pool, by_src.begin(), by_src.end(),
                      [this](std::size_t a, std::size_t b) {
                        if (data_[a].src_ip != data_[b].src_ip) {
                          return data_[a].src_ip < data_[b].src_ip;
                        }
                        if (data_[a].time != data_[b].time) {
                          return data_[a].time < data_[b].time;
                        }
                        return a < b;
                      });

  const std::unordered_map<net::Mac, std::uint32_t> member_ids =
      member_id_map();

  by_dst_done.get();
  columns_ = flow::FlowColumns::build(data_, by_dst_, by_src, member_ids,
                                      pool);
  blackholes_done.get();
  lpm_done.get();
}

std::optional<bgp::Asn> Dataset::member_asn(net::Mac mac) const {
  const auto it = mac_to_asn_.find(mac);
  if (it == mac_to_asn_.end()) return std::nullopt;
  return it->second;
}

std::optional<bgp::Asn> Dataset::origin_asn(net::Ipv4 src) const {
  const bgp::Asn* asn = origin_lpm_.match(src);
  if (asn == nullptr) return std::nullopt;
  return *asn;
}

std::vector<std::size_t> Dataset::flows_to(const net::Prefix& prefix,
                                           util::TimeRange range) const {
  std::vector<std::size_t> out;
  scan_sorted_index(
      by_dst_, prefix, range,
      [](const flow::FlowRecord& r) { return r.dst_ip; },
      [&](std::size_t idx, const flow::FlowRecord&) { out.push_back(idx); });
  return out;
}

Dataset::Summary Dataset::summary(util::ThreadPool* pool_opt,
                                  KernelEngine engine) const {
  Summary s;
  s.control_updates = control_.size();
  s.blackhole_updates = blackhole_updates_.size();
  s.blackholed_prefixes = rs_index_.prefix_count();
  s.flow_records = store_ != nullptr
                       ? static_cast<std::size_t>(store_->flow_count())
                       : data_.size();

  // Shard the volume sums over the pool; integer addition is associative,
  // so the merged totals are exact at any thread count and identical under
  // either engine (the columns are a permutation of the records).
  util::ThreadPool& pool = util::pool_or_global(pool_opt);
  struct Volume {
    std::uint64_t packets{0}, bytes{0}, dropped_packets{0}, dropped_bytes{0};
  };
  if (store_ != nullptr) {
    // Chunked mode: one shard per chunk, each served from the store's
    // shared chunk cache (decoded once on a miss) and summed independently.
    // Chunks partition the same rows the in-RAM columns hold, so the totals
    // are unchanged.
    static const KernelScanMetrics metrics =
        make_kernel_scan_metrics("summary");
    const obs::StopWatch watch;
    const std::vector<Volume> chunk_sums =
        util::parallel_map(pool, store_->chunk_count(), [&](std::size_t k) {
          Volume v;
          const std::shared_ptr<const store::ChunkData> ch = store_->chunk(k);
          const flow::FlowColumns& c = ch->cols;
          for (std::size_t i = 0; i < c.size(); ++i) {
            v.packets += c.packets[i];
            v.bytes += c.bytes[i];
            if (c.dropped(i)) {
              v.dropped_packets += c.packets[i];
              v.dropped_bytes += c.bytes[i];
            }
          }
          return v;
        });
    metrics.rows->add(store_->flow_count());
    metrics.ns->add(watch.elapsed_ns());
    for (const Volume& v : chunk_sums) {
      s.sampled_packets += v.packets;
      s.sampled_bytes += v.bytes;
      s.dropped_packets += v.dropped_packets;
      s.dropped_bytes += v.dropped_bytes;
    }
    return s;
  }
  const std::size_t shards =
      std::clamp<std::size_t>(data_.size() / 65536, 1, 64);
  const std::size_t shard_len = (data_.size() + shards - 1) / shards;
  std::vector<Volume> sums;
  if (engine == KernelEngine::kColumnar) {
    static const KernelScanMetrics metrics = make_kernel_scan_metrics("summary");
    const obs::StopWatch watch;
    const std::uint32_t* const packets = columns_.packets.data();
    const std::uint64_t* const bytes = columns_.bytes.data();
    sums = util::parallel_map(pool, shards, [&](std::size_t k) {
      Volume v;
      const std::size_t end = std::min(columns_.size(), (k + 1) * shard_len);
      for (std::size_t i = k * shard_len; i < end; ++i) {
        v.packets += packets[i];
        v.bytes += bytes[i];
        if (columns_.dropped(i)) {
          v.dropped_packets += packets[i];
          v.dropped_bytes += bytes[i];
        }
      }
      return v;
    });
    metrics.rows->add(columns_.size());
    metrics.ns->add(watch.elapsed_ns());
  } else {
    sums = util::parallel_map(pool, shards, [&](std::size_t k) {
      Volume v;
      const std::size_t end = std::min(data_.size(), (k + 1) * shard_len);
      for (std::size_t i = k * shard_len; i < end; ++i) {
        const auto& r = data_[i];
        v.packets += r.packets;
        v.bytes += r.bytes;
        if (r.dropped()) {
          v.dropped_packets += r.packets;
          v.dropped_bytes += r.bytes;
        }
      }
      return v;
    });
  }
  for (const Volume& v : sums) {
    s.sampled_packets += v.packets;
    s.sampled_bytes += v.bytes;
    s.dropped_packets += v.dropped_packets;
    s.dropped_bytes += v.dropped_bytes;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Binary persistence — checksummed sectioned container (see util/container)
// ---------------------------------------------------------------------------

namespace {

// Section ids of the control-plane tables in a .bwds file (the flow
// sections are store/flow_store's). Each section carries its own length and
// CRC32C frame, so corruption is reported per section instead of surfacing
// as a garbage decode somewhere downstream.
constexpr std::uint32_t kSecPeriod = util::container::section_id('P', 'E', 'R', 'I');
constexpr std::uint32_t kSecControl = util::container::section_id('C', 'T', 'R', 'L');
constexpr std::uint32_t kSecMacs = util::container::section_id('M', 'A', 'C', 'S');
constexpr std::uint32_t kSecOrigins = util::container::section_id('O', 'R', 'I', 'G');

template <typename T>
void put(util::container::Writer& w, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.write(&v, sizeof(v));
}

template <typename T>
T get(std::ifstream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void put_u64(util::container::Writer& w, std::uint64_t v) { put(w, v); }
std::uint64_t get_u64(std::ifstream& is) { return get<std::uint64_t>(is); }

// On-disk mirrors of the fixed-size table entries, packed to their exact
// byte layout so a whole table is one write and its reads are bulk.
#pragma pack(push, 1)
struct DiskMacEntry {
  std::uint64_t mac;
  bgp::Asn asn;
};
struct DiskOriginEntry {
  std::uint32_t network;
  std::uint8_t length;
  bgp::Asn asn;
};
#pragma pack(pop)
static_assert(sizeof(DiskMacEntry) == 8 + sizeof(bgp::Asn));
static_assert(sizeof(DiskOriginEntry) == 5 + sizeof(bgp::Asn));

/// A fixed-width table section: u64 count, then the packed entries.
template <typename T>
void put_table(util::container::Writer& w, std::uint32_t id,
               const std::vector<T>& entries) {
  w.begin_section(id);
  put_u64(w, entries.size());
  w.write(entries.data(), entries.size() * sizeof(T));
  w.end_section();
}

template <typename T, typename Fn>
void get_span(std::ifstream& is, std::uint64_t count, Fn from_disk) {
  constexpr std::size_t kChunk = 1 << 16;
  std::vector<T> buffer(std::min<std::size_t>(kChunk, count));
  while (count > 0 && is) {
    const std::size_t n = std::min<std::uint64_t>(kChunk, count);
    is.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    if (!is) return;
    for (std::size_t i = 0; i < n; ++i) from_disk(buffer[i]);
    count -= n;
  }
}

/// PERI/CTRL/MACS/ORIG — the control-plane tables. MACS is written in MAC
/// order, not hash-map order, so re-saving a loaded corpus reproduces it.
void write_table_sections(
    util::container::Writer& w, util::TimeRange period,
    const bgp::UpdateLog& control,
    const std::unordered_map<net::Mac, bgp::Asn>& mac_to_asn,
    const std::vector<std::pair<net::Prefix, bgp::Asn>>& origin_prefixes) {
  w.begin_section(kSecPeriod);
  put(w, period.begin);
  put(w, period.end);
  w.end_section();

  w.begin_section(kSecControl);
  put_u64(w, control.size());
  for (const auto& u : control) {
    put(w, u.time);
    put(w, static_cast<std::uint8_t>(u.type));
    put(w, u.sender_asn);
    put(w, u.origin_asn);
    put(w, u.prefix.network().value());
    put(w, u.prefix.length());
    put(w, u.next_hop.value());
    put_u64(w, u.communities.size());
    for (const auto& c : u.communities) {
      put(w, c.global);
      put(w, c.local);
    }
  }
  w.end_section();

  std::vector<DiskMacEntry> macs;
  macs.reserve(mac_to_asn.size());
  for (const auto& [mac, asn] : mac_to_asn) macs.push_back({mac.value(), asn});
  std::sort(macs.begin(), macs.end(),
            [](const DiskMacEntry& a, const DiskMacEntry& b) {
              return a.mac < b.mac;
            });
  put_table(w, kSecMacs, macs);

  std::vector<DiskOriginEntry> origins;
  origins.reserve(origin_prefixes.size());
  for (const auto& [prefix, asn] : origin_prefixes) {
    origins.push_back({prefix.network().value(), prefix.length(), asn});
  }
  put_table(w, kSecOrigins, origins);
}

}  // namespace

util::Status Dataset::try_save(const std::string& path) const {
  const obs::TraceSpan span("dataset.try_save", "io");
  const obs::StopWatch wall;
  util::Status st = [&]() -> util::Status {
    if (store_ != nullptr) {
      return util::failed_precondition(
          "Dataset::try_save: " + path +
          ": chunked dataset holds no materialized flows to rewrite; load it "
          "with Dataset::try_load first");
    }
    if (data_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      return util::invalid_argument("Dataset::try_save: " + path +
                                    ": flow count exceeds the v3 row-position "
                                    "range");
    }

    // MAC dictionary: every distinct MAC in the corpus, ascending. Chunk
    // rows store indexes into it, so 6-byte MACs cost one or two varint
    // bytes per row.
    std::vector<std::uint64_t> dict;
    {
      std::unordered_set<std::uint64_t> seen;
      seen.reserve(mac_to_asn_.size() * 2 + 16);
      for (const auto& r : data_) {
        seen.insert(r.src_mac.value());
        seen.insert(r.dst_mac.value());
      }
      dict.assign(seen.begin(), seen.end());
      std::sort(dict.begin(), dict.end());
    }
    std::unordered_map<std::uint64_t, std::uint32_t> dict_id;
    dict_id.reserve(dict.size());
    for (std::size_t i = 0; i < dict.size(); ++i) {
      dict_id[dict[i]] = static_cast<std::uint32_t>(i);
    }

    const std::size_t rows_per_chunk = store::chunk_rows();
    const std::size_t n = data_.size();

    // Atomic commit: the container streams into `<path>.tmp`, which is
    // fsync'd and renamed over `path` only once complete — a crash mid-save
    // leaves the previous file (or nothing), never a torn one. Chunks are
    // encoded one at a time into a reused buffer, so peak writer memory is
    // one chunk regardless of corpus size.
    return util::atomic_write_file(path, [&](std::ostream& os) -> util::Status {
      util::container::Writer w(os);
      write_table_sections(w, period_, control_, mac_to_asn_,
                           origin_prefixes_);

      w.begin_section(store::kSecStoreMeta);
      put_u64(w, n);
      put_u64(w, quality_.unknown_mac_flows);
      put_u64(w, rows_per_chunk);
      put_u64(w, 0);  // reserved
      w.end_section();

      w.begin_section(store::kSecMacDict);
      put_u64(w, dict.size());
      for (const std::uint64_t mac : dict) put_u64(w, mac);
      w.end_section();

      // Dst-ordered chunks + their zone-map index.
      std::vector<std::uint8_t> payload;
      std::vector<std::uint8_t> index;
      std::size_t n_chunks = 0;
      for (std::size_t base = 0; base < n; base += rows_per_chunk) {
        const std::size_t end = std::min(n, base + rows_per_chunk);
        const std::size_t rows = end - base;
        store::ChunkData chunk;
        auto slice = [&](auto& dst, const auto& src) {
          dst.assign(src.begin() + static_cast<std::ptrdiff_t>(base),
                     src.begin() + static_cast<std::ptrdiff_t>(end));
        };
        slice(chunk.cols.time, columns_.time);
        slice(chunk.cols.src_ip, columns_.src_ip);
        slice(chunk.cols.dst_ip, columns_.dst_ip);
        slice(chunk.cols.proto, columns_.proto);
        slice(chunk.cols.src_port, columns_.src_port);
        slice(chunk.cols.dst_port, columns_.dst_port);
        slice(chunk.cols.packets, columns_.packets);
        slice(chunk.cols.bytes, columns_.bytes);
        slice(chunk.cols.src_member, columns_.src_member);
        chunk.cols.dropped_words.assign((rows + 63) / 64, 0);
        chunk.src_mac_id.resize(rows);
        chunk.dst_mac_id.resize(rows);
        chunk.orig_pos.resize(rows);
        for (std::size_t g = 0; g < rows; ++g) {
          if (columns_.dropped(base + g)) {
            chunk.cols.dropped_words[g >> 6] |= std::uint64_t{1} << (g & 63);
          }
          const std::size_t pos = by_dst_[base + g];
          const flow::FlowRecord& r = data_[pos];
          chunk.src_mac_id[g] = dict_id.find(r.src_mac.value())->second;
          chunk.dst_mac_id[g] = dict_id.find(r.dst_mac.value())->second;
          chunk.orig_pos[g] = static_cast<std::uint32_t>(pos);
        }
        store::encode_dst_chunk(chunk, payload);
        w.begin_section(store::kSecChunk);
        w.write(payload.data(), payload.size());
        w.end_section();
        store::append_meta(index, store::make_dst_meta(chunk, base));
        ++n_chunks;
      }
      w.begin_section(store::kSecChunkIndex);
      put_u64(w, n_chunks);
      w.write(index.data(), index.size());
      w.end_section();

      // Src-ordered chunks (the four s_* columns) + their index.
      index.clear();
      n_chunks = 0;
      for (std::size_t base = 0; base < n; base += rows_per_chunk) {
        const std::size_t end = std::min(n, base + rows_per_chunk);
        store::ChunkData chunk;
        auto slice = [&](auto& dst, const auto& src) {
          dst.assign(src.begin() + static_cast<std::ptrdiff_t>(base),
                     src.begin() + static_cast<std::ptrdiff_t>(end));
        };
        slice(chunk.cols.s_src_ip, columns_.s_src_ip);
        slice(chunk.cols.s_time, columns_.s_time);
        slice(chunk.cols.s_src_port, columns_.s_src_port);
        slice(chunk.cols.s_dst_port, columns_.s_dst_port);
        store::encode_src_chunk(chunk, payload);
        w.begin_section(store::kSecSrcChunk);
        w.write(payload.data(), payload.size());
        w.end_section();
        store::append_meta(index, store::make_src_meta(chunk, base));
        ++n_chunks;
      }
      w.begin_section(store::kSecSrcIndex);
      put_u64(w, n_chunks);
      w.write(index.data(), index.size());
      w.end_section();

      return w.finish().with_context("Dataset::try_save: " + path);
    });
  }();
  record_io(io_metrics("save"), st.ok(), wall);
  return st;
}

namespace {

/// Locate `id` in the TOC, verify its payload CRC, and leave `is` at the
/// payload start. Returns the section (for exact-length validation).
util::Result<util::container::Section> open_section(
    std::ifstream& is, const util::container::Toc& toc, std::uint32_t id) {
  const util::container::Section* sec = toc.find(id);
  if (sec == nullptr) {
    return util::data_loss("missing section " +
                           util::container::section_name(id));
  }
  util::Status st = util::container::verify_section(is, *sec);
  if (!st.ok()) return st;
  return *sec;
}

/// A section holding a u64 element count followed by `count * elem_size`
/// fixed-width records must have exactly that many bytes.
util::Status check_exact_length(const util::container::Section& sec,
                                std::uint64_t count, std::size_t elem_size) {
  if (sec.length != 8 + count * elem_size) {
    return util::data_loss("section " + util::container::section_name(sec.id) +
                           ": length does not match element count");
  }
  return util::ok_status();
}

/// The decoded PERI/CTRL/MACS/ORIG tables — common to every load mode.
struct LoadedTables {
  util::TimeRange period;
  bgp::UpdateLog control;
  std::unordered_map<net::Mac, bgp::Asn> macs;
  std::vector<std::pair<net::Prefix, bgp::Asn>> origins;
};

util::Status read_table_sections(std::ifstream& is,
                                 const util::container::Toc& toc,
                                 LoadedTables& out) {
  // --- PERI: the analysis period, two TimeMs -------------------------------
  auto peri = open_section(is, toc, kSecPeriod);
  if (!peri.ok()) return peri.status();
  if (peri->length != 2 * sizeof(util::TimeMs)) {
    return util::data_loss("section PERI: unexpected length");
  }
  out.period.begin = get<util::TimeMs>(is);
  out.period.end = get<util::TimeMs>(is);

  // --- CTRL: variable-width updates; counts bounded by section length -----
  auto ctrl = open_section(is, toc, kSecControl);
  if (!ctrl.ok()) return ctrl.status();
  auto checked_count = [&](const char* what) -> util::Result<std::uint64_t> {
    const std::uint64_t n = get_u64(is);
    if (!is || n > ctrl->length) {
      return util::data_loss(std::string("section CTRL: implausible ") + what +
                             " count");
    }
    return n;
  };
  const auto n_control = checked_count("control update");
  if (!n_control.ok()) return n_control.status();
  out.control.resize(*n_control);
  for (auto& u : out.control) {
    u.time = get<util::TimeMs>(is);
    u.type = static_cast<bgp::UpdateType>(get<std::uint8_t>(is));
    u.sender_asn = get<bgp::Asn>(is);
    u.origin_asn = get<bgp::Asn>(is);
    const auto net_v = get<std::uint32_t>(is);
    const auto len = get<std::uint8_t>(is);
    u.prefix = net::Prefix(net::Ipv4(net_v), len);
    u.next_hop = net::Ipv4(get<std::uint32_t>(is));
    const auto n_comms = checked_count("community");
    if (!n_comms.ok()) return n_comms.status();
    u.communities.resize(*n_comms);
    for (auto& c : u.communities) {
      c.global = get<std::uint16_t>(is);
      c.local = get<std::uint16_t>(is);
    }
  }
  if (!is) return util::data_loss("section CTRL: truncated decode");

  // --- MACS / ORIG: fixed-width tables with exact-length checks -----------
  auto mac_sec = open_section(is, toc, kSecMacs);
  if (!mac_sec.ok()) return mac_sec.status();
  const std::uint64_t n_macs = get_u64(is);
  if (util::Status st = check_exact_length(*mac_sec, n_macs,
                                           sizeof(DiskMacEntry));
      !st.ok()) {
    return st;
  }
  out.macs.reserve(n_macs);
  get_span<DiskMacEntry>(is, n_macs, [&](const DiskMacEntry& d) {
    out.macs[net::Mac(d.mac)] = d.asn;
  });

  auto orig_sec = open_section(is, toc, kSecOrigins);
  if (!orig_sec.ok()) return orig_sec.status();
  const std::uint64_t n_origins = get_u64(is);
  if (util::Status st = check_exact_length(*orig_sec, n_origins,
                                           sizeof(DiskOriginEntry));
      !st.ok()) {
    return st;
  }
  out.origins.reserve(n_origins);
  get_span<DiskOriginEntry>(is, n_origins, [&](const DiskOriginEntry& d) {
    // Copy the packed field: binding a reference to it is misaligned.
    out.origins.emplace_back(net::Prefix(net::Ipv4(d.network), d.length),
                             bgp::Asn{d.asn});
  });
  if (!is) return util::data_loss("truncated file");
  return util::ok_status();
}

}  // namespace

namespace {

/// dataset.load.{read,index,decode,columns}_us: where a materializing load
/// spends its wall time (see docs/observability.md).
struct LoadPhaseMetrics {
  obs::Counter& read_us;
  obs::Counter& index_us;
  obs::Counter& decode_us;
  obs::Counter& columns_us;
};

const LoadPhaseMetrics& load_phase_metrics() {
  auto& reg = obs::Registry::global();
  static const LoadPhaseMetrics m{
      reg.counter("dataset.load.read_us"), reg.counter("dataset.load.index_us"),
      reg.counter("dataset.load.decode_us"),
      reg.counter("dataset.load.columns_us")};
  return m;
}

/// Add the watch's elapsed time to `counter` and restart it.
void lap(obs::Counter& counter, obs::StopWatch& watch) {
  counter.add(watch.elapsed_us());
  watch.restart();
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One row's contribution to the order-independent fingerprint that ties
/// the SCHK rows to the CHNK rows: summed over a chunk family, it depends
/// on the multiset of (src_ip, time, src_port, dst_port) tuples only.
std::uint64_t row_fingerprint(std::uint32_t src_ip, util::TimeMs time,
                              std::uint16_t src_port, std::uint16_t dst_port) {
  return mix64(mix64((std::uint64_t{src_ip} << 32) |
                     (std::uint64_t{src_port} << 16) | dst_port) ^
               static_cast<std::uint64_t>(time));
}

util::Status chunk_error(const char* family, std::size_t k, const char* what) {
  return util::data_loss(std::string("section ") + family + "[" +
                         std::to_string(k) + "]: " + what);
}

}  // namespace

util::Result<Dataset> Dataset::open_shell(
    const std::string& path, const char* op,
    std::shared_ptr<const store::FlowStore>& store) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return util::not_found(std::string(op) + ": cannot open " + path);
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());

  auto ctx = [&](util::Status st) {
    return std::move(st).with_context(std::string(op) + ": " + path);
  };

  auto toc_result = util::container::read_toc(is, file_size);
  if (!toc_result.ok()) return ctx(toc_result.status());
  LoadedTables tables;
  if (util::Status st = read_table_sections(is, *toc_result, tables);
      !st.ok()) {
    return ctx(std::move(st));
  }
  is.close();

  auto store_result = store::FlowStore::open(path);
  if (!store_result.ok()) return ctx(store_result.status());
  store = *store_result;

  Dataset d;
  d.control_ = std::move(tables.control);
  d.mac_to_asn_ = std::move(tables.macs);
  d.origin_prefixes_ = std::move(tables.origins);
  d.period_ = tables.period;
  return d;
}

util::Status Dataset::fill_from_store(const store::FlowStore& store,
                                      util::ThreadPool& pool) {
  const LoadPhaseMetrics& phase = load_phase_metrics();
  obs::StopWatch watch;
  const std::size_t n = store.flow_count();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    return util::data_loss(
        "section SMET: flow count exceeds the v3 row-position range");
  }
  constexpr std::uint32_t kNoMember = flow::FlowColumns::kNoMember;
  flow::FlowColumns& c = columns_;

  // Size the flow state while the control-plane indices build. Zero-filling
  // ~110 B/flow is page-fault bound, so each vector is sized by its own
  // task, largest first, and the index build is one more task beside them.
  std::unordered_map<net::Mac, std::uint32_t> member_ids;
  std::vector<std::uint64_t> seen;
  const auto sized = [n](auto& v) { return [&v, n] { v.resize(n); }; };
  const std::vector<std::function<void()>> jobs = {
      [&] { member_ids = build_control_indices(); },
      sized(data_),
      sized(c.time),
      sized(c.s_time),
      sized(c.bytes),
      sized(by_dst_),
      sized(c.src_ip),
      sized(c.dst_ip),
      sized(c.packets),
      sized(c.src_member),
      sized(c.s_src_ip),
      sized(c.src_port),
      sized(c.dst_port),
      sized(c.s_src_port),
      sized(c.s_dst_port),
      sized(c.proto),
      [&] {
        c.dropped_words.assign((n + 63) / 64, 0);
        seen.assign((n + 63) / 64, 0);
      },
  };
  util::parallel_for(pool, jobs.size(), [&](std::size_t j) { jobs[j](); }, 1);
  lap(phase.index_us, watch);

  // What sanitize and FlowColumns::build resolve per record from its MACs,
  // resolved once per dictionary entry: the dense member id (kNoMember for
  // an unmapped MAC; member_ids has exactly mac_to_asn_'s keys) and
  // whether the MAC is the blackhole's.
  const std::vector<std::uint64_t>& dict = store.mac_dict();
  const std::uint64_t blackhole = net::Mac::blackhole().value();
  std::vector<std::uint32_t> member_of(dict.size(), kNoMember);
  std::vector<std::uint8_t> is_blackhole(dict.size(), 0);
  for (std::size_t id = 0; id < dict.size(); ++id) {
    const auto it = member_ids.find(net::Mac(dict[id]));
    if (it != member_ids.end()) member_of[id] = it->second;
    is_blackhole[id] = dict[id] == blackhole ? 1 : 0;
  }

  // (dst_ip, time, row position) strictly ascending: the order the
  // constructor's by_dst sort produces, with its index tie-break.
  const auto dst_ordered = [&](std::size_t a, std::size_t b) {
    if (c.dst_ip[a] != c.dst_ip[b]) return c.dst_ip[a] < c.dst_ip[b];
    if (c.time[a] != c.time[b]) return c.time[a] < c.time[b];
    return by_dst_[a] < by_dst_[b];
  };
  const auto src_ordered = [&](std::size_t a, std::size_t b) {
    if (c.s_src_ip[a] != c.s_src_ip[b]) return c.s_src_ip[a] < c.s_src_ip[b];
    return c.s_time[a] <= c.s_time[b];
  };

  struct ChunkTally {
    util::Status status;
    std::uint64_t unknown_macs{0};
    std::uint64_t fingerprint{0};
  };
  const std::vector<store::ChunkMeta>& dst_metas = store.dst_metas();
  const std::vector<store::ChunkMeta>& src_metas = store.src_metas();

  // One task per dst chunk: decode into its row slice of the columns, then
  // derive the MAC-based columns, invert orig_pos into by_dst_, and
  // scatter the records into data_. Row counts need not be multiples of
  // 64, so dropped-bitmap words and seen-bitset words at chunk edges are
  // shared between tasks and set with atomic ORs.
  const auto fill_dst = [&](std::size_t k) {
    ChunkTally tally;
    const std::size_t b = dst_metas[k].row_begin;
    const std::size_t rows = dst_metas[k].row_count;
    const auto slice = [&](auto& col) { return std::span(col).subspan(b, rows); };
    std::vector<std::uint32_t> src_mac(rows);
    std::vector<std::uint32_t> dst_mac(rows);
    std::vector<std::uint32_t> pos(rows);
    // src_member and dropped_words stay empty: both are derived below.
    const store::DstChunkSpans out{.time = slice(c.time),
                                   .src_ip = slice(c.src_ip),
                                   .dst_ip = slice(c.dst_ip),
                                   .proto = slice(c.proto),
                                   .src_port = slice(c.src_port),
                                   .dst_port = slice(c.dst_port),
                                   .packets = slice(c.packets),
                                   .bytes = slice(c.bytes),
                                   .src_mac_id = src_mac,
                                   .dst_mac_id = dst_mac,
                                   .src_member = {},
                                   .dropped_words = {},
                                   .orig_pos = pos};
    tally.status = store.try_decode(k, out);
    if (!tally.status.ok()) return tally;
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t row = b + i;
      const std::uint32_t p = pos[i];
      const std::uint64_t bit = std::uint64_t{1} << (p & 63);
      if (p >= n ||
          (std::atomic_ref<std::uint64_t>(seen[p >> 6]).fetch_or(bit) & bit) !=
              0) {
        tally.status = chunk_error("CHNK", k,
                                   "duplicate or out-of-range row position");
        return tally;
      }
      by_dst_[row] = p;
      if (i > 0 && !dst_ordered(row - 1, row)) {
        tally.status = chunk_error(
            "CHNK", k, "rows are not in (dst_ip, time, position) order");
        return tally;
      }
      const std::uint32_t member = member_of[src_mac[i]];
      const bool dropped = is_blackhole[dst_mac[i]] != 0;
      c.src_member[row] = member;
      if (member == kNoMember || (!dropped && member_of[dst_mac[i]] == kNoMember)) {
        ++tally.unknown_macs;
      }
      if (dropped) word |= std::uint64_t{1} << (row & 63);
      if ((row & 63) == 63 || i + 1 == rows) {
        if (word != 0) {
          std::atomic_ref<std::uint64_t>(c.dropped_words[row >> 6])
              .fetch_or(word);
        }
        word = 0;
      }
      data_[p] = store.record_at(out, i);
      tally.fingerprint += row_fingerprint(c.src_ip[row], c.time[row],
                                           c.src_port[row], c.dst_port[row]);
    }
    return tally;
  };
  // One task per src chunk: decode into its slice of the s_* columns.
  const auto fill_src = [&](std::size_t k) {
    ChunkTally tally;
    const std::size_t b = src_metas[k].row_begin;
    const std::size_t rows = src_metas[k].row_count;
    const auto slice = [&](auto& col) { return std::span(col).subspan(b, rows); };
    tally.status = store.try_decode(
        k, store::SrcChunkSpans{slice(c.s_src_ip), slice(c.s_time),
                                slice(c.s_src_port), slice(c.s_dst_port)});
    if (!tally.status.ok()) return tally;
    for (std::size_t row = b; row < b + rows; ++row) {
      if (row > b && !src_ordered(row - 1, row)) {
        tally.status =
            chunk_error("SCHK", k, "rows are not in (src_ip, time) order");
        return tally;
      }
      tally.fingerprint += row_fingerprint(c.s_src_ip[row], c.s_time[row],
                                           c.s_src_port[row], c.s_dst_port[row]);
    }
    return tally;
  };
  const std::vector<ChunkTally> tallies = util::parallel_map(
      pool, dst_metas.size() + src_metas.size(),
      [&](std::size_t t) {
        return t < dst_metas.size() ? fill_dst(t)
                                    : fill_src(t - dst_metas.size());
      },
      1);
  lap(phase.decode_us, watch);

  // Whole-corpus checks the per-chunk tasks cannot make alone.
  std::uint64_t dst_fingerprint = 0;
  std::uint64_t src_fingerprint = 0;
  quality_.unknown_mac_flows = 0;
  for (std::size_t t = 0; t < tallies.size(); ++t) {
    if (!tallies[t].status.ok()) return tallies[t].status;
    const bool dst = t < dst_metas.size();
    (dst ? dst_fingerprint : src_fingerprint) += tallies[t].fingerprint;
    quality_.unknown_mac_flows += tallies[t].unknown_macs;
  }
  for (std::size_t k = 0; k < dst_metas.size(); ++k) {
    const std::size_t b = dst_metas[k].row_begin;
    if (b > 0 && dst_metas[k].row_count > 0 && !dst_ordered(b - 1, b)) {
      return chunk_error("CHNK", k,
                         "rows are not in (dst_ip, time, position) order "
                         "across the chunk boundary");
    }
  }
  for (std::size_t k = 0; k < src_metas.size(); ++k) {
    const std::size_t b = src_metas[k].row_begin;
    if (b > 0 && src_metas[k].row_count > 0 && !src_ordered(b - 1, b)) {
      return chunk_error("SCHK", k,
                         "rows are not in (src_ip, time) order across the "
                         "chunk boundary");
    }
  }
  if (src_fingerprint != dst_fingerprint) {
    return util::data_loss(
        "section SCHK: rows are not the source-ordered permutation of the "
        "CHNK rows");
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (data_[i].time < data_[i - 1].time) {
      return util::data_loss(
          "section CHNK: row positions do not put the flow log in time "
          "order");
    }
  }
  lap(phase.columns_us, watch);
  return util::ok_status();
}

util::Result<Dataset> Dataset::try_load(const std::string& path,
                                        util::ThreadPool* pool) {
  const obs::TraceSpan span("dataset.try_load", "io");
  const obs::StopWatch wall;
  util::Result<Dataset> result = [&]() -> util::Result<Dataset> {
    const obs::StopWatch read;
    std::shared_ptr<const store::FlowStore> store;
    util::Result<Dataset> shell = open_shell(path, "Dataset::try_load", store);
    if (!shell.ok()) return shell.status();
    Dataset d = std::move(shell).value();
    load_phase_metrics().read_us.add(read.elapsed_us());

    // Sanitation ran before the file was written, and the fill checks the
    // flow log's time order, so of the constructor's sanitation counts
    // only the control-plane input order and the unknown-MAC flows (which
    // the fill re-derives) can be non-zero.
    d.quality_.reordered_updates = count_inversions(d.control_);
    if (util::Status st = d.fill_from_store(*store, util::pool_or_global(pool));
        !st.ok()) {
      return std::move(st).with_context("Dataset::try_load: " + path);
    }
    return d;
  }();
  record_io(io_metrics("load"), result.ok(), wall);
  return result;
}

util::Result<Dataset> Dataset::try_open_chunked(const std::string& path) {
  const obs::TraceSpan span("dataset.try_open_chunked", "io");
  const obs::StopWatch wall;
  util::Result<Dataset> result = [&]() -> util::Result<Dataset> {
    std::shared_ptr<const store::FlowStore> store;
    util::Result<Dataset> shell =
        open_shell(path, "Dataset::try_open_chunked", store);
    if (!shell.ok()) return shell.status();
    // Shell construction: control-plane state and indices as usual, flows
    // left on disk behind the pruned chunk reader. data_/columns_/by_dst_
    // stay empty — every flow access goes through store_.
    Dataset d = std::move(shell).value();
    d.store_ = std::move(store);
    // Sanitation ran before the file was written; the only quality signal
    // that survives serialization is the persisted unknown-MAC count.
    d.quality_.unknown_mac_flows =
        static_cast<std::size_t>(d.store_->unknown_mac_flows());
    (void)d.build_control_indices();
    return d;
  }();
  record_io(io_metrics("load"), result.ok(), wall);
  return result;
}

}  // namespace bw::core
