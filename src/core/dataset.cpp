#include "core/dataset.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
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

/// Registered per operation on first use: a load-only run has no save set.
const IoMetrics& io_metrics(const char* op) {
  auto make = [](const std::string& base) {
    auto& reg = obs::Registry::global();
    return IoMetrics{&reg.counter(base + ".ok"), &reg.counter(base + ".fail"),
                     &reg.counter(base + ".wall_us"),
                     &reg.histogram(base + ".latency_us")};
  };
  if (op[0] == 's') {
    static const IoMetrics save = make("dataset.save");
    return save;
  }
  static const IoMetrics load = make("dataset.load");
  return load;
}

void record_io(const IoMetrics& m, bool succeeded, const obs::StopWatch& wall) {
  const std::uint64_t us = wall.elapsed_us();
  (succeeded ? m.ok : m.fail)->add();
  m.wall_us->add(us);
  m.latency->record(us);
}

}  // namespace

Dataset Dataset::from_run(ixp::RunResult run, const ixp::Platform& platform,
                          util::ThreadPool* pool) {
  std::unordered_map<net::Mac, bgp::Asn> macs;
  for (const auto& m : platform.members()) macs[m.port_mac] = m.asn;
  // The platform's origin table is the BGP-derived prefix->origin view the
  // paper resolves source addresses against.
  auto origins = platform.origin_prefix_table();
  return Dataset(std::move(run.control), std::move(run.data), std::move(macs),
                 std::move(origins), platform.config().period, BuildOptions(),
                 pool);
}

Dataset::Dataset(bgp::UpdateLog control, flow::FlowLog data,
                 std::unordered_map<net::Mac, bgp::Asn> mac_to_asn,
                 std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes,
                 util::TimeRange period, const BuildOptions& options,
                 util::ThreadPool* pool)
    : control_(std::move(control)),
      mac_to_asn_(std::move(mac_to_asn)),
      origin_prefixes_(std::move(origin_prefixes)),
      period_(period) {
  util::ThreadPool& workers = util::pool_or_global(pool);
  sanitize(data, options, workers);
  build_indices(std::move(data), workers);
}

namespace {

/// Row shards of [0, n): about 64Ki rows each and at most 64, a split that
/// depends on n only.
std::size_t row_shard_count(std::size_t n) {
  return std::clamp<std::size_t>(n / 65536, 1, 64);
}

/// Run `fn(shard, begin, end)` for every row shard of [0, n) over `pool`.
template <typename Fn>
void for_row_shards(util::ThreadPool& pool, std::size_t n, const Fn& fn) {
  const std::size_t shards = row_shard_count(n);
  const std::size_t len = (n + shards - 1) / shards;
  util::parallel_for(
      pool, shards,
      [&](std::size_t k) {
        fn(k, std::min(n, k * len), std::min(n, (k + 1) * len));
      },
      1);
}

/// Adjacent time inversions among rows [0, n), where `time_at(i)` is row
/// i's time, each compared with its predecessor, shard by shard over
/// `pool`: what an out-of-order feed looks like before the build sorts it.
template <typename TimeAt>
std::size_t count_inversions(util::ThreadPool& pool, std::size_t n,
                             const TimeAt& time_at) {
  std::vector<std::size_t> counts(row_shard_count(n));
  for_row_shards(pool, n, [&](std::size_t k, std::size_t begin, std::size_t end) {
    for (std::size_t i = std::max<std::size_t>(begin, 1); i < end; ++i) {
      if (time_at(i) < time_at(i - 1)) ++counts[k];
    }
  });
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

/// count_inversions over a log of records with a `time` field.
template <typename Log>
std::size_t count_inversions(util::ThreadPool& pool, const Log& log) {
  return count_inversions(pool, log.size(),
                          [&](std::size_t i) { return log[i].time; });
}

}  // namespace

void Dataset::sanitize(flow::FlowLog& data, const BuildOptions& options,
                       util::ThreadPool& pool) {
  quality_.reordered_updates = count_inversions(pool, control_);
  quality_.reordered_flows = count_inversions(pool, data);

  if (options.quarantine_out_of_period) {
    const util::TimeMs lo = period_.begin - options.period_slack;
    const util::TimeMs hi = period_.end + options.period_slack;
    auto out_of_period = [&](util::TimeMs t) { return t < lo || t >= hi; };
    const std::size_t control_before = control_.size();
    std::erase_if(control_,
                  [&](const bgp::Update& u) { return out_of_period(u.time); });
    quality_.out_of_period_updates = control_before - control_.size();
    const std::size_t flows_before = data.size();
    std::erase_if(data, [&](const flow::FlowRecord& r) {
      return out_of_period(r.time);
    });
    quality_.out_of_period_flows = flows_before - data.size();
  }

  if (options.dedupe_flows && !data.empty()) {
    // Full-key sort makes exact duplicates adjacent, identical at any thread
    // count; build_indices re-sorts by time afterwards, so the record order
    // analyses see is unchanged.
    util::parallel_sort(pool, data.begin(), data.end());
    const std::size_t before = data.size();
    data.erase(std::unique(data.begin(), data.end()), data.end());
    quality_.duplicate_flows = before - data.size();
  }
}

namespace {

/// Put a control log in replay order. The sort is stable, so a log that
/// already is in that order, as every saved one is, is left as it is.
void sort_control(util::ThreadPool& pool, bgp::UpdateLog& log) {
  if (!std::is_sorted(log.begin(), log.end(), bgp::update_before)) {
    util::parallel_sort(pool, log.begin(), log.end(), bgp::update_before);
  }
}

}  // namespace

void Dataset::replay_blackholes() {
  const auto is_blackhole = std::mem_fn(&bgp::Update::is_blackhole);
  // In a generated corpus every control update is a blackhole: then
  // blackhole_updates() is the control log itself, and no copy is made.
  const auto n = static_cast<std::size_t>(
      std::count_if(control_.begin(), control_.end(), is_blackhole));
  control_is_blackholes_ = n == control_.size();
  blackhole_updates_.clear();
  if (!control_is_blackholes_) {
    blackhole_updates_.reserve(n);
    std::copy_if(control_.begin(), control_.end(),
                 std::back_inserter(blackhole_updates_), is_blackhole);
  }
  for (const auto& u : blackhole_updates()) {
    if (u.type == bgp::UpdateType::kAnnounce) {
      rs_index_.open(u.prefix, u.time, u.communities, u.sender_asn);
    } else {
      rs_index_.close(u.prefix, u.time);
    }
  }
  rs_index_.finalize(period_.end);
}

std::vector<std::uint32_t> Dataset::member_tables() {
  // Dense member-source table: ascending unique source ASes, and the dense
  // id of every MAC dictionary entry, so the column build resolves a
  // row's handover MAC with one array read. Iterating a flat per-id array
  // then visits ASes in ascending-ASN order, i.e. exactly the order a
  // std::map<Asn, ...> accumulation produces.
  source_as_.clear();
  source_as_.reserve(mac_to_asn_.size());
  for (const auto& [mac, asn] : mac_to_asn_) source_as_.push_back(asn);
  std::sort(source_as_.begin(), source_as_.end());
  source_as_.erase(std::unique(source_as_.begin(), source_as_.end()),
                   source_as_.end());
  std::vector<std::uint32_t> member_of(mac_dict_.size(),
                                       flow::FlowColumns::kNoMember);
  for (std::size_t id = 0; id < mac_dict_.size(); ++id) {
    const auto it = mac_to_asn_.find(net::Mac(mac_dict_[id]));
    if (it == mac_to_asn_.end()) continue;
    member_of[id] = static_cast<std::uint32_t>(
        std::lower_bound(source_as_.begin(), source_as_.end(), it->second) -
        source_as_.begin());
  }
  return member_of;
}

std::vector<std::uint32_t> Dataset::build_control_indices() {
  sort_control(util::ThreadPool::global(), control_);
  replay_blackholes();
  // FlatLpm freezes the origin table with last-wins dedupe — exactly the
  // overwrite semantics the trie's insert loop had.
  origin_lpm_ = net::FlatLpm<bgp::Asn>(origin_prefixes_);
  return member_tables();
}

namespace {

/// Sort rows [0, out.size()) into (address, row) order, where `addr(i)` is
/// row i's 32-bit address, and write the row positions to `out`: a stable
/// LSD radix sort of (address << 32 | row) keys on their address half, one
/// parallel counting pass and one parallel scatter per address byte,
/// skipping a byte every key shares. Over a time-sorted log this is the
/// (address, time, row) order; the keys are unique, so the result does not
/// depend on the shard split. `keys` and `scratch` are the key and scatter
/// buffers, at least as long as `out`; none of the three needs
/// initializing, so their pages are first touched by the parallel passes.
template <typename Addr>
void address_order(util::ThreadPool& pool, const Addr& addr,
                   std::span<std::size_t> keys, std::span<std::size_t> scratch,
                   std::span<std::uint32_t> out) {
  static_assert(sizeof(std::size_t) == 8, "keys pack two 32-bit halves");
  const std::size_t n = out.size();
  for_row_shards(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      keys[i] = static_cast<std::size_t>(addr(i)) << 32 | i;
    }
  });
  std::span<std::size_t> from = keys;
  std::span<std::size_t> to = scratch;
  std::vector<std::array<std::size_t, 256>> slot(row_shard_count(n));
  for (unsigned shift = 32; shift < 64; shift += 8) {
    for_row_shards(pool, n,
                   [&](std::size_t k, std::size_t begin, std::size_t end) {
                     slot[k].fill(0);
                     for (std::size_t i = begin; i < end; ++i) {
                       ++slot[k][(from[i] >> shift) & 0xFF];
                     }
                   });
    // Exclusive prefix over (digit, shard): shard k's rows with digit d go
    // after every smaller digit and after earlier shards' rows with d.
    bool shared = false;
    std::size_t sum = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      const std::size_t digit_begin = sum;
      for (auto& counts : slot) {
        const std::size_t c = counts[d];
        counts[d] = sum;
        sum += c;
      }
      shared = shared || sum - digit_begin == n;
    }
    if (shared) continue;  // the scatter would be the identity
    for_row_shards(pool, n,
                   [&](std::size_t k, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       to[slot[k][(from[i] >> shift) & 0xFF]++] = from[i];
                     }
                   });
    std::swap(from, to);
  }
  for_row_shards(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = static_cast<std::uint32_t>(from[i]);
    }
  });
}

/// Every distinct MAC in `flows`, ascending: the dictionary the columns'
/// MAC ids index and chunk rows store, so 6-byte MACs cost one or two
/// varint bytes per row.
std::vector<std::uint64_t> mac_dictionary(util::ThreadPool& pool,
                                          const flow::FlowLog& flows) {
  std::vector<std::unordered_set<std::uint64_t>> seen(
      row_shard_count(flows.size()));
  for_row_shards(pool, flows.size(),
                 [&](std::size_t k, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     seen[k].insert(flows[i].src_mac.value());
                     seen[k].insert(flows[i].dst_mac.value());
                   }
                 });
  std::unordered_set<std::uint64_t> all;
  for (const auto& macs : seen) all.insert(macs.begin(), macs.end());
  std::vector<std::uint64_t> dict(all.begin(), all.end());
  std::sort(dict.begin(), dict.end());
  return dict;
}

/// Derive rows [begin, end)'s src_member and dropped bit from their MAC
/// ids, given the dense member id of every `dict` entry (`member_of`,
/// FlowColumns::kNoMember for none). A bitmap word at the range's edge may
/// be shared with the neighbouring range, so words are set with atomic
/// ORs. Returns how many rows have an unattributable MAC (e.g. from a
/// damaged MAC table): the handover port — or the egress port, blackhole
/// MAC aside — has no member.
std::uint64_t derive_member_columns(flow::FlowColumns& c,
                                    const std::vector<std::uint64_t>& dict,
                                    const std::vector<std::uint32_t>& member_of,
                                    std::size_t begin, std::size_t end) {
  constexpr std::uint32_t kNoMember = flow::FlowColumns::kNoMember;
  const std::uint64_t blackhole = net::Mac::blackhole().value();
  std::uint64_t unknown = 0;
  std::uint64_t word = 0;
  for (std::size_t row = begin; row < end; ++row) {
    const std::uint32_t member = member_of[c.src_mac_id[row]];
    const bool dropped = dict[c.dst_mac_id[row]] == blackhole;
    c.src_member[row] = member;
    if (member == kNoMember ||
        (!dropped && member_of[c.dst_mac_id[row]] == kNoMember)) {
      ++unknown;
    }
    if (dropped) word |= std::uint64_t{1} << (row & 63);
    if ((row & 63) == 63 || row + 1 == end) {
      if (word != 0) {
        std::atomic_ref<std::uint64_t>(c.dropped_words[row >> 6]).fetch_or(word);
      }
      word = 0;
    }
  }
  return unknown;
}

/// Size each of `columns` to `n` rows, one task per column over `pool`:
/// zero-filling is page-fault bound. The memory is reserved on this
/// thread: allocated on a pool thread, it would stay in that thread's heap
/// after the columns are freed, where a later load on other threads cannot
/// reuse it.
template <typename... Columns>
void size_columns(util::ThreadPool& pool, std::size_t n,
                  Columns&... columns) {
  (columns.reserve(n), ...);
  const std::function<void()> jobs[] = {[&columns, n] { columns.resize(n); }...};
  util::parallel_for(
      pool, sizeof...(Columns), [&](std::size_t j) { jobs[j](); }, 1);
}

}  // namespace

void Dataset::build_indices(flow::FlowLog data, util::ThreadPool& pool) {
  // Sort the control log concurrently with the flow-log order check.
  auto control_sorted = pool.submit([&] { sort_control(pool, control_); });
  // A generated log arrives time-sorted (Platform::finish merges its slices
  // stably), and a stable sort of a sorted log is the identity, so only a
  // log sanitize found out of order takes the stable sort. Neither
  // sanitize pass adds an inversion: the quarantine erase keeps row order
  // and the dedupe sort orders by time first.
  if (quality_.reordered_flows != 0) {
    util::parallel_sort(pool, data.begin(), data.end(),
                        [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
                          return a.time < b.time;
                        });
  }
  control_sorted.get();

  // The route-server replay is inherently sequential (open/close state),
  // but it only walks the control plane — overlap it with the trie build
  // and the column build below.
  auto blackholes_done = pool.submit([&] { replay_blackholes(); });
  auto lpm_done = pool.submit([&] {
    // FlatLpm freezes the origin table with last-wins dedupe — exactly the
    // overwrite semantics the trie's insert loop had.
    origin_lpm_ = net::FlatLpm<bgp::Asn>(origin_prefixes_);
  });

  // The log is time-sorted now, so ordering row positions by address alone
  // gives the (address, time, flow index) total order, identical at any
  // thread count. Rows must fit the sort keys' 32-bit position half.
  const std::size_t n = data.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Dataset: flow count exceeds 2^32 rows");
  }
  mac_dict_ = mac_dictionary(pool, data);
  std::unordered_map<std::uint64_t, std::uint32_t> dict_id;
  dict_id.reserve(mac_dict_.size());
  for (std::size_t i = 0; i < mac_dict_.size(); ++i) {
    dict_id[mac_dict_[i]] = static_cast<std::uint32_t>(i);
  }
  const std::vector<std::uint32_t> member_of = member_tables();

  // One order buffer serves the src sort and then the dst sort, and each
  // side's columns are gathered right after its sort, so the log, both
  // sides' columns and the sort buffers are never resident at once.
  flow::FlowColumns& c = columns_;
  const auto order = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  {
    const auto keys = std::make_unique_for_overwrite<std::size_t[]>(n);
    const auto scratch = std::make_unique_for_overwrite<std::size_t[]>(n);
    address_order(
        pool, [&](std::size_t i) { return data[i].src_ip.value(); },
        std::span(keys.get(), n), std::span(scratch.get(), n),
        std::span(order.get(), n));
    size_columns(pool, n, c.s_time, c.s_src_ip, c.s_src_port, c.s_dst_port);
    for_row_shards(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const flow::FlowRecord& r = data[order[k]];
        c.s_src_ip[k] = r.src_ip.value();
        c.s_time[k] = r.time;
        c.s_src_port[k] = r.src_port;
        c.s_dst_port[k] = r.dst_port;
      }
    });
    address_order(
        pool, [&](std::size_t i) { return data[i].dst_ip.value(); },
        std::span(keys.get(), n), std::span(scratch.get(), n),
        std::span(order.get(), n));
  }

  size_columns(pool, n, c.time, c.bytes, c.src_ip, c.dst_ip, c.packets,
               c.src_member, c.src_mac_id, c.dst_mac_id, c.src_port,
               c.dst_port, c.proto);
  c.dropped_words.assign((n + 63) / 64, 0);
  std::vector<std::uint64_t> unknown(row_shard_count(n));
  for_row_shards(pool, n, [&](std::size_t s, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const flow::FlowRecord& r = data[order[k]];
      c.time[k] = r.time;
      c.src_ip[k] = r.src_ip.value();
      c.dst_ip[k] = r.dst_ip.value();
      c.proto[k] = static_cast<std::uint8_t>(r.proto);
      c.src_port[k] = r.src_port;
      c.dst_port[k] = r.dst_port;
      c.packets[k] = r.packets;
      c.bytes[k] = r.bytes;
      c.src_mac_id[k] = dict_id.find(r.src_mac.value())->second;
      c.dst_mac_id[k] = dict_id.find(r.dst_mac.value())->second;
    }
    unknown[s] = derive_member_columns(c, mac_dict_, member_of, begin, end);
  });
  quality_.unknown_mac_flows =
      std::accumulate(unknown.begin(), unknown.end(), std::size_t{0});
  flow::FlowLog().swap(data);  // the columns hold every field now

  size_columns(pool, n, time_order_);
  for_row_shards(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      time_order_[order[k]] = static_cast<std::uint32_t>(k);
    }
  });
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

Dataset::Summary Dataset::summary(util::ThreadPool* pool_opt,
                                  KernelEngine) const {
  Summary s;
  s.control_updates = control_.size();
  s.blackhole_updates = blackhole_updates().size();
  s.blackholed_prefixes = rs_index_.prefix_count();
  s.flow_records = store_ != nullptr
                       ? static_cast<std::size_t>(store_->flow_count())
                       : columns_.size();

  // Shard the volume sums over the pool; integer addition is associative,
  // so the merged totals are exact at any thread count and in either
  // residency mode (the chunks partition the rows the columns hold).
  util::ThreadPool& pool = util::pool_or_global(pool_opt);
  struct Volume {
    std::uint64_t packets{0}, bytes{0}, dropped_packets{0}, dropped_bytes{0};
  };
  const auto add_rows = [](Volume& v, const flow::FlowColumns& c,
                           std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      v.packets += c.packets[i];
      v.bytes += c.bytes[i];
      if (c.dropped(i)) {
        v.dropped_packets += c.packets[i];
        v.dropped_bytes += c.bytes[i];
      }
    }
  };
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("summary");
  const obs::StopWatch watch;
  std::vector<Volume> sums;
  if (store_ != nullptr) {
    // Chunked mode: one shard per chunk, each served from the store's
    // shared chunk cache (decoded once on a miss).
    sums = util::parallel_map(pool, store_->chunk_count(), [&](std::size_t k) {
      Volume v;
      const std::shared_ptr<const store::ChunkData> ch = store_->chunk(k);
      add_rows(v, ch->cols, 0, ch->cols.size());
      return v;
    });
  } else {
    sums.resize(row_shard_count(columns_.size()));
    for_row_shards(pool, columns_.size(),
                   [&](std::size_t k, std::size_t begin, std::size_t end) {
                     add_rows(sums[k], columns_, begin, end);
                   });
  }
  metrics.rows->add(s.flow_records);
  metrics.ns->add(watch.elapsed_ns());
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

void put_u64(util::container::Writer& w, std::uint64_t v) { put(w, v); }

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

/// dataset.save.{dict,encode,write}_us: where a save spends its wall time
/// (see docs/observability.md). dict_us is the dictionary-side prep: the
/// rows' time positions chunks store beside their MAC ids.
struct SavePhaseMetrics {
  obs::Counter& dict_us;
  obs::Counter& encode_us;
  obs::Counter& write_us;
};

const SavePhaseMetrics& save_phase_metrics() {
  auto& reg = obs::Registry::global();
  static const SavePhaseMetrics m{reg.counter("dataset.save.dict_us"),
                                  reg.counter("dataset.save.encode_us"),
                                  reg.counter("dataset.save.write_us")};
  return m;
}

/// What one in-flight chunk encodes into: its payload, the payload's CRC32C
/// and its zone map. Slots are reused from chunk to chunk, so the encoder
/// allocates only while their buffers first grow.
struct ChunkSlot {
  std::vector<std::uint8_t> payload;
  std::uint32_t crc{0};
  store::ChunkMeta meta;
};

/// Write `count` chunk sections of kind `section`, then their zone maps
/// as the `index_section`. `encode(k, slot)` fills chunk k's payload and
/// returns its zone map. Chunk k encodes and checksums on the pool into
/// slots[k % slots.size()] while this thread writes the chunks before it;
/// it is submitted only once chunk k - slots.size() is written, so at most
/// that many chunks are in flight and they land in chunk order: the bytes
/// do not depend on the pool. The time this thread spends getting encoded
/// chunks (waiting, or encoding inline on a serial pool) is added to
/// `encode_us`.
template <typename Encode>
void write_chunks(util::container::Writer& w, util::ThreadPool& pool,
                  std::span<ChunkSlot> slots, std::size_t count,
                  std::uint32_t section, std::uint32_t index_section,
                  const Encode& encode, std::uint64_t& encode_us) {
  std::deque<std::future<void>> window;
  std::size_t next = 0;
  const auto fill_window = [&] {
    const obs::StopWatch watch;
    while (next < count && window.size() < slots.size()) {
      ChunkSlot& slot = slots[next % slots.size()];
      window.push_back(pool.submit([&encode, &slot, k = next++] {
        slot.meta = encode(k, slot);
        slot.crc = util::crc32c(slot.payload.data(), slot.payload.size());
      }));
    }
    encode_us += watch.elapsed_us();
  };
  std::vector<std::uint8_t> index;
  try {
    fill_window();
    for (std::size_t k = 0; k < count; ++k) {
      const obs::StopWatch wait;
      window.front().get();
      encode_us += wait.elapsed_us();
      window.pop_front();
      const ChunkSlot& slot = slots[k % slots.size()];
      w.write_section(section, slot.payload.data(), slot.payload.size(),
                      slot.crc);
      store::append_meta(index, slot.meta);
      fill_window();
    }
  } catch (...) {
    // The queued encodes reference `encode` and the slots: let them finish.
    for (auto& f : window) {
      if (f.valid()) f.wait();
    }
    throw;
  }
  w.begin_section(index_section);
  put_u64(w, count);
  w.write(index.data(), index.size());
  w.end_section();
}

}  // namespace

util::Status Dataset::try_save(const std::string& path,
                               util::ThreadPool* pool_opt) const {
  const obs::TraceSpan span("dataset.try_save", "io");
  const obs::StopWatch wall;
  util::Status st = [&]() -> util::Status {
    if (store_ != nullptr) {
      return util::failed_precondition(
          "Dataset::try_save: " + path +
          ": chunked dataset holds no materialized flows to rewrite; load it "
          "with Dataset::try_load first");
    }
    const std::size_t n = columns_.size();
    if (n >= std::numeric_limits<std::uint32_t>::max()) {
      return util::invalid_argument("Dataset::try_save: " + path +
                                    ": flow count exceeds the v3 row-position "
                                    "range");
    }
    util::ThreadPool& pool = util::pool_or_global(pool_opt);
    const SavePhaseMetrics& phase = save_phase_metrics();
    obs::StopWatch watch;

    // Every dst row's time position, the inverse of time_order_.
    const auto orig_pos = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    for_row_shards(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t p = begin; p < end; ++p) {
        orig_pos[time_order_[p]] = static_cast<std::uint32_t>(p);
      }
    });
    lap(phase.dict_us, watch);

    const std::size_t rows_per_chunk = store::chunk_rows();
    const std::size_t n_chunks = (n + rows_per_chunk - 1) / rows_per_chunk;

    // Both chunk families read the columns in place.
    const auto encode_dst = [&](std::size_t k, ChunkSlot& slot) {
      const std::size_t base = k * rows_per_chunk;
      const std::size_t rows = std::min(rows_per_chunk, n - base);
      store::DstChunkRows chunk = store::dst_rows(columns_, base, rows);
      chunk.orig_pos = std::span<const std::uint32_t>(orig_pos.get() + base, rows);
      store::encode_dst_chunk(chunk, slot.payload);
      return store::make_dst_meta(chunk, base);
    };
    const auto encode_src = [&](std::size_t k, ChunkSlot& slot) {
      const std::size_t base = k * rows_per_chunk;
      const store::SrcChunkRows chunk = store::src_rows(
          columns_, base, std::min(rows_per_chunk, n - base));
      store::encode_src_chunk(chunk, slot.payload);
      return store::make_src_meta(chunk, base);
    };
    // The slots' buffers are allocated here, at their largest, so no pool
    // thread reallocates them and they leave no garbage in its heap.
    const std::size_t slot_rows = std::min(rows_per_chunk, n);
    std::vector<ChunkSlot> slots(std::min(pool.concurrency(), n_chunks));
    for (ChunkSlot& slot : slots) {
      slot.payload.reserve(store::max_dst_chunk_bytes(slot_rows));
    }

    // Atomic commit: the container streams into `<path>.tmp`, which is
    // fsync'd and renamed over `path` only once complete — a crash mid-save
    // leaves the previous file (or nothing), never a torn one. At most the
    // pool's concurrency of chunk payloads is in memory at a time,
    // regardless of corpus size.
    std::uint64_t encode_us = 0;
    const util::Status written =
        util::atomic_write_file(path, [&](std::ostream& os) -> util::Status {
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
          put_u64(w, mac_dict_.size());
          for (const std::uint64_t mac : mac_dict_) put_u64(w, mac);
          w.end_section();

          write_chunks(w, pool, slots, n_chunks, store::kSecChunk,
                       store::kSecChunkIndex, encode_dst, encode_us);
          write_chunks(w, pool, slots, n_chunks, store::kSecSrcChunk,
                       store::kSecSrcIndex, encode_src, encode_us);
          return w.finish().with_context("Dataset::try_save: " + path);
        });
    // Encodes overlap the writes: encode_us is what they add to the
    // writing thread, and write_us the rest (tables, payload writes, fsync,
    // rename).
    phase.encode_us.add(encode_us);
    phase.write_us.add(watch.elapsed_us() - encode_us);
    return written;
  }();
  record_io(io_metrics("save"), st.ok(), wall);
  return st;
}

namespace {

/// Bounded reads off a section payload in memory: a read past the end
/// yields zeros and fails the cursor for good.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok{true};

  template <typename T>
  T get() {
    T v{};
    ok = ok && static_cast<std::size_t>(end - p) >= sizeof(v);
    if (!ok) return v;
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    return v;
  }
};

/// The entries of fixed-width table section `id`: a u64 count, then
/// exactly that many packed `T`s, copied out in one go.
template <typename T>
util::Result<std::vector<T>> read_table(std::istream& is,
                                        const util::container::Toc& toc,
                                        std::uint32_t id) {
  const auto bytes = util::container::read_section(is, toc, id);
  if (!bytes.ok()) return bytes.status();
  std::uint64_t count = 0;
  const std::size_t size = bytes->size();
  if (size >= 8) std::memcpy(&count, bytes->data(), 8);
  if (size < 8 || (size - 8) % sizeof(T) != 0 ||
      (size - 8) / sizeof(T) != count) {
    return util::data_loss("section " + util::container::section_name(id) +
                           ": length does not match element count");
  }
  std::vector<T> entries(count);
  if (count != 0) std::memcpy(entries.data(), bytes->data() + 8, size - 8);
  return entries;
}

}  // namespace

util::Status Dataset::read_tables(std::istream& is,
                                  const util::container::Toc& toc) {
  // --- PERI: the analysis period, two TimeMs -------------------------------
  const auto peri = util::container::read_section(is, toc, kSecPeriod);
  if (!peri.ok()) return peri.status();
  if (peri->size() != 2 * sizeof(util::TimeMs)) {
    return util::data_loss("section PERI: unexpected length");
  }
  std::memcpy(&period_.begin, peri->data(), sizeof(util::TimeMs));
  std::memcpy(&period_.end, peri->data() + 8, sizeof(util::TimeMs));

  // --- CTRL: variable-width updates; counts bounded by the bytes left -----
  const auto ctrl = util::container::read_section(is, toc, kSecControl);
  if (!ctrl.ok()) return ctrl.status();
  Cursor in{ctrl->data(), ctrl->data() + ctrl->size()};
  // A count is read whole, and its elements, at least `min_bytes` each,
  // must fit in what is left of the section.
  auto checked_count =
      [&](const char* what,
          std::size_t min_bytes) -> util::Result<std::uint64_t> {
    const auto n = in.get<std::uint64_t>();
    if (!in.ok) return util::data_loss("section CTRL: truncated decode");
    if (n > static_cast<std::size_t>(in.end - in.p) / min_bytes) {
      return util::data_loss(std::string("section CTRL: implausible ") + what +
                             " count");
    }
    return n;
  };
  // time, type, sender, origin, network, length, next hop, community count
  constexpr std::size_t kMinUpdateBytes = 8 + 1 + 4 + 4 + 4 + 1 + 4 + 8;
  // A community is its global then its local half, as in bgp::Community.
  static_assert(sizeof(bgp::Community) == 4);
  const auto n_control = checked_count("control update", kMinUpdateBytes);
  if (!n_control.ok()) return n_control.status();
  control_.resize(*n_control);
  for (auto& u : control_) {
    u.time = in.get<util::TimeMs>();
    u.type = static_cast<bgp::UpdateType>(in.get<std::uint8_t>());
    u.sender_asn = in.get<bgp::Asn>();
    u.origin_asn = in.get<bgp::Asn>();
    const auto net_v = in.get<std::uint32_t>();
    const auto len = in.get<std::uint8_t>();
    // Refused as in the frame decoder: Prefix would clamp the length.
    if (u.type > bgp::UpdateType::kWithdraw) {
      return util::data_loss("section CTRL: bad bgp update type");
    }
    if (len > 32) return util::data_loss("section CTRL: bad prefix length");
    u.prefix = net::Prefix(net::Ipv4(net_v), len);
    u.next_hop = net::Ipv4(in.get<std::uint32_t>());
    const auto n_comms = checked_count("community", sizeof(bgp::Community));
    if (!n_comms.ok()) return n_comms.status();
    u.communities.resize(*n_comms);
    for (auto& c : u.communities) c = in.get<bgp::Community>();
  }

  // --- MACS / ORIG: fixed-width tables with exact-length checks -----------
  const auto macs = read_table<DiskMacEntry>(is, toc, kSecMacs);
  if (!macs.ok()) return macs.status();
  mac_to_asn_.reserve(macs->size());
  for (const DiskMacEntry& d : *macs) mac_to_asn_[net::Mac(d.mac)] = d.asn;

  const auto origins = read_table<DiskOriginEntry>(is, toc, kSecOrigins);
  if (!origins.ok()) return origins.status();
  origin_prefixes_.reserve(origins->size());
  for (const DiskOriginEntry& d : *origins) {
    // Copy the packed field: binding a reference to it is misaligned.
    origin_prefixes_.emplace_back(
        net::Prefix(net::Ipv4(d.network), d.length), bgp::Asn{d.asn});
  }
  return util::ok_status();
}

namespace {

/// dataset.load.{read,index,decode,columns}_us: where a materializing load
/// spends its wall time, and control_us: its control-plane task, which
/// runs during decode_us, or a chunked open's table read and control
/// indices (see docs/observability.md).
struct LoadPhaseMetrics {
  obs::Counter& read_us;
  obs::Counter& index_us;
  obs::Counter& decode_us;
  obs::Counter& columns_us;
  obs::Counter& control_us;
};

const LoadPhaseMetrics& load_phase_metrics() {
  auto& reg = obs::Registry::global();
  static const LoadPhaseMetrics m{
      reg.counter("dataset.load.read_us"), reg.counter("dataset.load.index_us"),
      reg.counter("dataset.load.decode_us"),
      reg.counter("dataset.load.columns_us"),
      reg.counter("dataset.load.control_us")};
  return m;
}

/// `st` with the caller and the file as context.
util::Status load_error(util::Status st, const char* op,
                        const std::string& path) {
  return std::move(st).with_context(std::string(op) + ": " + path);
}

/// Both v3 load modes start here: open `path` into `is` and read its TOC.
/// `op` names the caller in errors.
util::Result<util::container::Toc> open_toc(std::ifstream& is,
                                            const std::string& path,
                                            const char* op) {
  is.open(path, std::ios::binary);
  if (!is) return util::not_found(std::string(op) + ": cannot open " + path);
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  auto toc = util::container::read_toc(is, file_size);
  if (!toc.ok()) return load_error(toc.status(), op, path);
  return toc;
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

util::Status Dataset::fill_from_store(const store::FlowStore& store,
                                      util::ThreadPool& pool,
                                      const ControlTask& control) {
  const LoadPhaseMetrics& phase = load_phase_metrics();
  obs::StopWatch watch;
  const std::size_t n = store.flow_count();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    return util::data_loss(
        "section SMET: flow count exceeds the v3 row-position range");
  }
  flow::FlowColumns& c = columns_;
  size_columns(pool, n, c.time, c.s_time, c.bytes, c.src_ip, c.dst_ip,
               c.packets, c.src_member, c.src_mac_id, c.dst_mac_id,
               c.s_src_ip, time_order_, c.src_port, c.dst_port, c.s_src_port,
               c.s_dst_port, c.proto);
  c.dropped_words.assign((n + 63) / 64, 0);
  std::vector<std::uint64_t> seen((n + 63) / 64, 0);
  lap(phase.index_us, watch);

  // (dst_ip, time, time position) strictly ascending: the order the
  // constructor's dst sort produces, with its position tie-break.
  const auto dst_ordered = [&](std::size_t a, std::uint32_t pos_a,
                               std::size_t b, std::uint32_t pos_b) {
    if (c.dst_ip[a] != c.dst_ip[b]) return c.dst_ip[a] < c.dst_ip[b];
    if (c.time[a] != c.time[b]) return c.time[a] < c.time[b];
    return pos_a < pos_b;
  };
  const auto src_ordered = [&](std::size_t a, std::size_t b) {
    if (c.s_src_ip[a] != c.s_src_ip[b]) return c.s_src_ip[a] < c.s_src_ip[b];
    return c.s_time[a] <= c.s_time[b];
  };

  struct ChunkTally {
    util::Status status;
    std::uint64_t fingerprint{0};
    std::uint32_t first_pos{0};  ///< time position of the chunk's first row
    std::uint32_t last_pos{0};   ///< and of its last
  };
  const std::vector<store::ChunkMeta>& dst_metas = store.dst_metas();
  const std::vector<store::ChunkMeta>& src_metas = store.src_metas();

  // One task per dst chunk: decode into its row slice of the columns and
  // invert the row positions into time_order_. Row counts need not be
  // multiples of 64, so seen-bitset words at chunk edges are shared
  // between tasks and set with atomic ORs.
  const auto fill_dst = [&](std::size_t k) {
    ChunkTally tally;
    const std::size_t b = dst_metas[k].row_begin;
    const std::size_t rows = dst_metas[k].row_count;
    const auto slice = [&](auto& col) { return std::span(col).subspan(b, rows); };
    std::vector<std::uint32_t> pos(rows);
    // src_member and dropped_words stay empty: both need the member ids.
    const store::DstChunkSpans out{.time = slice(c.time),
                                   .src_ip = slice(c.src_ip),
                                   .dst_ip = slice(c.dst_ip),
                                   .proto = slice(c.proto),
                                   .src_port = slice(c.src_port),
                                   .dst_port = slice(c.dst_port),
                                   .packets = slice(c.packets),
                                   .bytes = slice(c.bytes),
                                   .src_mac_id = slice(c.src_mac_id),
                                   .dst_mac_id = slice(c.dst_mac_id),
                                   .src_member = {},
                                   .dropped_words = {},
                                   .orig_pos = pos};
    tally.status = store.try_decode(k, out);
    if (!tally.status.ok()) return tally;
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
      time_order_[p] = static_cast<std::uint32_t>(row);
      if (i > 0 && !dst_ordered(row - 1, pos[i - 1], row, p)) {
        tally.status = chunk_error(
            "CHNK", k, "rows are not in (dst_ip, time, position) order");
        return tally;
      }
      tally.fingerprint += row_fingerprint(c.src_ip[row], c.time[row],
                                           c.src_port[row], c.dst_port[row]);
    }
    if (rows > 0) {
      tally.first_pos = pos.front();
      tally.last_pos = pos.back();
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
  const util::Result<std::vector<std::uint32_t>>& member_of = control.get();
  if (!member_of.ok()) return member_of.status();
  for (const ChunkTally& tally : tallies) {
    if (!tally.status.ok()) return tally.status;
  }
  // With the member ids known, each dst chunk derives its member and
  // dropped columns (derive_member_columns ORs the shared edge words).
  const std::vector<std::uint64_t> unknown =
      util::parallel_map(pool, dst_metas.size(), [&](std::size_t k) {
        const std::size_t b = dst_metas[k].row_begin;
        return derive_member_columns(c, mac_dict_, *member_of, b,
                                     b + dst_metas[k].row_count);
      }, 1);
  quality_.unknown_mac_flows =
      std::accumulate(unknown.begin(), unknown.end(), std::size_t{0});
  lap(phase.decode_us, watch);

  // Whole-corpus checks the per-chunk tasks cannot make alone.
  std::uint64_t dst_fingerprint = 0;
  std::uint64_t src_fingerprint = 0;
  for (std::size_t t = 0; t < tallies.size(); ++t) {
    (t < dst_metas.size() ? dst_fingerprint : src_fingerprint) +=
        tallies[t].fingerprint;
  }
  // Row b - 1 is the last row of the nearest non-empty chunk before k.
  std::size_t prev = dst_metas.size();
  for (std::size_t k = 0; k < dst_metas.size(); ++k) {
    if (dst_metas[k].row_count == 0) continue;
    const std::size_t b = dst_metas[k].row_begin;
    if (prev < k && !dst_ordered(b - 1, tallies[prev].last_pos, b,
                                 tallies[k].first_pos)) {
      return chunk_error("CHNK", k,
                         "rows are not in (dst_ip, time, position) order "
                         "across the chunk boundary");
    }
    prev = k;
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
  if (count_inversions(pool, n, [&](std::size_t p) {
        return c.time[time_order_[p]];
      }) != 0) {
    return util::data_loss(
        "section CHNK: row positions do not put the flow log in time order");
  }
  lap(phase.columns_us, watch);
  return util::ok_status();
}

util::Result<Dataset> Dataset::try_load(const std::string& path,
                                        util::ThreadPool* pool) {
  const obs::TraceSpan span("dataset.try_load", "io");
  const obs::StopWatch wall;
  util::Result<Dataset> result = [&]() -> util::Result<Dataset> {
    constexpr const char* kOp = "Dataset::try_load";
    const LoadPhaseMetrics& phase = load_phase_metrics();
    obs::StopWatch watch;
    std::ifstream is;
    const util::Result<util::container::Toc> toc = open_toc(is, path, kOp);
    if (!toc.ok()) return toc.status();
    const auto store = store::FlowStore::open(path);
    Dataset d;
    if (store.ok()) d.mac_dict_ = (*store)->mac_dict();
    lap(phase.read_us, watch);

    // The control plane builds on one pool task while this thread decodes
    // the flows; the task writes only control-plane members. Sanitation
    // ran before the file was written, and the fill checks the flow log's
    // time order, so of the constructor's sanitation counts only the
    // control-plane input order and the unknown-MAC flows (which the fill
    // re-derives) can be non-zero.
    util::ThreadPool& workers = util::pool_or_global(pool);
    const ControlTask control =
        workers
            .submit([&]() -> util::Result<std::vector<std::uint32_t>> {
              const obs::StopWatch own;
              if (util::Status st = d.read_tables(is, *toc); !st.ok()) {
                return st;
              }
              d.quality_.reordered_updates =
                  count_inversions(workers, d.control_);
              std::vector<std::uint32_t> member_of = d.build_control_indices();
              phase.control_us.add(own.elapsed_us());
              return member_of;
            })
            .share();
    // The task uses `d`, `is` and `toc`: it is joined on every path out,
    // exceptions included.
    struct Join {
      const ControlTask& task;
      ~Join() { task.wait(); }
    } const join{control};
    const util::Status flows = store.ok()
                                   ? d.fill_from_store(**store, workers, control)
                                   : store.status();
    // A table error outranks a store error, which outranks a chunk error.
    if (const auto& tables = control.get(); !tables.ok()) {
      return load_error(tables.status(), kOp, path);
    }
    if (!flows.ok()) return load_error(flows, kOp, path);
    return d;
  }();
  record_io(io_metrics("load"), result.ok(), wall);
  return result;
}

util::Result<Dataset> Dataset::try_open_chunked(const std::string& path) {
  const obs::TraceSpan span("dataset.try_open_chunked", "io");
  const obs::StopWatch wall;
  util::Result<Dataset> result = [&]() -> util::Result<Dataset> {
    constexpr const char* kOp = "Dataset::try_open_chunked";
    std::ifstream is;
    const util::Result<util::container::Toc> toc = open_toc(is, path, kOp);
    if (!toc.ok()) return toc.status();
    Dataset d;
    const obs::StopWatch control;
    if (util::Status st = d.read_tables(is, *toc); !st.ok()) {
      return load_error(std::move(st), kOp, path);
    }
    // Shell construction: control-plane state and indices as usual, flows
    // left on disk behind the pruned chunk reader. columns_ and
    // time_order_ stay empty — every flow access goes through store_.
    (void)d.build_control_indices();
    load_phase_metrics().control_us.add(control.elapsed_us());
    const auto store = store::FlowStore::open(path);
    if (!store.ok()) return load_error(store.status(), kOp, path);
    d.store_ = *store;
    // Sanitation ran before the file was written; the only quality signal
    // that survives serialization is the persisted unknown-MAC count.
    d.quality_.unknown_mac_flows =
        static_cast<std::size_t>(d.store_->unknown_mac_flows());
    return d;
  }();
  record_io(io_metrics("load"), result.ok(), wall);
  return result;
}

}  // namespace bw::core
