// Load equivalence: Dataset::try_load decodes a .bwds v3 file straight
// into its columns, with no sort, so it must reproduce exactly what the
// raw-log constructor builds by sorting. The oracle is the constructor run
// over the same logs the file was written from; every FlowColumns vector,
// the sanitation counts, the member-source table, the FlowView
// destination-scan visit order and the rendered report must match, for
// several corpora, chunk sizes that do and do not divide into 64-row
// bitmap words, and serial and 8-way pools. The flows() view of both the
// constructed and the loaded dataset must give back the input flow log
// record for record, including rows with unknown MACs, blackhole rows and
// equal-time rows.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/flow_view.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bw::core {
namespace {

namespace fs = std::filesystem;

/// One dst row as a destination scan sees it.
struct Row {
  util::TimeMs time;
  std::uint32_t src_ip, dst_ip;
  std::uint8_t proto;
  std::uint16_t src_port, dst_port;
  std::uint32_t packets;
  std::uint64_t bytes;
  bool dropped;
  std::uint32_t src_member;

  friend bool operator==(const Row&, const Row&) = default;
};

void expect_same_columns(const flow::FlowColumns& a,
                         const flow::FlowColumns& b, const std::string& what) {
  EXPECT_EQ(a.time, b.time) << what;
  EXPECT_EQ(a.src_ip, b.src_ip) << what;
  EXPECT_EQ(a.dst_ip, b.dst_ip) << what;
  EXPECT_EQ(a.proto, b.proto) << what;
  EXPECT_EQ(a.src_port, b.src_port) << what;
  EXPECT_EQ(a.dst_port, b.dst_port) << what;
  EXPECT_EQ(a.packets, b.packets) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.dropped_words, b.dropped_words) << what;
  EXPECT_EQ(a.src_member, b.src_member) << what;
  EXPECT_EQ(a.src_mac_id, b.src_mac_id) << what;
  EXPECT_EQ(a.dst_mac_id, b.dst_mac_id) << what;
  EXPECT_EQ(a.s_src_ip, b.s_src_ip) << what;
  EXPECT_EQ(a.s_time, b.s_time) << what;
  EXPECT_EQ(a.s_src_port, b.s_src_port) << what;
  EXPECT_EQ(a.s_dst_port, b.s_dst_port) << what;
}

/// Rows visited by the FlowView destination scan, in visit order.
std::vector<Row> visit(const Dataset& d, const net::Prefix& p,
                       util::TimeRange range) {
  std::vector<Row> out;
  d.view().for_each_dst_row(
      p, range, [&](const flow::FlowColumns& c, std::size_t i) {
        out.push_back({c.time[i], c.src_ip[i], c.dst_ip[i], c.proto[i],
                       c.src_port[i], c.dst_port[i], c.packets[i], c.bytes[i],
                       c.dropped(i), c.src_member[i]});
      });
  return out;
}

/// Every record of `d.flows()` equals the time-sorted input `log`, in
/// order.
void expect_flows_are(const Dataset& d, const flow::FlowLog& log,
                      const std::string& what) {
  const flow::TimeOrderView flows = d.flows();
  ASSERT_EQ(flows.size(), log.size()) << what;
  std::size_t i = 0;
  for (const flow::FlowRecord& rec : flows) {
    ASSERT_EQ(flows.time(i), log[i].time) << what << ": flow " << i;
    ASSERT_TRUE(rec == log[i]) << what << ": flow " << i;
    ++i;
  }
}

/// The generated flow log of `source`, with about one row in 16 followed
/// by a copy at the same time whose handover MAC, egress MAC, or both
/// (beside a blackhole egress) have no member: still time-sorted, with
/// equal-time runs whose order only the input order decides.
flow::FlowLog input_log(const Dataset& source, std::uint64_t seed) {
  const net::Mac unknown(0x02000000BEEFULL);
  util::Rng rng(seed);
  flow::FlowLog log;
  for (const flow::FlowRecord& rec : source.flows()) {
    log.push_back(rec);
    if (!rng.chance(1.0 / 16)) continue;
    flow::FlowRecord odd = rec;
    odd.src_port = static_cast<net::Port>(rng.uniform_int(1, 65535));
    switch (rng.uniform_int(0, 2)) {
      case 0: odd.src_mac = unknown; break;
      case 1: odd.dst_mac = unknown; break;
      default:
        odd.src_mac = unknown;
        odd.dst_mac = net::Mac::blackhole();
    }
    log.push_back(odd);
  }
  return log;
}

std::string report_of(const Dataset& d) {
  util::ThreadPool serial(0);
  AnalysisConfig cfg;
  cfg.pool = &serial;
  return render_markdown(d, run_pipeline(d, cfg), nullptr);
}

TEST(LoadEquivalenceProperty, TryLoadEqualsTheRawLogConstructor) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("bw_load_equivalence." + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Pools of one and eight threads: what BW_THREADS=1 and =8 give the
  // global pool.
  util::ThreadPool one(0);
  util::ThreadPool eight(7);

  for (const std::uint64_t seed : {5u, 17u, 3001u}) {
    gen::ScenarioConfig cfg;
    cfg.scale = 0.01;
    cfg.seed = seed;
    cfg.period = {0, util::days(2)};
    const ScenarioRun run = run_scenario(cfg, std::string{});
    const Dataset& source = run.dataset;
    const flow::FlowLog log = input_log(source, seed);

    // The oracle: the sorting constructor over the logs being saved.
    const auto build = [&](util::ThreadPool* pool) {
      return Dataset(source.control(), log, source.mac_table(),
                     source.origin_prefixes(), source.period(),
                     Dataset::BuildOptions(), pool);
    };
    const Dataset oracle = build(&one);
    expect_flows_are(oracle, log, "constructed, 1 thread");
    expect_flows_are(build(&eight), log, "constructed, 8 threads");
    ASSERT_GT(oracle.quality().unknown_mac_flows, 0u);
    ASSERT_GT(oracle.summary().dropped_packets, 0u);
    const std::string oracle_md = report_of(oracle);
    ASSERT_GT(oracle_md.size(), 1000u);

    // Sample prefixes: every event prefix, a /16 and a host with traffic.
    std::vector<net::Prefix> prefixes;
    for (const auto& ev : run_pipeline(oracle).events) {
      prefixes.push_back(ev.prefix);
    }
    // Several 1000-row chunks, and hundreds of 16-row ones.
    ASSERT_GT(oracle.flows().size(), 3000u);
    const net::Ipv4 busy = oracle.flows()[oracle.flows().size() / 2].dst_ip;
    prefixes.push_back(net::Prefix::host(busy));
    prefixes.push_back(net::Prefix(busy, 16));
    const util::TimeRange half{oracle.period().begin,
                               oracle.period().begin + util::days(1)};

    // "" keeps the default 128Ki rows (one chunk here); 16 and 1000 are not
    // multiples of 64, so chunk edges split bitmap words.
    for (const char* rows : {"", "16", "1000"}) {
      const std::string path = (dir / ("corpus_" + std::to_string(seed) +
                                       "_" + rows + ".bwds"))
                                   .string();
      ::setenv("BW_STORE_CHUNK_ROWS", rows, 1);
      ASSERT_TRUE(oracle.try_save(path).ok());
      ::unsetenv("BW_STORE_CHUNK_ROWS");

      for (util::ThreadPool* pool : {&one, &eight}) {
        const std::string what = "seed " + std::to_string(seed) +
                                 ", chunk rows '" + rows + "', " +
                                 std::to_string(pool->concurrency()) +
                                 " threads";
        auto loaded = Dataset::try_load(path, pool);
        ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().to_string();

        expect_same_columns(loaded->columns(), oracle.columns(), what);
        expect_flows_are(*loaded, log, "loaded, " + what);
        EXPECT_EQ(loaded->quality(), oracle.quality()) << what;
        ASSERT_EQ(loaded->source_as_count(), oracle.source_as_count()) << what;
        for (std::uint32_t id = 0; id < oracle.source_as_count(); ++id) {
          EXPECT_EQ(loaded->source_as(id), oracle.source_as(id)) << what;
        }
        for (const net::Prefix& p : prefixes) {
          for (const util::TimeRange range : {oracle.period(), half}) {
            const auto got = visit(*loaded, p, range);
            const auto want = visit(oracle, p, range);
            ASSERT_EQ(got.size(), want.size()) << what << " " << p.to_string();
            for (std::size_t i = 0; i < want.size(); ++i) {
              ASSERT_TRUE(got[i] == want[i])
                  << what << " " << p.to_string() << " visit " << i;
            }
          }
        }
        EXPECT_EQ(report_of(*loaded), oracle_md) << what;
      }
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bw::core
