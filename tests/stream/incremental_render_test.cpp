// Renderer pins for the rolling JSONL: figures_json() and the line's own
// doubles must print exactly what `ostream << setprecision(17)` printed
// (`%.17g`), edge values included, so rolling files and the ledger's
// digests stay byte-identical across renderer rewrites.
#include <gtest/gtest.h>

#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "stream/incremental/rolling.hpp"
#include "util/time.hpp"

namespace bw::stream::incremental {
namespace {

const std::vector<double>& edge_doubles() {
  static const std::vector<double> values = {
      0.0,    1.0,     0.1,    1.0 / 3.0,
      1e-300, std::numeric_limits<double>::denorm_min(),
      1e21,   0.5};
  return values;
}

/// The reference text: the stream renderer the rolling output was defined
/// with.
std::string ostream_text(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

TEST(RollingRenderTest, EdgeDoublesMatchTheStreamRenderer) {
  const std::vector<std::string> pinned = {
      "0",      "1",       "0.10000000000000001", "0.33333333333333331",
      "1e-300", "4.9406564584124654e-324", "1e+21",  "0.5"};
  ASSERT_EQ(pinned.size(), edge_doubles().size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(ostream_text(edge_doubles()[i]), pinned[i]);
  }

  core::DropRateReport drop;
  drop.event_rates_len32 = edge_doubles();
  drop.event_rates_len24 = {edge_doubles().rbegin(), edge_doubles().rend()};
  core::PortStatsReport ports;
  for (const double v : edge_doubles()) {
    core::HostPortStats h;
    h.ip = net::Ipv4(0x0a000001u +
                     static_cast<std::uint32_t>(ports.hosts.size()));
    h.port_variation = v;
    ports.hosts.push_back(h);
  }
  const std::string json =
      RollingReporter::figures_json(drop, ports, core::CollateralReport{});

  std::string rates32;
  std::string rates24;
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    rates32 += (i ? "," : "") + pinned[i];
    rates24 += (i ? "," : "") + pinned[pinned.size() - 1 - i];
  }
  EXPECT_NE(json.find("\"rates_len32\":[" + rates32 + "]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rates_len24\":[" + rates24 + "]"), std::string::npos)
      << json;
  for (const std::string& text : pinned) {
    EXPECT_NE(json.find("\"variation\":" + text + ",\"class\""),
              std::string::npos)
        << text;
  }
}

flow::FlowRecord flow_to(net::Port port, util::TimeMs t,
                         std::uint32_t packets) {
  flow::FlowRecord rec;
  rec.time = t;
  rec.src_ip = net::Ipv4(0x0a000001u);
  rec.dst_ip = net::Ipv4(0x0a000002u);
  rec.proto = net::Proto::kTcp;
  rec.src_port = 40000;
  rec.dst_port = port;
  rec.packets = packets;
  return rec;
}

std::string stability_of(const std::string& line) {
  const std::string key = "\"topk_stability\":";
  const std::size_t begin = line.find(key) + key.size();
  return line.substr(begin, line.find(',', begin) - begin);
}

TEST(RollingRenderTest, LineStabilityMatchesTheStreamRenderer) {
  RollingConfig rc;
  rc.kernels.period = {0, util::kDay};
  rc.report_every = util::kHour;
  rc.topk_k = 2;
  RollingReporter reporter(rc);
  // Hourly lines whose top-2 key sets overlap by 1/1, 1/2 and 1/3.
  const std::vector<flow::FlowRecord> flows = {
      flow_to(80, 0, 10),               // starts the cadence
      flow_to(80, util::kHour, 10),     // line 0: {80}
      flow_to(443, 2 * util::kHour, 5),   // line 1: {80, 443}
      flow_to(22, 3 * util::kHour, 100),  // line 2: {22, 80}
  };
  for (std::size_t i = 0; i < flows.size(); ++i) {
    reporter.on_event(StreamEvent::from(flows[i], i));
  }
  ASSERT_TRUE(reporter.finish(util::kDay).ok());
  const std::vector<std::string>& lines = reporter.lines();
  ASSERT_EQ(lines.size(), 4u);
  const std::vector<double> want = {1.0, 0.5, 1.0 / 3.0, 1.0};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(stability_of(lines[i]), ostream_text(want[i])) << lines[i];
  }
  EXPECT_EQ(stability_of(lines[2]), "0.33333333333333331");
}

}  // namespace
}  // namespace bw::stream::incremental
