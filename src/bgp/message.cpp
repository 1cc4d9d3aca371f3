#include "bgp/message.hpp"

#include <algorithm>
#include <sstream>

namespace bw::bgp {

std::string_view to_string(UpdateType t) {
  return t == UpdateType::kAnnounce ? "ANNOUNCE" : "WITHDRAW";
}

std::string Update::to_string() const {
  std::ostringstream os;
  os << util::format_time(time) << ' ' << bgp::to_string(type) << ' '
     << prefix.to_string() << " via AS" << sender_asn << " origin AS"
     << origin_asn;
  if (is_blackhole()) os << " [BLACKHOLE]";
  return os.str();
}

bool update_before(const Update& a, const Update& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.type == UpdateType::kWithdraw && b.type == UpdateType::kAnnounce;
}

void sort_updates(UpdateLog& log) {
  std::stable_sort(log.begin(), log.end(), update_before);
}

}  // namespace bw::bgp
