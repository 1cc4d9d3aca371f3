#include "flow/record.hpp"

#include <algorithm>
#include <utility>

#include "util/parallel.hpp"

namespace bw::flow {

namespace {

bool time_less(const FlowRecord& a, const FlowRecord& b) {
  return a.time < b.time;
}

/// Rows per time range below which merge_sorted_flows stops splitting: a
/// range is one pool task, and a smaller one costs more to schedule than to
/// copy.
constexpr std::size_t kMinRangeRows = std::size_t{1} << 15;

/// One part's rows inside one output range.
struct Run {
  const FlowRecord* cur;
  const FlowRecord* end;
  std::size_t part;
};

/// Min-heap order of run heads by (time, part): the order a stable sort of
/// the in-order concatenation gives them.
bool head_after(const Run& a, const Run& b) {
  if (a.cur->time != b.cur->time) return a.cur->time > b.cur->time;
  return a.part > b.part;
}

/// Merge `runs` into `out`, ties to the lower part index. The run at the
/// top of the heap emits rows for as long as they precede the next head, so
/// a part that leads for a stretch of time is copied without heap traffic.
void merge_runs(std::vector<Run>& runs, FlowRecord* out) {
  std::erase_if(runs, [](const Run& r) { return r.cur == r.end; });
  std::make_heap(runs.begin(), runs.end(), head_after);
  while (runs.size() > 1) {
    std::pop_heap(runs.begin(), runs.end(), head_after);
    Run& r = runs.back();
    const util::TimeMs limit = runs.front().cur->time;
    const bool wins_ties = r.part < runs.front().part;
    do {
      *out++ = *r.cur++;
    } while (r.cur != r.end &&
             (r.cur->time < limit || (wins_ties && r.cur->time == limit)));
    if (r.cur == r.end) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), head_after);
    }
  }
  if (!runs.empty()) std::copy(runs.front().cur, runs.front().end, out);
}

}  // namespace

void sort_flows(FlowLog& flows) {
  std::stable_sort(flows.begin(), flows.end(), time_less);
}

FlowLog merge_sorted_flows(std::vector<FlowLog> parts,
                           util::ThreadPool& pool) {
  std::erase_if(parts, [](const FlowLog& p) { return p.empty(); });
  if (parts.empty()) return {};
  if (parts.size() == 1) return std::move(parts.front());
  const std::size_t k = parts.size();
  std::size_t n = 0;
  for (const FlowLog& p : parts) n += p.size();

  // Cut the output into time ranges at pivots sampled from every part. A
  // pivot cuts each part at its first row not before it, so all rows with
  // one timestamp fall in one range and that range's merge orders every
  // tie. The output is unique, so the range count may follow the pool.
  const std::size_t ranges =
      pool.worker_count() == 0
          ? 1
          : std::min(8 * pool.concurrency(), n / kMinRangeRows + 1);
  // Every part is non-empty and gives at least one sample, so there is a
  // pivot for every cut even when each part is shorter than stride / 2.
  std::vector<util::TimeMs> samples;
  const std::size_t stride = std::max<std::size_t>(1, n / (16 * ranges));
  for (const FlowLog& p : parts) {
    for (std::size_t i = std::min(stride / 2, p.size() - 1); i < p.size();
         i += stride) {
      samples.push_back(p[i].time);
    }
  }
  std::sort(samples.begin(), samples.end());
  // cut[r * k + i]: first row of part i in range r; range r's output
  // starts at the sum of its cuts over the parts.
  std::vector<std::size_t> cut((ranges + 1) * k, 0);
  for (std::size_t i = 0; i < k; ++i) cut[ranges * k + i] = parts[i].size();
  for (std::size_t r = 1; r < ranges; ++r) {
    const util::TimeMs pivot = samples[r * samples.size() / ranges];
    for (std::size_t i = 0; i < k; ++i) {
      cut[r * k + i] = static_cast<std::size_t>(
          std::lower_bound(parts[i].begin(), parts[i].end(), pivot,
                           [](const FlowRecord& rec, util::TimeMs t) {
                             return rec.time < t;
                           }) -
          parts[i].begin());
    }
  }

  FlowLog out(n);
  util::parallel_for(
      pool, ranges,
      [&](std::size_t r) {
        std::vector<Run> runs(k);
        std::size_t offset = 0;
        for (std::size_t i = 0; i < k; ++i) {
          runs[i] = {parts[i].data() + cut[r * k + i],
                     parts[i].data() + cut[(r + 1) * k + i], i};
          offset += cut[r * k + i];
        }
        merge_runs(runs, out.data() + offset);
      },
      1);
  return out;
}

}  // namespace bw::flow
