#include "net/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace netshare::net {

namespace {

template <typename Record>
double min_time(const std::vector<Record>& v, double (*get)(const Record&)) {
  double lo = std::numeric_limits<double>::infinity();
  for (const auto& r : v) lo = std::min(lo, get(r));
  return v.empty() ? 0.0 : lo;
}

template <typename Record>
double max_time(const std::vector<Record>& v, double (*get)(const Record&)) {
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& r : v) hi = std::max(hi, get(r));
  return v.empty() ? 0.0 : hi;
}

// Shared first-seen-order grouping for packet and flow records.
template <typename Record>
std::vector<std::pair<FiveTuple, std::vector<std::size_t>>> group_records(
    const std::vector<Record>& records) {
  std::vector<std::pair<FiveTuple, std::vector<std::size_t>>> groups;
  std::unordered_map<FiveTuple, std::size_t> index;
  index.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FiveTuple& key = records[i].key;
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) groups.push_back({key, {}});
    groups[it->second].second.push_back(i);
  }
  return groups;
}

// A maximal time-ascending stretch of one record vector.
template <typename Record>
struct TimeRun {
  const Record* pos;
  const Record* end;
};

// Stable k-way merge of `runs` by time, stopping after `limit` records. A
// tie goes to the earlier run, so records leave in (time, run, position)
// order, which is (time, index) in the concatenation of the runs: the first
// `limit` records of a std::stable_sort of that concatenation, element for
// element (times are not NaN). The run heads sit in a binary min-heap whose
// top is replaced in place; once one run is left, the rest of it is copied
// as a block.
template <typename Record, typename TimeOf>
std::vector<Record> merge_time_runs(std::vector<TimeRun<Record>>& runs,
                                    std::size_t limit, const TimeOf& time) {
  std::vector<Record> out;
  out.reserve(limit);
  struct Head {
    double t;
    std::size_t run;
  };
  const auto before = [](const Head& a, const Head& b) {
    return a.t < b.t || (a.t == b.t && a.run < b.run);
  };
  std::vector<Head> heap;
  heap.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    heap.push_back({time(*runs[r].pos), r});
  }
  const auto sift_down = [&](std::size_t i) {
    const Head h = heap[i];
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= heap.size()) break;
      if (c + 1 < heap.size() && before(heap[c + 1], heap[c])) ++c;
      if (!before(heap[c], h)) break;
      heap[i] = heap[c];
      i = c;
    }
    heap[i] = h;
  };
  for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(i);
  while (out.size() < limit && heap.size() > 1) {
    TimeRun<Record>& run = runs[heap[0].run];
    out.push_back(*run.pos++);
    if (run.pos != run.end) {
      heap[0].t = time(*run.pos);
    } else {
      heap[0] = heap.back();
      heap.pop_back();
    }
    sift_down(0);
  }
  if (!heap.empty() && out.size() < limit) {
    const TimeRun<Record>& run = runs[heap[0].run];
    const auto left = static_cast<std::size_t>(run.end - run.pos);
    out.insert(out.end(), run.pos,
               run.pos + std::min(left, limit - out.size()));
  }
  return out;
}

// Cuts the parts, in order, into their maximal time-ascending runs and
// merges those.
template <typename Trace, typename Record, typename TimeOf>
std::vector<Record> merge_parts_by_time(
    const std::vector<Trace>& parts, std::vector<Record> Trace::*records,
    std::size_t limit, const TimeOf& time) {
  std::vector<TimeRun<Record>> runs;
  std::size_t total = 0;
  for (const Trace& part : parts) {
    const Record* pos = (part.*records).data();
    const Record* const end = pos + (part.*records).size();
    while (pos != end) {
      const Record* stop = pos + 1;
      while (stop != end && !(time(*stop) < time(stop[-1]))) ++stop;
      runs.push_back({pos, stop});
      pos = stop;
    }
    total += (part.*records).size();
  }
  return merge_time_runs(runs, std::min(limit, total), time);
}

constexpr auto packet_time = [](const PacketRecord& p) { return p.timestamp; };
constexpr auto flow_time = [](const FlowRecord& r) { return r.start_time; };

}  // namespace

void PacketTrace::sort_by_time() {
  std::stable_sort(packets.begin(), packets.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
}

double PacketTrace::start_time() const {
  return min_time<PacketRecord>(packets,
                                [](const PacketRecord& p) { return p.timestamp; });
}

double PacketTrace::end_time() const {
  return max_time<PacketRecord>(packets,
                                [](const PacketRecord& p) { return p.timestamp; });
}

std::vector<PacketTrace> PacketTrace::split_epochs(double epoch_seconds) const {
  std::vector<PacketTrace> epochs;
  if (packets.empty() || epoch_seconds <= 0) return epochs;
  const double t0 = start_time();
  for (const auto& p : packets) {
    auto e = static_cast<std::size_t>(std::floor((p.timestamp - t0) / epoch_seconds));
    if (e >= epochs.size()) epochs.resize(e + 1);
    epochs[e].packets.push_back(p);
  }
  return epochs;
}

PacketTrace PacketTrace::merge(const std::vector<PacketTrace>& epochs,
                               std::size_t limit) {
  PacketTrace out;
  out.packets =
      merge_parts_by_time(epochs, &PacketTrace::packets, limit, packet_time);
  return out;
}

std::vector<std::pair<FiveTuple, std::vector<std::size_t>>>
PacketTrace::group_by_flow() const {
  return group_records(packets);
}

void FlowTrace::sort_by_time() {
  std::stable_sort(records.begin(), records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.start_time < b.start_time;
                   });
}

double FlowTrace::start_time() const {
  return min_time<FlowRecord>(records,
                              [](const FlowRecord& r) { return r.start_time; });
}

double FlowTrace::end_time() const {
  return max_time<FlowRecord>(records,
                              [](const FlowRecord& r) { return r.end_time(); });
}

std::vector<FlowTrace> FlowTrace::split_epochs(double epoch_seconds) const {
  std::vector<FlowTrace> epochs;
  if (records.empty() || epoch_seconds <= 0) return epochs;
  const double t0 = start_time();
  for (const auto& r : records) {
    auto e = static_cast<std::size_t>(std::floor((r.start_time - t0) / epoch_seconds));
    if (e >= epochs.size()) epochs.resize(e + 1);
    epochs[e].records.push_back(r);
  }
  return epochs;
}

FlowTrace FlowTrace::merge(const std::vector<FlowTrace>& epochs,
                           std::size_t limit) {
  FlowTrace out;
  out.records =
      merge_parts_by_time(epochs, &FlowTrace::records, limit, flow_time);
  return out;
}

std::vector<std::pair<FiveTuple, std::vector<std::size_t>>>
FlowTrace::group_by_flow() const {
  return group_records(records);
}

std::vector<FlowAggregate> aggregate_flows(const PacketTrace& trace) {
  std::vector<FlowAggregate> aggs;
  std::unordered_map<FiveTuple, std::size_t> index;
  index.reserve(trace.packets.size());
  for (const auto& p : trace.packets) {
    auto [it, inserted] = index.try_emplace(p.key, aggs.size());
    if (inserted) {
      aggs.push_back({p.key, p.timestamp, p.timestamp, 0, 0});
    }
    FlowAggregate& a = aggs[it->second];
    a.first_seen = std::min(a.first_seen, p.timestamp);
    a.last_seen = std::max(a.last_seen, p.timestamp);
    a.packets += 1;
    a.bytes += p.size;
  }
  return aggs;
}

}  // namespace netshare::net
