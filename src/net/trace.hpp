// Trace containers and the epoch/flow reshaping operations at the heart of
// NetShare Insight 1: merge measurement epochs into one giant trace, then
// split the giant trace into per-5-tuple flow series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/records.hpp"

namespace netshare::net {

// A packet-header trace (PCAP-like).
struct PacketTrace {
  std::vector<PacketRecord> packets;

  std::size_t size() const { return packets.size(); }
  bool empty() const { return packets.empty(); }

  // Stable sort by arrival timestamp (postprocessing merge step).
  void sort_by_time();

  double start_time() const;
  double end_time() const;

  // Split into consecutive epochs of length `epoch_seconds` (Sec. 3.1's D_t).
  std::vector<PacketTrace> split_epochs(double epoch_seconds) const;

  // Inverse of split_epochs: concatenate epochs (or any parts) in order
  // into one giant trace, stably sorted by time, and keep its first `limit`
  // records. A k-way merge of the parts' time-ascending runs, so ordered
  // parts cost one pass (DESIGN.md §7, *Run merge*).
  static PacketTrace merge(const std::vector<PacketTrace>& epochs,
                           std::size_t limit = SIZE_MAX);

  // Group packet indices by 5-tuple, in first-seen order of flows.
  std::vector<std::pair<FiveTuple, std::vector<std::size_t>>> group_by_flow()
      const;
};

// A flow-header trace (NetFlow-like).
struct FlowTrace {
  std::vector<FlowRecord> records;

  std::size_t size() const { return records.size(); }
  bool empty() const { return records.empty(); }

  void sort_by_time();

  double start_time() const;
  double end_time() const;

  std::vector<FlowTrace> split_epochs(double epoch_seconds) const;
  static FlowTrace merge(const std::vector<FlowTrace>& epochs,
                         std::size_t limit = SIZE_MAX);

  // Group record indices by 5-tuple, in first-seen order of flows. Flows with
  // several records (collector re-exports, Fig. 1a) get multi-entry groups.
  std::vector<std::pair<FiveTuple, std::vector<std::size_t>>> group_by_flow()
      const;
};

// Per-flow aggregate of a packet trace: the flow-size/packet-count views
// used by the fidelity metrics (FS) and the sketching substrate.
struct FlowAggregate {
  FiveTuple key;
  double first_seen = 0.0;
  double last_seen = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

// Aggregates a packet trace into per-5-tuple totals (first-seen order).
std::vector<FlowAggregate> aggregate_flows(const PacketTrace& trace);

}  // namespace netshare::net
