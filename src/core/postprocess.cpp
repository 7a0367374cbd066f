#include "core/postprocess.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::core {

namespace {

// Open-addressing set/map of IPv4 addresses: linear probing over a
// power-of-two slot array kept at most half full, Fibonacci-hashed. A slot
// whose value is kEmpty is free; stored values are subnet offsets, below
// the subnet size (at most 2^31), so every address is a valid key.
class FlatIpTable {
 public:
  explicit FlatIpTable(std::size_t expected = 0) { rehash(2 * expected); }

  // Stores ip -> value unless ip is present; true when it was inserted.
  bool insert(std::uint32_t ip, std::uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    Slot& s = slots_[slot_of(ip)];
    if (s.value != kEmpty) return false;
    s = {ip, value};
    ++size_;
    return true;
  }

  // The value stored for ip, which must be present.
  std::uint32_t at(std::uint32_t ip) const { return slots_[slot_of(ip)].value; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  struct Slot {
    std::uint32_t key;
    std::uint32_t value;
  };

  // ip's slot, or the free slot where it would go.
  std::size_t slot_of(std::uint32_t ip) const {
    std::size_t i = (ip * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (slots_[i].value != kEmpty && slots_[i].key != ip) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return i;
  }

  void rehash(std::size_t want) {
    std::size_t n = 16;
    while (n < want) n *= 2;
    std::vector<Slot> old(n, Slot{0, kEmpty});
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(n);
    for (const Slot& s : old) {
      if (s.value != kEmpty) slots_[slot_of(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  std::size_t size_ = 0;
};

// The distinct addresses of one range of records, in first-seen order.
struct FirstSeen {
  FlatIpTable seen;
  std::vector<std::uint32_t> order;

  void add(net::Ipv4Address ip) {
    if (seen.insert(ip.value(), 0)) order.push_back(ip.value());
  }
};

// Assigns each distinct input address the next offset in the target subnet,
// in first-seen order (preserves the rank structure of address popularity);
// offsets start at 1 (skipping the network address) and wrap modulo the
// subnet size. Built from the ranges' first-seen lists in range order — an
// address's first occurrence lies in the earliest range that holds it — so
// the ranks equal one serial scan's; lookups are const and run concurrently.
class SubnetMapper {
 public:
  SubnetMapper(net::Ipv4Address base, int prefix_len) : base_(base.value()) {
    if (prefix_len < 0 || prefix_len > 30) {
      throw std::invalid_argument("SubnetMapper: prefix_len out of range");
    }
    capacity_ = 1u << (32 - prefix_len);
    base_ &= ~(capacity_ - 1);
  }

  void build(const std::vector<FirstSeen>& ranges) {
    std::size_t distinct = 0;
    for (const FirstSeen& r : ranges) distinct += r.order.size();
    table_ = FlatIpTable(distinct);
    std::uint32_t next = 1;  // skip .0 (network address)
    for (const FirstSeen& r : ranges) {
      for (const std::uint32_t ip : r.order) {
        if (table_.insert(ip, next)) next = (next + 1) % capacity_;
      }
    }
  }

  net::Ipv4Address lookup(net::Ipv4Address ip) const {
    return net::Ipv4Address(base_ + table_.at(ip.value()));
  }

 private:
  std::uint32_t base_;
  std::uint32_t capacity_;
  FlatIpTable table_;
};

// Two-phase remap shared by both trace types: phase 1 collects each range's
// distinct addresses in first-seen order across `threads` disjoint ranges
// and ranks them serially in range order; phase 2 rewrites keys through the
// now-const tables over the same ranges.
template <typename RecordVec>
void remap_records(RecordVec& records, const IpRemapConfig& cfg,
                   std::size_t threads) {
  SubnetMapper src(cfg.src_base, cfg.src_prefix_len);
  SubnetMapper dst(cfg.dst_base, cfg.dst_prefix_len);
  const std::size_t workers =
      parallel_phase_budget(std::max<std::size_t>(1, threads));
  const std::size_t ranges = num_ranges(workers, records.size());
  std::vector<FirstSeen> src_seen(ranges), dst_seen(ranges);
  parallel_ranges(workers, records.size(),
                  [&](std::size_t range, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                      src_seen[range].add(records[i].key.src_ip);
                      dst_seen[range].add(records[i].key.dst_ip);
                    }
                  });
  src.build(src_seen);
  dst.build(dst_seen);
  parallel_ranges(workers, records.size(),
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                      records[i].key.src_ip = src.lookup(records[i].key.src_ip);
                      records[i].key.dst_ip = dst.lookup(records[i].key.dst_ip);
                    }
                  });
}

template <typename Dist>
std::pair<std::vector<std::uint16_t>, std::vector<double>> split_dist(
    const Dist& dist) {
  if (dist.empty()) {
    throw std::invalid_argument("retrain_dst_ports: empty distribution");
  }
  std::vector<std::uint16_t> ports;
  std::vector<double> weights;
  for (const auto& [p, w] : dist) {
    ports.push_back(p);
    weights.push_back(w);
  }
  return {std::move(ports), std::move(weights)};
}

// Record i draws from stream (seed, i): the port choice is a pure function
// of (seed, i), so any range partition / thread count yields the same trace.
template <typename RecordVec>
void retrain_records(RecordVec& records,
                     const std::map<std::uint16_t, double>& dist, Rng& rng,
                     std::size_t threads) {
  auto [ports, weights] = split_dist(dist);
  const std::uint64_t seed = rng.engine()();
  parallel_ranges(parallel_phase_budget(std::max<std::size_t>(1, threads)),
                  records.size(),
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) {
                      Rng r = Rng::stream(seed, i);
                      records[i].key.dst_port = ports[r.categorical(weights)];
                    }
                  });
}

RepairStats sum_stats(const std::vector<RepairStats>& parts) {
  RepairStats total;
  for (const auto& p : parts) {
    total.size_clamped += p.size_clamped;
    total.ttl_fixed += p.ttl_fixed;
    total.ports_zeroed += p.ports_zeroed;
    total.duration_fixed += p.duration_fixed;
    total.packets_fixed += p.packets_fixed;
    total.checksum_failures += p.checksum_failures;
  }
  return total;
}

}  // namespace

net::FlowTrace remap_ips(const net::FlowTrace& trace, const IpRemapConfig& cfg,
                         std::size_t threads) {
  TELEM_SPAN("postprocess.remap_ips",
             {"records", static_cast<long long>(trace.records.size())});
  net::FlowTrace out = trace;
  remap_records(out.records, cfg, threads);
  return out;
}

net::PacketTrace remap_ips(const net::PacketTrace& trace,
                           const IpRemapConfig& cfg, std::size_t threads) {
  TELEM_SPAN("postprocess.remap_ips",
             {"records", static_cast<long long>(trace.packets.size())});
  net::PacketTrace out = trace;
  remap_records(out.packets, cfg, threads);
  return out;
}

net::FlowTrace retrain_dst_ports(const net::FlowTrace& trace,
                                 const std::map<std::uint16_t, double>& dist,
                                 Rng& rng, std::size_t threads) {
  TELEM_SPAN("postprocess.retrain_ports",
             {"records", static_cast<long long>(trace.records.size())});
  net::FlowTrace out = trace;
  retrain_records(out.records, dist, rng, threads);
  return out;
}

net::PacketTrace retrain_dst_ports(const net::PacketTrace& trace,
                                   const std::map<std::uint16_t, double>& dist,
                                   Rng& rng, std::size_t threads) {
  TELEM_SPAN("postprocess.retrain_ports",
             {"records", static_cast<long long>(trace.packets.size())});
  net::PacketTrace out = trace;
  retrain_records(out.packets, dist, rng, threads);
  return out;
}

RepairStats repair_packet_headers(net::PacketTrace& trace,
                                  std::size_t threads) {
  TELEM_SPAN("postprocess.repair",
             {"records", static_cast<long long>(trace.packets.size())});
  auto& pkts = trace.packets;
  const std::size_t workers =
      parallel_phase_budget(std::max<std::size_t>(1, threads));
  std::vector<RepairStats> parts(num_ranges(workers, pkts.size()));
  parallel_ranges(workers, pkts.size(),
                  [&](std::size_t range, std::size_t lo, std::size_t hi) {
    RepairStats local;
    for (std::size_t i = lo; i < hi; ++i) {
      net::PacketRecord& p = pkts[i];
      const std::uint32_t lo_size = net::min_packet_size(p.key.protocol);
      if (p.size < lo_size || p.size > net::kMaxPacketSize) {
        p.size = std::clamp(p.size, lo_size, net::kMaxPacketSize);
        ++local.size_clamped;
      }
      if (p.ttl == 0) {
        p.ttl = 1;
        ++local.ttl_fixed;
      }
      if (p.key.protocol == net::Protocol::kIcmp &&
          (p.key.src_port != 0 || p.key.dst_port != 0)) {
        p.key.src_port = 0;
        p.key.dst_port = 0;
        ++local.ports_zeroed;
      }
      net::Ipv4Header h;
      h.total_length = static_cast<std::uint16_t>(p.size);
      h.ttl = p.ttl;
      h.protocol = p.key.protocol;
      h.src = p.key.src_ip;
      h.dst = p.key.dst_ip;
      const auto bytes = h.serialize();
      const net::Ipv4Header parsed =
          net::Ipv4Header::parse(bytes.data(), bytes.size());
      if (!parsed.checksum_valid()) ++local.checksum_failures;
    }
    parts[range] = local;
  });
  const RepairStats total = sum_stats(parts);
  TELEM_COUNT_N("postprocess.fields_repaired",
                total.size_clamped + total.ttl_fixed + total.ports_zeroed);
  return total;
}

RepairStats repair_flow_fields(net::FlowTrace& trace, std::size_t threads) {
  TELEM_SPAN("postprocess.repair",
             {"records", static_cast<long long>(trace.records.size())});
  auto& recs = trace.records;
  const std::size_t workers =
      parallel_phase_budget(std::max<std::size_t>(1, threads));
  std::vector<RepairStats> parts(num_ranges(workers, recs.size()));
  parallel_ranges(workers, recs.size(),
                  [&](std::size_t range, std::size_t lo, std::size_t hi) {
    RepairStats local;
    for (std::size_t i = lo; i < hi; ++i) {
      net::FlowRecord& r = recs[i];
      if (r.packets == 0) {
        r.packets = 1;
        ++local.packets_fixed;
      }
      const std::uint64_t min_bytes =
          r.packets * net::min_packet_size(r.key.protocol);
      if (r.bytes < min_bytes) {
        r.bytes = min_bytes;
        ++local.size_clamped;
      }
      if (r.duration < 0.0) {
        r.duration = 0.0;
        ++local.duration_fixed;
      }
      if (r.key.protocol == net::Protocol::kIcmp &&
          (r.key.src_port != 0 || r.key.dst_port != 0)) {
        r.key.src_port = 0;
        r.key.dst_port = 0;
        ++local.ports_zeroed;
      }
    }
    parts[range] = local;
  });
  const RepairStats total = sum_stats(parts);
  TELEM_COUNT_N("postprocess.fields_repaired",
                total.size_clamped + total.duration_fixed +
                    total.packets_fixed + total.ports_zeroed);
  return total;
}

}  // namespace netshare::core
