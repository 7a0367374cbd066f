// Post-generation utilities (Sec. 5): the two optional domain-specific
// privacy extensions NetShare implements on generated traces —
// (1) IP transformation into a user-specified (default: private) range,
// (2) attribute retraining: resampling chosen attributes to a user-desired
//     distribution —
// plus derived-field repair: clamping generated header fields into valid
// ranges and verifying IPv4 checksum round-trips before traces are
// materialized through net::write_pcap.
//
// Every function here is deterministic and thread-invariant: passing any
// `threads` value (including from different machines) produces bitwise
// identical traces. Parallel passes only touch per-record state; the one
// order-sensitive step (first-seen IP enumeration) collects each range's
// first-seen addresses in parallel and ranks them serially in range order.
#pragma once

#include <cstddef>
#include <map>

#include "common/rng.hpp"
#include "net/trace.hpp"

namespace netshare::core {

// Deterministically remaps every distinct IP into `base/prefix_len`,
// preserving distinctness (up to the subnet size) and popularity structure.
struct IpRemapConfig {
  net::Ipv4Address src_base{10, 0, 0, 0};
  int src_prefix_len = 16;
  net::Ipv4Address dst_base{192, 168, 0, 0};
  int dst_prefix_len = 16;
};

net::FlowTrace remap_ips(const net::FlowTrace& trace, const IpRemapConfig& cfg,
                         std::size_t threads = 1);
net::PacketTrace remap_ips(const net::PacketTrace& trace,
                           const IpRemapConfig& cfg, std::size_t threads = 1);

// Resamples destination ports to a user-specified distribution
// (port -> weight), leaving all other fields intact. Record i draws from the
// counter-based stream (seed, i) where seed comes from `rng`, so the result
// depends only on the Rng state at entry — not on `threads`.
net::FlowTrace retrain_dst_ports(const net::FlowTrace& trace,
                                 const std::map<std::uint16_t, double>& dist,
                                 Rng& rng, std::size_t threads = 1);
net::PacketTrace retrain_dst_ports(const net::PacketTrace& trace,
                                   const std::map<std::uint16_t, double>& dist,
                                   Rng& rng, std::size_t threads = 1);

// Counts of fields touched by the repair passes below.
struct RepairStats {
  std::size_t size_clamped = 0;    // packet size / flow bytes out of range
  std::size_t ttl_fixed = 0;       // TTL 0 raised to 1 (packets only)
  std::size_t ports_zeroed = 0;    // nonzero ports on ICMP records
  std::size_t duration_fixed = 0;  // negative flow durations (flows only)
  std::size_t packets_fixed = 0;   // zero flow packet counts (flows only)
  std::size_t checksum_failures = 0;  // serialized headers failing round-trip

  std::size_t total_repairs() const {
    return size_clamped + ttl_fixed + ports_zeroed + duration_fixed +
           packets_fixed;
  }
};

// In-place packet-header repair (validity Tests 1/2/4, App. B): clamps the
// IP length into [min_packet_size(proto), kMaxPacketSize], raises TTL 0 to
// 1, zeroes ports on ICMP packets, then materializes each record's
// Ipv4Header and verifies serialize -> parse -> checksum_valid round-trips
// (failures are counted, never silently dropped).
RepairStats repair_packet_headers(net::PacketTrace& trace,
                                  std::size_t threads = 1);

// In-place flow-field repair: packets >= 1, bytes >= packets *
// min_packet_size(proto), duration >= 0, ICMP ports zeroed.
RepairStats repair_flow_fields(net::FlowTrace& trace, std::size_t threads = 1);

}  // namespace netshare::core
