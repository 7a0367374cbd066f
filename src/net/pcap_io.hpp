// Binary libpcap file reader/writer.
//
// Synthetic packet traces are materialized as genuine pcap files (magic
// 0xa1b2c3d4, LINKTYPE_RAW) containing real IPv4 + TCP/UDP headers with
// valid RFC 1071 checksums, so tools like tcpdump can consume them.
#pragma once

#include <iosfwd>
#include <string>

#include "net/trace.hpp"

namespace netshare::net {

// Writes `trace` as a pcap file. Each record becomes an IPv4 packet with a
// TCP or UDP header (per the record's protocol); payload bytes are zero and
// only header-relevant bytes up to `snaplen` are stored.
void write_pcap(const PacketTrace& trace, std::ostream& out,
                std::uint32_t snaplen = 96);
void write_pcap_file(const PacketTrace& trace, const std::string& path,
                     std::uint32_t snaplen = 96);

// Reads a LINKTYPE_RAW pcap file, such as write_pcap produces. The magic
// selects byte order and timestamp unit: a1b2c3d4 (microseconds) and
// a1b23c4d (nanoseconds) are accepted as written by either a little- or a
// big-endian host, and the byte order then applies to every header field;
// any other magic is a std::runtime_error naming the four bytes read. Ports
// are read after the IP options (IHL). Records whose IP
// version is not 4 (LINKTYPE_RAW also carries IPv6) are skipped and counted
// in the telemetry counter `net.pcap.skipped_non_ipv4`. Throws
// std::runtime_error on malformed input, naming the record index for a
// record whose caplen exceeds min(snaplen, 262144) (checked before any
// allocation) or is below the 20-byte IPv4 header, or whose IHL is below 5
// or runs past caplen.
PacketTrace read_pcap(std::istream& in);
PacketTrace read_pcap_file(const std::string& path);

}  // namespace netshare::net
