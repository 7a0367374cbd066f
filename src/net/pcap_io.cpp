#include "net/pcap_io.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace netshare::net {

namespace {

constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;  // microsecond timestamps
constexpr std::uint32_t kPcapNanoMagic = 0xa1b23c4d;  // nanosecond timestamps
constexpr std::uint32_t kLinktypeRaw = 101;       // raw IPv4/IPv6
// Largest record body read_pcap allocates, whatever the header's snaplen
// says (libpcap's own MAXIMUM_SNAPLEN).
constexpr std::uint32_t kMaxCaplen = 262144;

// pcap is host-endian by convention; we fix little-endian on the wire for
// portability of generated files.
void put_le32(std::ostream& out, std::uint32_t v) {
  std::array<char, 4> b{static_cast<char>(v), static_cast<char>(v >> 8),
                        static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out.write(b.data(), b.size());
}
void put_le16(std::ostream& out, std::uint16_t v) {
  std::array<char, 2> b{static_cast<char>(v), static_cast<char>(v >> 8)};
  out.write(b.data(), b.size());
}

std::uint32_t from_le(const std::array<unsigned char, 4>& b) {
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

// Reads the 32-bit header fields of a file in the byte order its magic
// announced.
struct FieldReader {
  std::istream& in;
  bool big_endian = false;

  std::uint32_t u32() {
    std::array<unsigned char, 4> b{};
    in.read(reinterpret_cast<char*>(b.data()), b.size());
    if (big_endian) {
      std::swap(b[0], b[3]);
      std::swap(b[1], b[2]);
    }
    return from_le(b);
  }
};

// Builds the on-wire bytes for one record: IPv4 header + minimal L4 header,
// zero payload up to min(total_length, snaplen).
std::vector<std::uint8_t> build_packet_bytes(const PacketRecord& rec,
                                             std::uint32_t snaplen) {
  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(rec.size, kMaxPacketSize));
  ip.ttl = rec.ttl;
  ip.protocol = rec.key.protocol;
  ip.src = rec.key.src_ip;
  ip.dst = rec.key.dst_ip;

  std::vector<std::uint8_t> bytes;
  auto ip_bytes = ip.serialize();
  bytes.insert(bytes.end(), ip_bytes.begin(), ip_bytes.end());

  if (rec.key.protocol == Protocol::kTcp) {
    TcpHeaderLite tcp;
    tcp.src_port = rec.key.src_port;
    tcp.dst_port = rec.key.dst_port;
    tcp.flags = rec.tcp_flags;
    auto l4 = tcp.serialize();
    bytes.insert(bytes.end(), l4.begin(), l4.end());
  } else if (rec.key.protocol == Protocol::kUdp) {
    UdpHeaderLite udp;
    udp.src_port = rec.key.src_port;
    udp.dst_port = rec.key.dst_port;
    udp.length = static_cast<std::uint16_t>(
        std::max<std::uint32_t>(8, ip.total_length - Ipv4Header::kSize));
    auto l4 = udp.serialize();
    bytes.insert(bytes.end(), l4.begin(), l4.end());
  }

  std::size_t wire_len = std::max<std::size_t>(bytes.size(), ip.total_length);
  bytes.resize(std::min<std::size_t>(wire_len, snaplen), 0);
  return bytes;
}

}  // namespace

void write_pcap(const PacketTrace& trace, std::ostream& out,
                std::uint32_t snaplen) {
  // Global header.
  put_le32(out, kPcapMagic);
  put_le16(out, 2);  // version major
  put_le16(out, 4);  // version minor
  put_le32(out, 0);  // thiszone
  put_le32(out, 0);  // sigfigs
  put_le32(out, snaplen);
  put_le32(out, kLinktypeRaw);

  for (const auto& rec : trace.packets) {
    const auto bytes = build_packet_bytes(rec, snaplen);
    const double ts = std::max(0.0, rec.timestamp);
    const auto sec = static_cast<std::uint32_t>(ts);
    const auto usec = static_cast<std::uint32_t>(
        std::llround((ts - std::floor(ts)) * 1e6) % 1000000);
    put_le32(out, sec);
    put_le32(out, usec);
    put_le32(out, static_cast<std::uint32_t>(bytes.size()));  // captured len
    put_le32(out, std::max<std::uint32_t>(
                      rec.size, static_cast<std::uint32_t>(bytes.size())));
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
}

void write_pcap_file(const PacketTrace& trace, const std::string& path,
                     std::uint32_t snaplen) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pcap_file: cannot open " + path);
  write_pcap(trace, out, snaplen);
}

PacketTrace read_pcap(std::istream& in) {
  // The magic gives the writer's byte order (it reads as itself or
  // byte-swapped) and the timestamp resolution.
  std::array<unsigned char, 4> magic{};
  in.read(reinterpret_cast<char*>(magic.data()), magic.size());
  const std::uint32_t le = from_le(magic);
  const std::uint32_t be = from_le({magic[3], magic[2], magic[1], magic[0]});
  FieldReader field{in, be == kPcapMagic || be == kPcapNanoMagic};
  const std::uint32_t m = field.big_endian ? be : le;
  if (m != kPcapMagic && m != kPcapNanoMagic) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "%02x %02x %02x %02x", magic[0], magic[1],
                  magic[2], magic[3]);
    throw std::runtime_error(
        std::string("read_pcap: bad magic bytes ") + hex +
        (in ? "" : " (file shorter than 4 bytes)") +
        "; expect a pcap magic (a1b2c3d4 microsecond or a1b23c4d "
        "nanosecond, in either byte order)");
  }
  const double sub_unit = m == kPcapNanoMagic ? 1e-9 : 1e-6;
  in.ignore(2 + 2 + 4 + 4);  // version, thiszone, sigfigs
  const std::uint32_t max_caplen = std::min(field.u32(), kMaxCaplen);
  const std::uint32_t linktype = field.u32();
  if (linktype != kLinktypeRaw) {
    throw std::runtime_error("read_pcap: unsupported linktype");
  }

  PacketTrace trace;
  for (std::size_t index = 0;; ++index) {
    const std::uint32_t sec = field.u32();
    if (!in) break;  // clean EOF
    const std::uint32_t sub = field.u32();  // µs or ns, per the magic
    const std::uint32_t caplen = field.u32();
    const std::uint32_t wirelen = field.u32();
    if (!in) throw std::runtime_error("read_pcap: truncated record header");
    // Checked before allocating: caplen comes straight from the file.
    if (caplen > max_caplen) {
      throw std::runtime_error(
          "read_pcap: record " + std::to_string(index) + " caplen " +
          std::to_string(caplen) + " exceeds the limit " +
          std::to_string(max_caplen) + " (min of snaplen and " +
          std::to_string(kMaxCaplen) + ")");
    }

    if (caplen < Ipv4Header::kSize) {
      throw std::runtime_error(
          "read_pcap: record " + std::to_string(index) + " caplen " +
          std::to_string(caplen) + " is shorter than the " +
          std::to_string(Ipv4Header::kSize) + "-byte IPv4 header");
    }

    std::vector<std::uint8_t> bytes(caplen);
    in.read(reinterpret_cast<char*>(bytes.data()), caplen);
    if (!in) throw std::runtime_error("read_pcap: truncated record body");

    // LINKTYPE_RAW also carries IPv6: such records are skipped and counted,
    // not parsed as IPv4.
    if ((bytes[0] >> 4) != 4) {
      TELEM_COUNT("net.pcap.skipped_non_ipv4");
      continue;
    }
    Ipv4Header ip = Ipv4Header::parse(bytes.data(), bytes.size());
    // The L4 header starts after the IP options: IHL counts 32-bit words.
    const std::size_t l4_off = std::size_t{ip.ihl} * 4;
    if (ip.ihl < 5 || l4_off > bytes.size()) {
      throw std::runtime_error(
          "read_pcap: record " + std::to_string(index) + " IHL " +
          std::to_string(ip.ihl) + " gives a " + std::to_string(l4_off) +
          "-byte IP header (need 20 to caplen " + std::to_string(caplen) +
          ")");
    }
    PacketRecord rec;
    rec.timestamp = static_cast<double>(sec) + static_cast<double>(sub) * sub_unit;
    rec.size = std::max(wirelen, static_cast<std::uint32_t>(ip.total_length));
    rec.ttl = ip.ttl;
    rec.key.src_ip = ip.src;
    rec.key.dst_ip = ip.dst;
    rec.key.protocol = ip.protocol;
    if ((ip.protocol == Protocol::kTcp || ip.protocol == Protocol::kUdp) &&
        bytes.size() >= l4_off + 4) {
      rec.key.src_port =
          static_cast<std::uint16_t>((bytes[l4_off] << 8) | bytes[l4_off + 1]);
      rec.key.dst_port = static_cast<std::uint16_t>((bytes[l4_off + 2] << 8) |
                                                    bytes[l4_off + 3]);
    }
    if (ip.protocol == Protocol::kTcp && bytes.size() >= l4_off + 14) {
      rec.tcp_flags = bytes[l4_off + 13];
    }
    trace.packets.push_back(rec);
  }
  return trace;
}

PacketTrace read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_pcap_file: cannot open " + path);
  return read_pcap(in);
}

}  // namespace netshare::net
