// Tests for the net substrate: addresses, checksums, headers, 5-tuples,
// traces, pcap/netflow IO, and the NetFlow collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "net/checksum.hpp"
#include "net/flow_collector.hpp"
#include "net/ipv4.hpp"
#include "net/netflow_io.hpp"
#include "net/pcap_io.hpp"
#include "net/ports.hpp"
#include "net/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::net {
namespace {

TEST(Ipv4Address, FormatsAndParsesDottedQuad) {
  Ipv4Address a(192, 168, 1, 42);
  EXPECT_EQ(a.to_string(), "192.168.1.42");
  EXPECT_EQ(Ipv4Address::parse("192.168.1.42"), a);
}

TEST(Ipv4Address, ParseRejectsMalformedInput) {
  EXPECT_THROW(Ipv4Address::parse("256.1.1.1"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("a.b.c.d"), std::invalid_argument);
}

TEST(Ipv4Address, OctetsAreMsbFirst) {
  Ipv4Address a(10, 20, 30, 40);
  EXPECT_EQ(a.octet(0), 10);
  EXPECT_EQ(a.octet(1), 20);
  EXPECT_EQ(a.octet(2), 30);
  EXPECT_EQ(a.octet(3), 40);
}

TEST(Ipv4Address, ClassPredicates) {
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(240, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(255, 1, 2, 3).is_broadcast_prefix());
  EXPECT_TRUE(Ipv4Address(0, 1, 2, 3).is_zero_prefix());
  EXPECT_TRUE(Ipv4Address(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(192, 168, 0, 1).is_private());
  EXPECT_FALSE(Ipv4Address(172, 32, 0, 1).is_private());
}

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example from RFC 1071 documentation:
  // 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data, sizeof data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0xab};
  // word is 0xab00; checksum = ~0xab00 = 0x54ff.
  EXPECT_EQ(internet_checksum(data, 1), 0x54ff);
}

TEST(Checksum, AccumulatorMatchesSinglePass) {
  std::vector<std::uint8_t> data(37);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  ChecksumAccumulator acc;
  acc.add(data.data(), 10);
  acc.add(data.data() + 10, 27);
  EXPECT_EQ(acc.finalize(), internet_checksum(data.data(), data.size()));
}

TEST(Checksum, AccumulatorHandlesOddSplit) {
  std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7};
  ChecksumAccumulator acc;
  acc.add(data.data(), 3);  // odd split
  acc.add(data.data() + 3, 4);
  EXPECT_EQ(acc.finalize(), internet_checksum(data.data(), data.size()));
}

TEST(Ipv4Header, SerializeProducesValidChecksum) {
  Ipv4Header h;
  h.total_length = 60;
  h.protocol = Protocol::kTcp;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  const auto bytes = h.serialize();
  // Checksum over the serialized header (with its checksum field) must be 0.
  EXPECT_EQ(internet_checksum(bytes.data(), bytes.size()), 0);
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.total_length = 1500;
  h.identification = 0x1234;
  h.ttl = 57;
  h.protocol = Protocol::kUdp;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(200, 100, 50, 25);
  const auto bytes = h.serialize();
  const Ipv4Header parsed = Ipv4Header::parse(bytes.data(), bytes.size());
  EXPECT_EQ(parsed.total_length, h.total_length);
  EXPECT_EQ(parsed.identification, h.identification);
  EXPECT_EQ(parsed.ttl, h.ttl);
  EXPECT_EQ(parsed.protocol, h.protocol);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_TRUE(parsed.checksum_valid());
}

TEST(Ipv4Header, ParseRejectsShortOrNonIpv4) {
  std::uint8_t short_buf[10] = {};
  EXPECT_THROW(Ipv4Header::parse(short_buf, sizeof short_buf),
               std::invalid_argument);
  std::uint8_t v6[20] = {};
  v6[0] = 0x65;
  EXPECT_THROW(Ipv4Header::parse(v6, sizeof v6), std::invalid_argument);
}

TEST(MinPacketSize, MatchesPaperAppendixB) {
  EXPECT_EQ(min_packet_size(Protocol::kTcp), 40u);
  EXPECT_EQ(min_packet_size(Protocol::kUdp), 28u);
}

TEST(FiveTuple, EqualityAndHashing) {
  FiveTuple a{Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 1000, 80,
              Protocol::kTcp};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.dst_port = 81;
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());  // overwhelmingly likely
}

TEST(FiveTuple, OrderingIsStrictWeak) {
  FiveTuple a{Ipv4Address(1, 0, 0, 1), Ipv4Address(2, 0, 0, 1), 10, 20,
              Protocol::kTcp};
  FiveTuple b = a;
  b.src_port = 11;
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
}

TEST(WellKnownPorts, PinsExpectedProtocols) {
  EXPECT_EQ(well_known_port_protocol(80), Protocol::kTcp);
  EXPECT_EQ(well_known_port_protocol(53), Protocol::kUdp);
  EXPECT_EQ(well_known_port_protocol(443), Protocol::kTcp);
  EXPECT_EQ(well_known_port_protocol(12345), std::nullopt);
}

TEST(AttackTypes, NameRoundTrip) {
  for (int i = 0; i <= static_cast<int>(AttackType::kXss); ++i) {
    const auto t = static_cast<AttackType>(i);
    EXPECT_EQ(attack_type_from_name(attack_type_name(t)), t);
  }
  EXPECT_THROW(attack_type_from_name("nonsense"), std::invalid_argument);
}

PacketTrace tiny_trace() {
  PacketTrace t;
  FiveTuple f1{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1111, 80,
               Protocol::kTcp};
  FiveTuple f2{Ipv4Address(3, 3, 3, 3), Ipv4Address(4, 4, 4, 4), 2222, 53,
               Protocol::kUdp};
  t.packets.push_back({5.0, f1, 100, 64, 0x10});
  t.packets.push_back({1.0, f2, 60, 32, 0x10});
  t.packets.push_back({3.0, f1, 1500, 64, 0x10});
  return t;
}

TEST(PacketTrace, SortByTimeIsStableAscending) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  EXPECT_DOUBLE_EQ(t.packets[0].timestamp, 1.0);
  EXPECT_DOUBLE_EQ(t.packets[1].timestamp, 3.0);
  EXPECT_DOUBLE_EQ(t.packets[2].timestamp, 5.0);
}

TEST(PacketTrace, EpochSplitAndMergeRoundTrip) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  const auto epochs = t.split_epochs(2.0);
  ASSERT_EQ(epochs.size(), 3u);  // [1,3), [3,5), [5,7)
  EXPECT_EQ(epochs[0].size(), 1u);
  EXPECT_EQ(epochs[1].size(), 1u);
  EXPECT_EQ(epochs[2].size(), 1u);
  const PacketTrace merged = PacketTrace::merge(epochs);
  EXPECT_EQ(merged.size(), t.size());
  EXPECT_EQ(merged.packets, t.packets);
}

TEST(PacketTrace, GroupByFlowKeepsFirstSeenOrder) {
  PacketTrace t = tiny_trace();  // f1 at idx 0, f2 at idx 1, f1 at idx 2
  const auto groups = t.group_by_flow();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].second, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1].second, (std::vector<std::size_t>{1}));
}

TEST(AggregateFlows, SumsPacketsAndBytes) {
  const auto aggs = aggregate_flows(tiny_trace());
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].packets, 2u);
  EXPECT_EQ(aggs[0].bytes, 1600u);
  EXPECT_DOUBLE_EQ(aggs[0].first_seen, 3.0);
  EXPECT_DOUBLE_EQ(aggs[0].last_seen, 5.0);
  EXPECT_EQ(aggs[1].packets, 1u);
}

TEST(PcapIo, WriteReadRoundTrip) {
  PacketTrace t = tiny_trace();
  t.sort_by_time();
  std::stringstream ss;
  write_pcap(t, ss);
  const PacketTrace back = read_pcap(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.packets[i].key, t.packets[i].key) << "packet " << i;
    EXPECT_EQ(back.packets[i].size, t.packets[i].size);
    EXPECT_EQ(back.packets[i].ttl, t.packets[i].ttl);
    EXPECT_NEAR(back.packets[i].timestamp, t.packets[i].timestamp, 1e-5);
  }
}

TEST(PcapIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "not a pcap file at all";
  EXPECT_THROW(read_pcap(ss), std::runtime_error);
}

// Hand-built LINKTYPE_RAW pcap bytes. Header fields are written in the
// byte order given at construction (little-endian by default); packet bytes
// are the same either way.
struct PcapBytes {
  std::string s;
  bool big_endian = false;
  void u8(std::uint8_t v) { s.push_back(static_cast<char>(v)); }
  void le16(std::uint16_t v) {
    u8(v & 0xff);
    u8(v >> 8);
  }
  void le32(std::uint32_t v) {
    le16(v & 0xffff);
    le16(v >> 16);
  }
  void be16(std::uint16_t v) {
    u8(v >> 8);
    u8(v & 0xff);
  }
  void field32(std::uint32_t v) {
    if (!big_endian) return le32(v);
    be16(static_cast<std::uint16_t>(v >> 16));
    be16(v & 0xffff);
  }
  void field16(std::uint16_t v) { big_endian ? be16(v) : le16(v); }
  explicit PcapBytes(std::uint32_t snaplen, std::uint32_t magic = 0xa1b2c3d4u,
                     bool big = false)
      : big_endian(big) {
    field32(magic);
    field16(2);  // version 2.4
    field16(4);
    for (std::uint32_t v : {0u, 0u, snaplen, 101u}) {
      field32(v);  // thiszone, sigfigs, snaplen, linktype
    }
  }
  void record_header(std::uint32_t caplen, std::uint32_t sec = 1,
                     std::uint32_t sub = 0) {
    for (std::uint32_t v : {sec, sub, caplen, caplen}) field32(v);
  }
  // IPv4 (IHL words, NOP options) + 4 bytes of TCP ports. The base header
  // is always written, so IHL < 5 makes a 24-byte record.
  void tcp_packet(std::uint8_t ihl, std::uint16_t sport, std::uint16_t dport,
                  std::uint32_t sec = 1, std::uint32_t sub = 0) {
    const std::uint32_t ip_len = std::max<std::uint32_t>(20, ihl * 4u);
    record_header(ip_len + 4, sec, sub);
    u8(static_cast<std::uint8_t>(0x40 | ihl));
    u8(0);
    be16(static_cast<std::uint16_t>(ip_len + 20));
    le32(0);           // identification, flags/fragment
    u8(64);            // ttl
    u8(6);             // protocol TCP
    le16(0);           // checksum
    le32(0x0100000a);  // 10.0.0.1
    le32(0x0200000a);  // 10.0.0.2
    for (std::uint32_t i = 20; i < ip_len; ++i) u8(1);  // NOP options
    be16(sport);
    be16(dport);
  }
};

TEST(PcapIo, ReadsPortsAfterIpOptions) {
  PcapBytes b(96);
  b.tcp_packet(5, 1111, 22);
  b.tcp_packet(7, 1234, 80);  // 8 bytes of options
  std::stringstream ss(b.s);
  const PacketTrace t = read_pcap(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.packets[0].key.src_port, 1111);
  EXPECT_EQ(t.packets[0].key.dst_port, 22);
  EXPECT_EQ(t.packets[1].key.src_port, 1234);
  EXPECT_EQ(t.packets[1].key.dst_port, 80);
  EXPECT_EQ(t.packets[1].key.protocol, Protocol::kTcp);
}

TEST(PcapIo, ReadsEitherByteOrderAndBothTimestampUnits) {
  struct Case {
    std::uint32_t magic;
    bool big_endian;
    std::uint32_t sub;
    double timestamp;
  };
  for (const Case& c : {Case{0xa1b2c3d4u, true, 250000, 7.25},
                        Case{0xa1b23c4du, false, 123456789, 7.123456789},
                        Case{0xa1b23c4du, true, 5, 7.000000005}}) {
    PcapBytes b(96, c.magic, c.big_endian);
    b.tcp_packet(5, 1111, 22, 7, c.sub);
    b.tcp_packet(6, 2222, 443, 9, 0);
    std::stringstream ss(b.s);
    const PacketTrace t = read_pcap(ss);
    ASSERT_EQ(t.size(), 2u) << std::hex << c.magic << " be " << c.big_endian;
    EXPECT_DOUBLE_EQ(t.packets[0].timestamp, c.timestamp);
    EXPECT_DOUBLE_EQ(t.packets[1].timestamp, 9.0);
    EXPECT_EQ(t.packets[0].key.src_port, 1111);
    EXPECT_EQ(t.packets[1].key.dst_port, 443);
    EXPECT_EQ(t.packets[1].ttl, 64);
  }
}

std::string read_pcap_error(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    read_pcap(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(PcapIo, RejectsUnknownMagicNamingItsBytes) {
  std::string msg = read_pcap_error("not a pcap file at all");
  EXPECT_NE(msg.find("bad magic bytes 6e 6f 74 20"), std::string::npos) << msg;
  // A big-endian file whose caplen check still works after the swap.
  PcapBytes big(96, 0xa1b2c3d4u, true);
  big.record_header(1u << 30);
  msg = read_pcap_error(big.s);
  EXPECT_NE(msg.find("record 0 caplen 1073741824"), std::string::npos) << msg;
  msg = read_pcap_error("\xd4\xc3");
  EXPECT_NE(msg.find("shorter than 4 bytes"), std::string::npos) << msg;
}

TEST(PcapIo, RejectsOversizedCaplenBeforeAllocating) {
  // Past snaplen: record 1 names a 1 GiB body the file does not hold.
  PcapBytes b(96);
  b.tcp_packet(5, 1, 2);
  b.record_header(1u << 30);
  const std::string msg = read_pcap_error(b.s);
  EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("caplen"), std::string::npos) << msg;
  // A huge snaplen still caps caplen at 262144.
  PcapBytes big(0xffffffff);
  big.record_header(262145);
  EXPECT_NE(read_pcap_error(big.s).find("record 0"), std::string::npos);
}

TEST(PcapIo, RejectsBadIhl) {
  PcapBytes short_ihl(96);
  short_ihl.tcp_packet(4, 1, 2);
  EXPECT_NE(read_pcap_error(short_ihl.s).find("IHL 4"), std::string::npos);
  // IHL 15 claims a 60-byte header; the record holds 24 bytes.
  PcapBytes past_caplen(96);
  past_caplen.tcp_packet(5, 1, 2);
  past_caplen.s[24 + 16] = static_cast<char>(0x4f);  // record 0's first byte
  EXPECT_NE(read_pcap_error(past_caplen.s).find("record 0 IHL 15"),
            std::string::npos);
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [n, v] : telemetry::snapshot_metrics().counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(PcapIo, SkipsNonIpv4RecordsAndCountsThem) {
  const std::uint64_t before = counter_value("net.pcap.skipped_non_ipv4");
  PcapBytes b(96);
  b.tcp_packet(5, 1111, 22);
  b.record_header(40);  // an IPv6 header (version nibble 6), no payload
  b.u8(0x60);
  for (int i = 1; i < 40; ++i) b.u8(0);
  b.tcp_packet(5, 3333, 443);
  std::stringstream ss(b.s);
  const PacketTrace t = read_pcap(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.packets[0].key.src_port, 1111);
  EXPECT_EQ(t.packets[1].key.src_port, 3333);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(counter_value("net.pcap.skipped_non_ipv4"), before + 1);
  }
}

TEST(PcapIo, RejectsCaplenBelowIpv4HeaderNamingTheRecord) {
  PcapBytes b(96);
  b.tcp_packet(5, 1, 2);
  b.record_header(12);
  b.u8(0x45);
  for (int i = 1; i < 12; ++i) b.u8(0);
  const std::string msg = read_pcap_error(b.s);
  EXPECT_NE(msg.find("record 1 caplen 12"), std::string::npos) << msg;
}

TEST(NetflowIo, CsvRoundTrip) {
  FlowTrace t;
  FlowRecord r;
  r.key = {Ipv4Address(9, 8, 7, 6), Ipv4Address(5, 4, 3, 2), 4242, 443,
           Protocol::kTcp};
  r.start_time = 12.5;
  r.duration = 3.25;
  r.packets = 17;
  r.bytes = 12345;
  r.is_attack = true;
  r.attack_type = AttackType::kDos;
  t.records.push_back(r);

  std::stringstream ss;
  write_netflow_csv(t, ss);
  const FlowTrace back = read_netflow_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records[0], r);
}

TEST(NetflowIo, RejectsMissingHeader) {
  std::stringstream ss;
  ss << "1,2,3\n";
  EXPECT_THROW(read_netflow_csv(ss), std::runtime_error);
}

// Reads a header, one valid row, then `row`; returns the error message.
std::string read_netflow_error(const std::string& row) {
  std::stringstream ss;
  ss << "start_time,duration,src_ip,dst_ip,src_port,dst_port,protocol,"
        "packets,bytes,label,attack_type\n"
     << "0.5,1.25,10.0.0.1,10.0.0.2,1234,80,TCP,3,180,0,none\n"
     << row << "\n";
  try {
    read_netflow_csv(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(NetflowIo, RejectsNonNumericFieldNamingLineAndColumn) {
  const std::string msg =
      read_netflow_error("0.5,abc,10.0.0.1,10.0.0.2,1234,80,TCP,3,180,0,none");
  EXPECT_NE(msg.find("line 3, column duration"), std::string::npos) << msg;
  EXPECT_NE(read_netflow_error(
                "0.5,1.25,10.0.0.1,10.0.0.2,1234,80,TCP,3x,180,0,none")
                .find("line 3, column packets"),
            std::string::npos);
}

TEST(NetflowIo, RejectsPortAbove65535) {
  const std::string msg = read_netflow_error(
      "0.5,1.25,10.0.0.1,10.0.0.2,1234,65536,TCP,3,180,0,none");
  EXPECT_NE(msg.find("line 3, column dst_port: out of range"),
            std::string::npos)
      << msg;
}

TEST(NetflowIo, RejectsNegativeCount) {
  const std::string msg = read_netflow_error(
      "0.5,1.25,10.0.0.1,10.0.0.2,1234,80,TCP,-1,180,0,none");
  EXPECT_NE(msg.find("line 3, column packets"), std::string::npos) << msg;
}

TEST(NetflowIo, RejectsNanTime) {
  const std::string msg = read_netflow_error(
      "nan,1.25,10.0.0.1,10.0.0.2,1234,80,TCP,3,180,0,none");
  EXPECT_NE(msg.find("line 3, column start_time: not a finite"),
            std::string::npos)
      << msg;
}

TEST(NetflowIo, RejectsNegativeTime) {
  const std::string msg = read_netflow_error(
      "0.5,-1.25,10.0.0.1,10.0.0.2,1234,80,TCP,3,180,0,none");
  EXPECT_NE(msg.find("line 3, column duration: not a finite"),
            std::string::npos)
      << msg;
}

TEST(FlowCollector, SinglePacketMakesSingleRecord) {
  PacketTrace t;
  FiveTuple f{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2,
              Protocol::kUdp};
  t.packets.push_back({0.0, f, 100, 64, 0});
  const FlowTrace flows = FlowCollector({15.0, 60.0}).collect(t);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.records[0].packets, 1u);
  EXPECT_EQ(flows.records[0].bytes, 100u);
}

TEST(FlowCollector, InactiveTimeoutSplitsFlow) {
  PacketTrace t;
  FiveTuple f{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2,
              Protocol::kTcp};
  t.packets.push_back({0.0, f, 100, 64, 0});
  t.packets.push_back({1.0, f, 100, 64, 0});
  t.packets.push_back({30.0, f, 100, 64, 0});  // idle 29s > 15s timeout
  const FlowTrace flows = FlowCollector({15.0, 600.0}).collect(t);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows.records[0].packets, 2u);
  EXPECT_EQ(flows.records[1].packets, 1u);
}

TEST(FlowCollector, ActiveTimeoutSplitsLongFlow) {
  PacketTrace t;
  FiveTuple f{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2,
              Protocol::kTcp};
  for (int i = 0; i < 100; ++i) {
    t.packets.push_back({i * 1.0, f, 100, 64, 0});
  }
  const FlowTrace flows = FlowCollector({15.0, 30.0}).collect(t);
  // 100 seconds of 1s-spaced packets with a 30s active timeout -> >= 3 records.
  EXPECT_GE(flows.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& r : flows.records) total += r.packets;
  EXPECT_EQ(total, 100u);
}

TEST(FlowCollector, DistinctTuplesStaySeparate) {
  PacketTrace t = tiny_trace();
  const FlowTrace flows = FlowCollector({15.0, 60.0}).collect(t);
  EXPECT_EQ(flows.size(), 2u);
}

}  // namespace
}  // namespace netshare::net
