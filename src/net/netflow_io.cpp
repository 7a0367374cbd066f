#include "net/netflow_io.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace netshare::net {

namespace {
constexpr char kHeader[] =
    "start_time,duration,src_ip,dst_ip,src_port,dst_port,protocol,packets,"
    "bytes,label,attack_type";
constexpr std::array<const char*, 11> kColumns = {
    "start_time", "duration", "src_ip",  "dst_ip", "src_port",   "dst_port",
    "protocol",   "packets",  "bytes",   "label",  "attack_type"};

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

Protocol protocol_from_string(const std::string& s) {
  if (s == "TCP") return Protocol::kTcp;
  if (s == "UDP") return Protocol::kUdp;
  if (s == "ICMP") return Protocol::kIcmp;
  throw std::runtime_error("netflow csv: unknown protocol '" + s + "'");
}

// Parses numeric column `col` of a row, naming the line and column on any
// failure. The whole field must be the number (no trailing bytes; unsigned
// fields take no sign, so "-1" is rejected instead of wrapping), integers
// must fit T (a port above 65535 is out of range), and times must be finite
// and non-negative.
template <typename T>
T parse_field(const std::vector<std::string>& fields, std::size_t col,
              std::size_t line_no) {
  const std::string& s = fields[col];
  const auto fail = [&](const char* why) {
    throw std::runtime_error("netflow csv: line " + std::to_string(line_no) +
                             ", column " + kColumns[col] + ": " + why +
                             " '" + s + "'");
  };
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc::result_out_of_range) fail("out of range");
  if (ec != std::errc{} || end != s.data() + s.size()) fail("not a number");
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v) || v < 0) fail("not a finite non-negative time");
  }
  return v;
}
}  // namespace

void write_netflow_csv(const FlowTrace& trace, std::ostream& out) {
  // Full round-trip precision for the time fields.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << kHeader << '\n';
  for (const auto& r : trace.records) {
    out << r.start_time << ',' << r.duration << ',' << r.key.src_ip.to_string()
        << ',' << r.key.dst_ip.to_string() << ',' << r.key.src_port << ','
        << r.key.dst_port << ',' << protocol_name(r.key.protocol) << ','
        << r.packets << ',' << r.bytes << ',' << (r.is_attack ? 1 : 0) << ','
        << attack_type_name(r.attack_type) << '\n';
  }
}

void write_netflow_csv_file(const FlowTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_netflow_csv_file: cannot open " + path);
  write_netflow_csv(trace, out);
}

FlowTrace read_netflow_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    throw std::runtime_error("netflow csv: missing or unexpected header row");
  }
  FlowTrace trace;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto f = split_csv_row(line);
    if (f.size() != 11) {
      throw std::runtime_error("netflow csv: bad column count at line " +
                               std::to_string(line_no));
    }
    FlowRecord r;
    r.start_time = parse_field<double>(f, 0, line_no);
    r.duration = parse_field<double>(f, 1, line_no);
    r.key.src_ip = Ipv4Address::parse(f[2]);
    r.key.dst_ip = Ipv4Address::parse(f[3]);
    r.key.src_port = parse_field<std::uint16_t>(f, 4, line_no);
    r.key.dst_port = parse_field<std::uint16_t>(f, 5, line_no);
    r.key.protocol = protocol_from_string(f[6]);
    r.packets = parse_field<std::uint64_t>(f, 7, line_no);
    r.bytes = parse_field<std::uint64_t>(f, 8, line_no);
    r.is_attack = f[9] == "1";
    r.attack_type = attack_type_from_name(f[10]);
    trace.records.push_back(r);
  }
  return trace;
}

FlowTrace read_netflow_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_netflow_csv_file: cannot open " + path);
  return read_netflow_csv(in);
}

}  // namespace netshare::net
