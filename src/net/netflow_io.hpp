// NetFlow-style CSV reader/writer (UGR16-like column layout).
#pragma once

#include <iosfwd>
#include <string>

#include "net/trace.hpp"

namespace netshare::net {

// Columns: start_time,duration,src_ip,dst_ip,src_port,dst_port,protocol,
//          packets,bytes,label,attack_type
void write_netflow_csv(const FlowTrace& trace, std::ostream& out);
void write_netflow_csv_file(const FlowTrace& trace, const std::string& path);

// Parses the format written by write_netflow_csv (header row required).
// Throws std::runtime_error on malformed rows; a bad numeric field (not a
// number, negative count, port above 65535, NaN/infinite/negative time)
// names its line and column.
FlowTrace read_netflow_csv(std::istream& in);
FlowTrace read_netflow_csv_file(const std::string& path);

}  // namespace netshare::net
