// The host fingerprint the kernel and pipeline benches write into their
// JSON. A target that includes this defines NETSHARE_BENCH_COMPILER and
// NETSHARE_BENCH_BUILD_TYPE (bench/CMakeLists.txt).
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

#include "ml/kernels.hpp"

namespace netshare::bench {

// The host's CPU model string from /proc/cpuinfo ("unknown" without one).
inline std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

inline const char* tier_name(ml::kernels::SimdTier t) {
  return t == ml::kernels::SimdTier::kAvx2 ? "avx2" : "scalar";
}

// A JSON object with perfbench's fields and spellings (nproc, cpu_model,
// simd_*, compiler, build_type) plus what the kernel code that ran was
// built for (kernel_isa, kernel_flags). Baselines are only comparable
// between files whose fingerprints are equal.
inline std::string fingerprint_json(unsigned hw) {
  std::string escaped;
  for (const char ch : cpu_model()) {
    if (ch == '"' || ch == '\\') escaped += '\\';
    escaped += ch;
  }
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"cpu_model\": \"%s\", "
                "\"simd_supported\": \"%s\", \"simd_active\": \"%s\", "
                "\"kernel_isa\": \"%s\", \"kernel_flags\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                hw > 0 ? hw : 1, escaped.c_str(),
                tier_name(ml::kernels::supported_tier()),
                tier_name(ml::kernels::active_tier()),
                ml::kernels::kernel_isa(), ml::kernels::kernel_flags(),
                NETSHARE_BENCH_COMPILER, NETSHARE_BENCH_BUILD_TYPE);
  return buf;
}

}  // namespace netshare::bench
