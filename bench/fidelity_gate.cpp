// Fast fidelity gate (ROADMAP 4c step 1): fits NetShare alone, without the
// baselines, on two presets at CI scale with three values of
// NetShareConfig::seed, and records the per-field fidelity of each fit
// (metrics::compare_packets / compare_flows: JSD on the categorical fields,
// raw EMD on the continuous ones) plus the per-preset means. Emits
// BENCH_fidelity.json (path overridable via argv[1]) with every value's
// across-seed [min, max] band and its mean over the seeds.
//
// A change that alters training values on purpose (reordered reductions,
// precision) is judged by this gate instead of bitwise equality:
// scripts/check_bench_regression fails a fresh file whose per-preset seed
// means fall outside the committed file's bands (EXPERIMENTS.md).
//
// The workloads mirror perfbench's fit_pcap_caida and fit_flow_ugr16: the
// same presets, record counts, dataset seed, sequence lengths, iteration
// budgets and port encodings, with the generated trace as large as the
// real one.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/netshare.hpp"
#include "datagen/presets.hpp"
#include "metrics/field_metrics.hpp"

using namespace netshare;

namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

struct Preset {
  const char* name;
  datagen::DatasetId id;
  std::size_t records;
  std::size_t max_seq_len;
  bool ip2vec_ports;
};

// Value name ("jsd.SA", "emd.PS", "mean_jsd", ...) -> one value per seed.
using Values = std::map<std::string, std::vector<double>>;

void record(const metrics::FidelityReport& r, Values& v) {
  for (const auto& [field, x] : r.jsd) v["jsd." + field].push_back(x);
  for (const auto& [field, x] : r.emd) v["emd." + field].push_back(x);
  v["mean_jsd"].push_back(r.mean_jsd());
  v["mean_raw_emd"].push_back(r.mean_raw_emd());
}

Values run_preset(const Preset& p) {
  const auto bundle = datagen::make_dataset(p.id, p.records, 42);
  core::NetShareConfig base;
  base.use_ip2vec_ports = p.ip2vec_ports;
  base.max_seq_len = p.max_seq_len;
  base.seed_iterations = 40;
  base.finetune_iterations = 15;
  const unsigned hw = std::thread::hardware_concurrency();
  base.threads = std::min<std::size_t>(4, hw > 0 ? hw : 1);
  const auto ip2vec =
      p.ip2vec_ports ? core::make_public_ip2vec_for(base, 2015, 4000) : nullptr;
  Values v;
  for (const std::uint64_t seed : kSeeds) {
    core::NetShareConfig cfg = base;
    cfg.seed = seed;
    core::NetShare model(cfg, ip2vec);
    Rng rng(1000 + seed);
    metrics::FidelityReport r;
    if (p.id == datagen::DatasetId::kCaida) {
      model.fit(bundle.packets);
      r = metrics::compare_packets(
          bundle.packets, model.generate_packets(bundle.packets.size(), rng));
    } else {
      model.fit(bundle.flows);
      r = metrics::compare_flows(
          bundle.flows, model.generate_flows(bundle.flows.size(), rng));
    }
    record(r, v);
    std::printf("%-6s seed %llu: mean JSD %.4f, mean raw EMD %.4g\n", p.name,
                static_cast<unsigned long long>(seed), r.mean_jsd(),
                r.mean_raw_emd());
  }
  return v;
}

void write_preset(std::FILE* f, const Preset& p, const Values& v, bool last) {
  std::fprintf(f, "    \"%s\": {\n", p.name);
  std::fprintf(f, "      \"records\": %zu,\n", p.records);
  std::fprintf(f, "      \"max_seq_len\": %zu,\n", p.max_seq_len);
  const auto section = [&](const char* key, const auto& row, bool more) {
    std::fprintf(f, "      \"%s\": {\n", key);
    std::size_t i = 0;
    for (const auto& [name, xs] : v) {
      std::fprintf(f, "        \"%s\": ", name.c_str());
      row(xs);
      std::fprintf(f, "%s\n", ++i < v.size() ? "," : "");
    }
    std::fprintf(f, "      }%s\n", more ? "," : "");
  };
  section("per_seed", [&](const std::vector<double>& xs) {
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::fprintf(f, "%s%.10g", i ? ", " : "", xs[i]);
    }
    std::fprintf(f, "]");
  }, true);
  section("bands", [&](const std::vector<double>& xs) {
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    std::fprintf(f, "[%.10g, %.10g]", *lo, *hi);
  }, true);
  section("seed_means", [&](const std::vector<double>& xs) {
    double sum = 0.0;
    for (const double x : xs) sum += x;
    std::fprintf(f, "%.10g", sum / static_cast<double>(xs.size()));
  }, false);
  std::fprintf(f, "    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fidelity.json";
  const Preset presets[] = {
      {"caida", datagen::DatasetId::kCaida, 2000, 16, false},
      {"ugr16", datagen::DatasetId::kUgr16, 4000, 8, true},
  };
  std::vector<Values> values;
  for (const Preset& p : presets) values.push_back(run_preset(p));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"seeds\": [1, 2, 3],\n");
  std::fprintf(f, "  \"seed_iterations\": 40,\n");
  std::fprintf(f, "  \"finetune_iterations\": 15,\n");
  std::fprintf(f, "  \"fidelity_presets\": {\n");
  for (std::size_t i = 0; i < values.size(); ++i) {
    write_preset(f, presets[i], values[i], i + 1 == values.size());
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
