// Embedding-engine micro-bench (DESIGN.md §12): vocabulary scaling from
// ~10^3 to 10^6 tokens, batched nearest-neighbour decode vs the retained
// linear-scan oracle at the production dim (4), steady-state decode
// allocations, and batched-trainer throughput.
//
// Small scales come from the datagen presets via PresetOverrides (the
// vocabulary-scaling knob); the 10^5 / 10^6 scales synthesize sentences
// directly so the bench measures the engine, not the trace simulator.
// Emits BENCH_embed.json (path overridable via argv[1]).
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "datagen/presets.hpp"
#include "embed/ip2vec.hpp"
#include "embed/token.hpp"
#include "ml/matrix.hpp"
#include "ml/workspace.hpp"
#include "net/trace.hpp"

namespace {

using netshare::Rng;
using netshare::Stopwatch;
using netshare::bench::time_best;
using netshare::embed::Ip2Vec;
using netshare::embed::Token;
using netshare::embed::TokenKind;
using netshare::ml::Matrix;

constexpr std::size_t kDim = 4;  // the production encoder dim

// Synthetic sentence set with `num_ips` distinct IP tokens: every sentence
// introduces two fresh IPs; ports come from a small fixed pool so the IP
// shard dominates the vocabulary like a backbone trace.
std::vector<std::vector<Token>> synth_sentences(std::size_t num_ips,
                                                std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = num_ips / 2;
  std::vector<std::vector<Token>> sentences;
  sentences.reserve(n);
  constexpr std::uint32_t kService[] = {53, 80, 443, 22, 25};
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = static_cast<std::uint32_t>(2 * i);
    const auto dst = static_cast<std::uint32_t>(2 * i + 1);
    if (i % 97 == 96) {  // ICMP sentences carry no ports
      sentences.push_back({{TokenKind::kIp, src},
                           {TokenKind::kIp, dst},
                           {TokenKind::kProtocol, 1}});
      continue;
    }
    const auto sport =
        static_cast<std::uint32_t>(1024 + rng.uniform_int(0, 63));
    const std::uint32_t dport = kService[rng.uniform_int(0, 4)];
    const std::uint32_t proto = i % 2 ? 17 : 6;
    sentences.push_back({{TokenKind::kIp, src},
                         {TokenKind::kIp, dst},
                         {TokenKind::kPort, sport},
                         {TokenKind::kPort, dport},
                         {TokenKind::kProtocol, proto}});
  }
  return sentences;
}

// Datagen sentence set through the PresetOverrides vocabulary-scaling knob:
// uniform (alpha 0) address popularity over widened pools so records visit
// the whole pool instead of a Zipf head.
std::vector<std::vector<Token>> datagen_sentences(std::size_t pool_per_side,
                                                  std::size_t records,
                                                  std::uint64_t seed) {
  netshare::datagen::PresetOverrides ov;
  ov.num_src_ips = pool_per_side;
  ov.num_dst_ips = pool_per_side;
  ov.src_zipf_alpha = 0.0;
  ov.dst_zipf_alpha = 0.0;
  const auto bundle = netshare::datagen::make_dataset(
      netshare::datagen::DatasetId::kCidds, records, seed, ov);
  return netshare::embed::sentences_from_flows(bundle.flows);
}

Matrix make_queries(std::size_t n, std::uint64_t seed) {
  Matrix q(n, kDim);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < kDim; ++k) q(i, k) = rng.uniform(-0.8, 0.8);
  }
  return q;
}

struct ScaleRow {
  std::size_t target = 0;
  const char* source = "";
  std::size_t sentences = 0;
  std::size_t tokens = 0;
  std::size_t ip_tokens = 0;
  double train_sec = 0.0;
  double decode_us_per_query = 0.0;
};

// Trains at the production dim and times a 256-query batched IP decode.
ScaleRow bench_scale(std::size_t target, const char* source,
                     std::vector<std::vector<Token>> sentences, int epochs,
                     Ip2Vec& model) {
  ScaleRow row;
  row.target = target;
  row.source = source;
  row.sentences = sentences.size();
  Ip2Vec::Config cfg;
  cfg.dim = kDim;
  cfg.epochs = epochs;
  cfg.negatives = 2;
  Rng rng(target ^ 0x9e3779b97f4a7c15ULL);
  Stopwatch sw;
  model.train(sentences, cfg, rng);
  row.train_sec = sw.seconds();
  row.tokens = model.vocab_size();
  row.ip_tokens = model.vocab().kind_size(TokenKind::kIp);

  const Matrix q = make_queries(256, 17);
  std::vector<Token> out(q.rows());
  netshare::ml::Workspace ws;
  const double sec = time_best(
      [&] {
        ws.reset();
        model.nearest_batch(q, TokenKind::kIp, {}, out, ws);
      },
      0.1);
  row.decode_us_per_query = sec / static_cast<double>(q.rows()) * 1e6;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_embed.json";

  // --- Vocabulary scaling, 10^3 .. 10^6 tokens -------------------------
  std::vector<ScaleRow> scaling;
  Ip2Vec model_small, model_10k, model_100k, model_1m;
  scaling.push_back(bench_scale(1000, "datagen",
                                datagen_sentences(300, 600, 1), 2,
                                model_small));
  scaling.push_back(bench_scale(10000, "datagen",
                                datagen_sentences(3000, 8000, 2), 2,
                                model_10k));
  scaling.push_back(
      bench_scale(100000, "synthetic", synth_sentences(100000, 3), 1,
                  model_100k));
  scaling.push_back(
      bench_scale(1000000, "synthetic", synth_sentences(1000000, 4), 1,
                  model_1m));
  for (const auto& r : scaling) {
    std::printf(
        "scale %7zu (%s): %zu sentences -> %zu tokens (%zu IPs), "
        "train %.2fs, decode %.2f us/query\n",
        r.target, r.source, r.sentences, r.tokens, r.ip_tokens, r.train_sec,
        r.decode_us_per_query);
  }

  // --- Batched decode vs the linear-scan oracle at 10^5 vocab ----------
  // model_100k is already trained at the production dim; both sides decode
  // the same 512 queries over the IP shard.
  const Matrix q512 = make_queries(512, 23);
  std::vector<Token> out_batch(q512.rows());
  netshare::ml::Workspace ws;
  const double batch_sec = time_best([&] {
    ws.reset();
    model_100k.nearest_batch(q512, TokenKind::kIp, {}, out_batch, ws);
  });
  const double scan_sec = time_best([&] {
    for (std::size_t i = 0; i < q512.rows(); ++i) {
      out_batch[i] = model_100k.nearest(
          {q512.row_ptr(i), kDim}, TokenKind::kIp);
    }
  });
  const double speedup = scan_sec / batch_sec;
  std::printf("decode@100k: batch %.2f us/query, scan %.2f us/query (%.1fx)\n",
              batch_sec / 512 * 1e6, scan_sec / 512 * 1e6, speedup);

  // --- Steady-state allocations per decoded batch ----------------------
  for (int warm = 0; warm < 2; ++warm) {
    ws.reset();
    model_100k.nearest_batch(q512, TokenKind::kIp, {}, out_batch, ws);
  }
  netshare::ml::alloc_counter::reset();
  ws.reset();
  model_100k.nearest_batch(q512, TokenKind::kIp, {}, out_batch, ws);
  const std::uint64_t allocs = netshare::ml::alloc_counter::count();
  std::printf("decode allocs/batch: %llu\n",
              static_cast<unsigned long long>(allocs));

  // --- Million-token decode (batched only; the scan would take minutes) -
  const Matrix q256 = make_queries(256, 29);
  std::vector<Token> out256(q256.rows());
  ws.reset();
  Stopwatch sw_m;
  model_1m.nearest_batch(q256, TokenKind::kIp, {}, out256, ws);
  const double m_decode_sec = sw_m.seconds();
  const ScaleRow& m = scaling.back();
  std::printf("million vocab: %zu tokens, train %.2fs, decode %.2f us/query\n",
              m.tokens, m.train_sec,
              m_decode_sec / static_cast<double>(q256.rows()) * 1e6);

  // --- Trainer throughput vs batch size (informational) ----------------
  struct ThroughputRow {
    std::size_t batch;
    double mips;  // million interactions / sec
  };
  std::vector<ThroughputRow> throughput;
  {
    const auto sentences = synth_sentences(20000, 5);
    const double interactions =  // pairs * (1 + negatives), 1 epoch
        static_cast<double>(sentences.size()) * 20.0 * 3.0;
    for (std::size_t batch : {1u, 64u, 256u}) {
      Ip2Vec t;
      Ip2Vec::Config cfg;
      cfg.dim = kDim;
      cfg.epochs = 1;
      cfg.negatives = 2;
      cfg.batch_interactions = batch;
      Rng rng(11);
      Stopwatch sw;
      t.train(sentences, cfg, rng);
      throughput.push_back({batch, interactions / sw.seconds() / 1e6});
      std::printf("train batch=%zu: %.2f Mi interactions/s\n", batch,
                  throughput.back().mips);
    }
  }

  // --- JSON ------------------------------------------------------------
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"embed\",\n  \"dim\": %zu,\n", kDim);
  std::fprintf(f, "  \"vocab_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const auto& r = scaling[i];
    std::fprintf(f,
                 "    {\"target\": %zu, \"source\": \"%s\", "
                 "\"sentences\": %zu, \"tokens\": %zu, \"ip_tokens\": %zu, "
                 "\"train_sec\": %.4f, \"decode_us_per_query\": %.3f}%s\n",
                 r.target, r.source, r.sentences, r.tokens, r.ip_tokens,
                 r.train_sec, r.decode_us_per_query,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"decode_speedup_100k\": %.3f,\n", speedup);
  std::fprintf(f, "  \"decode_batch_us_per_query_100k\": %.3f,\n",
               batch_sec / 512 * 1e6);
  std::fprintf(f, "  \"decode_scan_us_per_query_100k\": %.3f,\n",
               scan_sec / 512 * 1e6);
  std::fprintf(f, "  \"decode_allocs_per_batch\": %llu,\n",
               static_cast<unsigned long long>(allocs));
  std::fprintf(f,
               "  \"million_vocab\": {\"tokens\": %zu, \"sentences\": %zu, "
               "\"train_sec\": %.4f, \"decode_batch_sec\": %.4f, "
               "\"decode_us_per_query\": %.3f},\n",
               m.tokens, m.sentences, m.train_sec, m_decode_sec,
               m_decode_sec / static_cast<double>(q256.rows()) * 1e6);
  std::fprintf(f, "  \"train_throughput\": [\n");
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    const auto& r = throughput[i];
    std::fprintf(f,
                 "    {\"batch_interactions\": %zu, "
                 "\"mi_interactions_per_sec\": %.3f}%s\n",
                 r.batch, r.mips,
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
