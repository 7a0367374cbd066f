// NetShare end-to-end facade (Fig. 9): merge epochs -> flow split -> encode
// -> chunked GAN training -> sample -> decode -> merge by timestamp.
//
// Quickstart:
//   core::NetShareConfig cfg;
//   core::NetShare model(cfg, core::make_public_ip2vec());
//   model.fit(real_flow_trace);
//   Rng rng(1);
//   net::FlowTrace synthetic = model.generate_flows(10'000, rng);
#pragma once

#include <memory>
#include <optional>

#include "core/config.hpp"
#include "core/preprocess.hpp"
#include "core/train.hpp"

namespace netshare::core {

// Trains an IP2Vec embedding on the public backbone preset (CAIDA Chicago
// 2015-like), per Insight 2's privacy argument. Deterministic in `seed`
// (and in nothing else: vocab only bounds table size).
std::shared_ptr<embed::Ip2Vec> make_public_ip2vec(
    std::uint64_t seed = 2015, std::size_t records = 4000,
    std::size_t dim = 4, embed::VocabConfig vocab = {});

// Same, with the scalability knobs taken from a NetShareConfig.
std::shared_ptr<embed::Ip2Vec> make_public_ip2vec_for(
    const NetShareConfig& config, std::uint64_t seed = 2015,
    std::size_t records = 4000);

// --- chunk-part sampling toolkit (DESIGN.md §13) ---
// The building blocks of the generation path, exposed so the serving layer
// (src/serve) can coalesce several jobs into shared chunk-part sampling
// passes while staying on the exact code path generate_flows() uses. Each
// part is a pure function of (chunk models, config, seed, chunk, target):
// independent of batching, of job interleaving, and of worker counts.

// Per-chunk record targets proportional to the real chunk sizes (sums to ~n).
std::vector<std::size_t> chunk_record_targets(
    const std::vector<ChunkInfo>& chunks, std::size_t n);

// Deficit-loop sampling + decode of chunk c's sub-trace toward `target`
// records (overshoot is trimmed by export_flow_chunk_part). Each round's n
// series are sampled and decoded in slices of min(slice_series(),
// max(batch_size, ceil(n / width))) series, up to `width` slices at once on
// the shared executor; the exported part is bitwise identical at every
// width.
void sample_flow_chunk_part(const std::vector<ChunkInfo>& chunks,
                            std::size_t c, std::size_t target,
                            std::uint64_t seed, const NetShareConfig& config,
                            ChunkedTrainer& trainer,
                            const FlowEncoder& encoder, std::size_t width,
                            net::FlowTrace& out);

// Orders a chunk's sub-trace and trims the deficit-loop overshoot.
void export_flow_chunk_part(std::size_t target, net::FlowTrace& part);

// Concatenates per-chunk sub-traces in chunk order, orders globally, trims
// to n — the final merge both the offline path and the serving client run.
net::FlowTrace merge_flow_chunk_parts(std::vector<net::FlowTrace>& parts,
                                      std::size_t n);

class NetShare {
 public:
  // `ip2vec` may be null; it is then required that
  // config.use_ip2vec_ports == false.
  NetShare(NetShareConfig config, std::shared_ptr<embed::Ip2Vec> ip2vec);

  // --- NetFlow path ---
  void fit(const net::FlowTrace& trace);
  void fit(const std::vector<net::FlowTrace>& epochs);  // merges (Insight 1)
  net::FlowTrace generate_flows(std::size_t n, Rng& rng);

  // --- PCAP path ---
  void fit(const net::PacketTrace& trace);
  void fit(const std::vector<net::PacketTrace>& epochs);
  net::PacketTrace generate_packets(std::size_t n, Rng& rng);

  // Total training cost in thread-CPU seconds (Fig. 4).
  double train_cpu_seconds() const;

  // Per-chunk training outcome of the last fit (status / attempts /
  // rollbacks / seed fallbacks; see core/train.hpp). Throws std::logic_error
  // before the first fit.
  const TrainReport& train_report() const;

  // Seed-model weights for public pretraining (Insight 4): train a NetShare
  // on public data, snapshot() it, and pass the snapshot in the private
  // model's config.public_snapshot.
  std::vector<double> snapshot();

  // Total DP-SGD steps taken (feed to privacy::compute_epsilon).
  std::size_t dp_steps() const;

  const NetShareConfig& config() const { return config_; }

 private:
  NetShareConfig config_;
  std::shared_ptr<embed::Ip2Vec> ip2vec_;
  std::optional<FlowEncoder> flow_encoder_;
  std::optional<PacketEncoder> packet_encoder_;
  std::unique_ptr<ChunkedTrainer> trainer_;
};

}  // namespace netshare::core
