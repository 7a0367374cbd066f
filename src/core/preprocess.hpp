// NetShare preprocessing (Insights 1-3): merge measurement epochs, split the
// giant trace into per-5-tuple flow series, encode header fields
// (bit-encoded IPs, IP2Vec ports/protocols, log-transformed counters), slice
// into M evenly time-spaced chunks, and append cross-chunk flow tags.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "embed/ip2vec.hpp"
#include "embed/transforms.hpp"
#include "gan/timeseries.hpp"
#include "ml/workspace.hpp"
#include "net/trace.hpp"

namespace netshare::core {

// Per-chunk slice of the encoded data plus the bookkeeping needed to decode
// generated samples back into records.
struct ChunkInfo {
  double start_time = 0.0;
  double duration = 0.0;
  std::size_t real_flows = 0;    // flow samples in this chunk
  std::size_t real_records = 0;  // records/packets in this chunk
};

// One flow's slice of one chunk, as produced by FlowEncoder::plan /
// PacketEncoder::plan: record indices into the plan's time-sorted trace plus
// the cross-chunk tag bits. Keys are stored by value so a plan outlives the
// grouping pass that built it.
struct ChunkSample {
  net::FiveTuple key;
  std::vector<std::size_t> records;  // indices into EncodePlan::sorted
  bool starts_here = false;
  std::vector<bool> presence;
};

// The splitting pass of encode(), reified so callers can encode one chunk at
// a time: the sorted giant trace plus the per-chunk flow samples. encode()
// maps encode_chunk over every chunk of a plan; the serve registry uses plan()
// alone to size a sampling-only trainer. encode_chunk(plan, c) is bitwise
// identical to encode(giant)[c].
template <typename TraceT>
struct EncodePlan {
  TraceT sorted;
  std::vector<std::vector<ChunkSample>> per_chunk;
  std::size_t chunk_samples(std::size_t c) const {
    return per_chunk[c].size();
  }
};
using FlowEncodePlan = EncodePlan<net::FlowTrace>;
using PacketEncodePlan = EncodePlan<net::PacketTrace>;

// Shared encoding state for the 5-tuple attributes.
//
// Layout of the attribute vector:
//   [src IP bits (32) | dst IP bits (32) | src port | dst port | protocol |
//    flow tags (1 + M, optional)]
// Ports/protocol are IP2Vec embeddings (normalized to [0,1]) or bit/one-hot
// encodings depending on config.
class TupleCodec {
 public:
  TupleCodec(const NetShareConfig& config, const embed::Ip2Vec* ip2vec);

  std::vector<ml::OutputSegment> attribute_segments(bool with_tags) const;
  std::size_t dim(bool with_tags) const;

  // Writes the encoded 5-tuple into out[0 .. dim(false)).
  void encode(const net::FiveTuple& key, double* out) const;
  net::FiveTuple decode(const double* in) const;

  // Decodes rows [0, out.size()) of `attrs` (each row laid out like decode's
  // input; trailing tag columns are ignored) in one pass, batching both port
  // nearest-neighbour searches through Ip2Vec::nearest_batch with the
  // per-protocol accept masks. Bitwise identical to calling decode() per
  // row. Resets `ws` and draws all scratch from it; zero allocations once
  // the pool is warm.
  void decode_batch(const ml::Matrix& attrs, std::span<net::FiveTuple> out,
                    ml::Workspace& ws) const;

 private:
  std::size_t port_width() const;
  std::size_t proto_width() const;
  void encode_port(std::uint16_t port, double* out) const;
  // Decode restricted to ports compatible with the decoded protocol — the
  // paper's joint (port, protocol) nearest-neighbour mapping. Routed through
  // the same scorer as decode_batch (nearest_batch_reference on one row), so
  // per-row and batched decode agree bitwise.
  std::uint16_t decode_port(const double* in, net::Protocol proto) const;
  void encode_proto(net::Protocol proto, double* out) const;
  net::Protocol decode_proto(const double* in) const;

  const NetShareConfig* config_;
  const embed::Ip2Vec* ip2vec_;  // may be null (bit-encoding mode)
  // Affine normalization of embedding coordinates to [0,1].
  double emb_lo_ = -1.0;
  double emb_hi_ = 1.0;
  // Sorted public port vocabulary, for nearest-port OOV substitution.
  std::vector<std::uint32_t> vocab_ports_;
  // Per-protocol-class (tcp/udp/icmp) accept masks over the kPort shard:
  // mask[slot] = the port's well-known protocol doesn't contradict the
  // decoded one. Precomputed once from public knowledge (DP-safe).
  std::vector<std::uint8_t> port_mask_[3];
  std::size_t num_chunks_;
  bool use_ip2vec_;
};

// Encoder for NetFlow-style flow traces.
//
// Per-timestep features:
//   [time (step0: offset in chunk; later: log gap) | log duration |
//    log packets | log bytes | attack-type softmax (fixed 12-way)]
class FlowEncoder {
 public:
  FlowEncoder(const NetShareConfig& config, const embed::Ip2Vec* ip2vec);

  // Learns normalizers and the chunk grid from the merged giant trace.
  void fit(const net::FlowTrace& giant);

  gan::TimeSeriesSpec spec() const;
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }

  // Encodes the giant trace into per-chunk datasets (Fig. 7); implemented
  // as plan() + one encode_chunk() per chunk.
  std::vector<gan::TimeSeriesDataset> encode(const net::FlowTrace& giant) const;

  // Sorts and splits the giant trace into per-chunk flow samples without
  // encoding anything yet.
  FlowEncodePlan plan(const net::FlowTrace& giant) const;
  // Encodes one chunk of a plan; bitwise identical to encode(giant)[c].
  gan::TimeSeriesDataset encode_chunk(const FlowEncodePlan& plan,
                                      std::size_t c) const;

  // Decodes generated series of chunk `chunk_index` back into flow records.
  net::FlowTrace decode(const gan::GeneratedSeries& series,
                        std::size_t chunk_index) const;

  const TupleCodec& tuple_codec() const { return codec_; }

 private:
  const NetShareConfig* config_;
  TupleCodec codec_;
  std::vector<ChunkInfo> chunks_;
  embed::LogTransform gap_ = embed::LogTransform(60.0);
  embed::LogTransform duration_ = embed::LogTransform(60.0);
  embed::LogTransform packets_ = embed::LogTransform(1e6);
  embed::LogTransform bytes_ = embed::LogTransform(1e9);
  // Ablation (log_transform = false): min-max instead.
  embed::MinMaxTransform mm_duration_, mm_packets_, mm_bytes_;
};

// Encoder for PCAP-style packet traces.
//
// Per-timestep features:
//   [time (step0: offset in chunk; later: log inter-arrival) |
//    packet size (min-max over [28,1500]) | ttl (/255)]
class PacketEncoder {
 public:
  PacketEncoder(const NetShareConfig& config, const embed::Ip2Vec* ip2vec);

  void fit(const net::PacketTrace& giant);

  gan::TimeSeriesSpec spec() const;
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }

  std::vector<gan::TimeSeriesDataset> encode(const net::PacketTrace& giant) const;

  PacketEncodePlan plan(const net::PacketTrace& giant) const;
  gan::TimeSeriesDataset encode_chunk(const PacketEncodePlan& plan,
                                      std::size_t c) const;

  net::PacketTrace decode(const gan::GeneratedSeries& series,
                          std::size_t chunk_index) const;

  const TupleCodec& tuple_codec() const { return codec_; }

 private:
  const NetShareConfig* config_;
  TupleCodec codec_;
  std::vector<ChunkInfo> chunks_;
  embed::LogTransform iat_ = embed::LogTransform(10.0);
  embed::MinMaxTransform size_{28.0, 1500.0};
};

// Builds the chunk grid for a time range.
std::vector<ChunkInfo> make_chunk_grid(double start, double end,
                                       std::size_t num_chunks);

// The fixed 12-way attack-type alphabet used in feature encoding, so that
// model snapshots transfer across labeled datasets (DP pretraining).
constexpr std::size_t kAttackClasses = 12;

}  // namespace netshare::core
