#include "core/netshare.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "core/parallel.hpp"
#include "datagen/presets.hpp"
#include "net/ports.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::core {

std::shared_ptr<embed::Ip2Vec> make_public_ip2vec(std::uint64_t seed,
                                                  std::size_t records,
                                                  std::size_t dim,
                                                  embed::VocabConfig vocab) {
  const auto pub = datagen::make_dataset(datagen::DatasetId::kCaidaPub,
                                         records, seed);
  auto sentences = embed::sentences_from_packets(pub.packets);
  // The paper's Insight 2 relies on the public trace covering "almost every
  // possible port number and protocol". Guarantee coverage of the well-known
  // (port, protocol) pairs and ICMP regardless of the sampled trace.
  for (const auto& [port, proto] : net::common_port_protocol_pairs()) {
    sentences.push_back(
        {{embed::TokenKind::kPort, port},
         {embed::TokenKind::kProtocol, static_cast<std::uint32_t>(proto)}});
  }
  sentences.push_back(
      {{embed::TokenKind::kProtocol,
        static_cast<std::uint32_t>(net::Protocol::kIcmp)}});
  auto model = std::make_shared<embed::Ip2Vec>();
  embed::Ip2Vec::Config cfg;
  cfg.dim = dim;
  cfg.epochs = 3;
  cfg.vocab = vocab;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  model->train(sentences, cfg, rng);
  return model;
}

std::shared_ptr<embed::Ip2Vec> make_public_ip2vec_for(
    const NetShareConfig& config, std::uint64_t seed, std::size_t records) {
  embed::VocabConfig vocab;
  vocab.max_ip_slots = config.ip2vec_max_ip_slots;
  vocab.ip_tail_buckets = config.ip2vec_tail_buckets;
  return make_public_ip2vec(seed, records, config.ip2vec_dim, vocab);
}

NetShare::NetShare(NetShareConfig config, std::shared_ptr<embed::Ip2Vec> ip2vec)
    : config_(std::move(config)), ip2vec_(std::move(ip2vec)) {
  if (config_.use_ip2vec_ports && !ip2vec_) {
    throw std::invalid_argument(
        "NetShare: use_ip2vec_ports requires an IP2Vec model "
        "(see make_public_ip2vec)");
  }
}

void NetShare::fit(const net::FlowTrace& trace) {
  flow_encoder_.emplace(config_, ip2vec_.get());
  flow_encoder_->fit(trace);
  trainer_ = std::make_unique<ChunkedTrainer>(flow_encoder_->spec(), config_);
  trainer_->fit(flow_encoder_->encode(trace));
}

void NetShare::fit(const std::vector<net::FlowTrace>& epochs) {
  fit(net::FlowTrace::merge(epochs));
}

void NetShare::fit(const net::PacketTrace& trace) {
  packet_encoder_.emplace(config_, ip2vec_.get());
  packet_encoder_->fit(trace);
  trainer_ = std::make_unique<ChunkedTrainer>(packet_encoder_->spec(), config_);
  trainer_->fit(packet_encoder_->encode(trace));
}

void NetShare::fit(const std::vector<net::PacketTrace>& epochs) {
  fit(net::PacketTrace::merge(epochs));
}

namespace {

// Per-chunk record targets proportional to the real chunk sizes.
std::vector<std::size_t> record_targets(const std::vector<ChunkInfo>& chunks,
                                        std::size_t n) {
  std::size_t total = 0;
  for (const auto& c : chunks) total += c.real_records;
  std::vector<std::size_t> targets(chunks.size(), 0);
  if (total == 0) return targets;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    targets[c] = (n * chunks[c].real_records + total / 2) / total;
  }
  return targets;
}

// Expected records per sampled flow in a chunk (>= 1).
double records_per_flow(const ChunkInfo& c) {
  if (c.real_flows == 0) return 1.0;
  return std::max(1.0, static_cast<double>(c.real_records) /
                           static_cast<double>(c.real_flows));
}

// Margin over the observed yield when sizing a top-up round: one top-up
// usually closes the deficit while the trimmed surplus stays near 10%.
constexpr double kTopUpMargin = 1.1;

// Number of series to request in one deficit-loop round. Round 0
// (sampled == 0) sizes by the real records-per-flow ratio. Later rounds size
// by the model's own yield so far (decoded / sampled records per series)
// times kTopUpMargin, capped at one series per missing record. Every round
// asks for >= 8 series and every series decodes to >= 1 record, so the loop
// terminates.
std::size_t round_series(std::size_t deficit, double rpf, std::size_t sampled,
                         std::size_t decoded) {
  const auto d = static_cast<double>(deficit);
  if (sampled == 0) {
    return std::max<std::size_t>(8, static_cast<std::size_t>(d / rpf) + 1);
  }
  const double yield =
      static_cast<double>(decoded) / static_cast<double>(sampled);
  const auto want = static_cast<std::size_t>(d / yield * kTopUpMargin) + 1;
  return std::max<std::size_t>(8, std::min(want, deficit));
}

// Deficit-loop sampling + decode for one chunk. Each round of n series is
// cut into slices of min(trainer.slice_series(), max(batch_size,
// ceil(n / width))) series, so a round of a few batches still spreads over
// `width` threads while no slice runs less than one sampler batch; a slice
// is sampled and decoded as one task on the shared executor, up to `width`
// at once, and the slices' records are appended in ascending slice order.
// The result is a pure function of (chunk index, target, seed) — the
// sampler draws from counter-based per-(chunk, series) streams, the decoder
// is const and works series by series, and each round's size depends only
// on this chunk's earlier rounds — so offline and served schedules produce
// bitwise-identical sub-traces at any width once export_chunk_part has
// ordered them: each slice comes back time-sorted, and a stable merge of
// the slices' runs equals a stable sort of the whole round, because records
// with equal timestamps keep their series order either way.
template <typename TraceT, typename RecordsOf, typename DecodeFn>
void sample_chunk_part(const std::vector<ChunkInfo>& chunks, std::size_t c,
                       std::size_t target, std::uint64_t seed,
                       const NetShareConfig& config, ChunkedTrainer& trainer,
                       const RecordsOf& records_of, const DecodeFn& decode,
                       std::size_t width, TraceT& out) {
  Stopwatch sw;
  TELEM_SPAN("generate.chunk", {"chunk", static_cast<long long>(c)});
  out = TraceT{};
  const double rpf = std::min(records_per_flow(chunks[c]),
                              static_cast<double>(config.max_seq_len));
  width = std::max<std::size_t>(1, width);
  std::size_t sampled = 0;  // series so far; keeps stream indices unique
  std::vector<TraceT> decoded;
  while (out.size() < target) {
    const std::size_t n =
        round_series(target - out.size(), rpf, sampled, out.size());
    const std::size_t S =
        std::min(trainer.slice_series(),
                 std::max(config.dg.batch_size, (n + width - 1) / width));
    decoded.resize((n + S - 1) / S);
    run_parallel_tasks(width, decoded.size(), [&](std::size_t k) {
      const std::size_t first = k * S;
      SliceBuffers& buf = thread_slice_buffers();
      trainer.sample_chunk_into(c, std::min(S, n - first), seed,
                                sampled + first, buf.series, buf.scratch);
      decoded[k] = decode(buf.series, c);
    });
    sampled += n;
    for (TraceT& slice : decoded) {
      records_of(out).insert(records_of(out).end(), records_of(slice).begin(),
                             records_of(slice).end());
      slice = TraceT{};
    }
  }
  TELEM_COUNT_N("generate.records_decoded", out.size());
  trainer.note_generate(c, sw.seconds(), sampled, out.size(),
                        std::min(out.size(), target));
}

// Export step for one chunk: order its sub-trace and trim the deficit-loop
// overshoot down to the target. The part is a concatenation of time-sorted
// slices, so this merges those runs and stops at `target` records.
template <typename TraceT>
void export_chunk_part(std::size_t target, TraceT& part) {
  std::vector<TraceT> one;
  one.push_back(std::move(part));
  part = TraceT::merge(one, target);
  TELEM_COUNT_N("generate.records_kept", part.size());
}

// Fills each target chunk's sub-trace, largest chunk first, with one task
// per chunk on the shared executor and each chunk's slices fanned out the
// full phase budget wide. Slice helpers queue on the same executor, so a
// core that finishes a small chunk picks up slices of the largest one. Any
// budget and task order produce bitwise-identical traces (see
// sample_chunk_part).
template <typename TraceT, typename RecordsOf, typename DecodeFn>
TraceT generate_trace(const std::vector<ChunkInfo>& chunks,
                      const std::vector<std::size_t>& targets, std::size_t n,
                      std::uint64_t seed, const NetShareConfig& config,
                      ChunkedTrainer& trainer, const RecordsOf& records_of,
                      const DecodeFn& decode) {
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (targets[c] > 0 && trainer.has_model(c)) active.push_back(c);
  }
  largest_first(active, targets);
  std::vector<TraceT> parts(chunks.size());
  const std::size_t budget =
      parallel_phase_budget(std::max<std::size_t>(1, config.threads));
  const std::size_t workers = std::min(budget, active.size());
  run_parallel_tasks(workers, active.size(), [&](std::size_t ai) {
    const std::size_t c = active[ai];
    sample_chunk_part(chunks, c, targets[c], seed, config, trainer, records_of,
                      decode, budget, parts[c]);
    export_chunk_part(targets[c], parts[c]);
  });
  return TraceT::merge(parts, n);
}

}  // namespace

std::vector<std::size_t> chunk_record_targets(
    const std::vector<ChunkInfo>& chunks, std::size_t n) {
  return record_targets(chunks, n);
}

void sample_flow_chunk_part(const std::vector<ChunkInfo>& chunks,
                            std::size_t c, std::size_t target,
                            std::uint64_t seed, const NetShareConfig& config,
                            ChunkedTrainer& trainer,
                            const FlowEncoder& encoder, std::size_t width,
                            net::FlowTrace& out) {
  sample_chunk_part(chunks, c, target, seed, config, trainer,
                    [](auto& trace) -> auto& { return trace.records; },
                    [&](const gan::GeneratedSeries& series, std::size_t cc) {
                      return encoder.decode(series, cc);
                    },
                    width, out);
}

void export_flow_chunk_part(std::size_t target, net::FlowTrace& part) {
  export_chunk_part(target, part);
}

net::FlowTrace merge_flow_chunk_parts(std::vector<net::FlowTrace>& parts,
                                      std::size_t n) {
  return net::FlowTrace::merge(parts, n);
}

net::FlowTrace NetShare::generate_flows(std::size_t n, Rng& rng) {
  if (!flow_encoder_ || !trainer_) {
    throw std::logic_error("NetShare::generate_flows: fit a flow trace first");
  }
  const auto& chunks = flow_encoder_->chunks();
  return generate_trace<net::FlowTrace>(
      chunks, record_targets(chunks, n), n, rng.engine()(), config_, *trainer_,
      [](auto& trace) -> auto& { return trace.records; },
      [&](const gan::GeneratedSeries& series, std::size_t c) {
        return flow_encoder_->decode(series, c);
      });
}

net::PacketTrace NetShare::generate_packets(std::size_t n, Rng& rng) {
  if (!packet_encoder_ || !trainer_) {
    throw std::logic_error(
        "NetShare::generate_packets: fit a packet trace first");
  }
  const auto& chunks = packet_encoder_->chunks();
  return generate_trace<net::PacketTrace>(
      chunks, record_targets(chunks, n), n, rng.engine()(), config_, *trainer_,
      [](auto& trace) -> auto& { return trace.packets; },
      [&](const gan::GeneratedSeries& series, std::size_t c) {
        return packet_encoder_->decode(series, c);
      });
}

double NetShare::train_cpu_seconds() const {
  return trainer_ ? trainer_->train_cpu_seconds() : 0.0;
}

const TrainReport& NetShare::train_report() const {
  if (!trainer_) {
    throw std::logic_error("NetShare::train_report: fit a trace first");
  }
  return trainer_->report();
}

std::vector<double> NetShare::snapshot() {
  if (!trainer_) throw std::logic_error("NetShare::snapshot: not trained");
  return trainer_->seed_snapshot();
}

std::size_t NetShare::dp_steps() const {
  return trainer_ ? trainer_->total_dp_steps() : 0;
}

}  // namespace netshare::core
