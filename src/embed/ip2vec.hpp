// IP2Vec (Ring et al. 2017): Word2Vec-style skip-gram embeddings of header
// field values, trained with negative sampling. Each 5-tuple is a "sentence"
// whose words are its IPs, ports, and protocol.
//
// NetShare's privacy-aware variant (Insight 2) trains the dictionary ONLY on
// public data and uses it to encode port numbers and protocols (IPs use bit
// encoding); decoding is nearest-neighbour search over the public vocabulary,
// so the mapping never depends on private data.
//
// Scalable engine (DESIGN.md §12): the vocabulary is sharded per kind
// (embed/vocab.hpp), training is interaction-batched (coefficients of a
// batch are computed against the state left by the previous batch, then
// applied in interaction order), negatives come from a counter-driven alias
// sampler (embed/alias_sampler.hpp), and decode is a blocked
// nearest-neighbour kernel over the register-tiled matmul. The
// linear scan (nearest / nearest_if) and the serial scorer
// (nearest_batch_reference) are retained as oracles.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "embed/alias_sampler.hpp"
#include "embed/token.hpp"
#include "embed/vocab.hpp"
#include "ml/matrix.hpp"
#include "ml/workspace.hpp"
#include "net/trace.hpp"

namespace netshare::embed {

// Builds IP2Vec sentences from traces: one sentence per record with tokens
// {srcIP, dstIP, srcPort, dstPort, protocol} (ICMP records skip ports).
std::vector<std::vector<Token>> sentences_from_flows(const net::FlowTrace& t);
std::vector<std::vector<Token>> sentences_from_packets(const net::PacketTrace& t);

class Ip2Vec {
 public:
  struct Config {
    std::size_t dim = 8;
    int epochs = 4;
    int negatives = 4;
    double lr = 0.05;
    // Negative-sampling distribution: unigram count^neg_power over the whole
    // vocabulary (word2vec's 0.75; 0 = uniform like the legacy sampler).
    double neg_power = 0.75;
    // Interactions per training batch. Value-affecting; 1 degenerates to
    // classic per-pair sequential SGD.
    // Stability bound: a batch applies stale coefficients, so a row touched
    // t times in one batch moves by ~t·lr of its partner's magnitude —
    // divergence when t·lr ≳ 1. Hot tokens (protocols appear in every
    // sentence) are touched ~batch/15 times per batch, so keep
    // batch_interactions·lr ≲ 15 (the default 64·0.05 = 3.2 is safe).
    std::size_t batch_interactions = 64;
    VocabConfig vocab;
  };

  // Builds the vocabulary and trains skip-gram embeddings (batched engine).
  void train(const std::vector<std::vector<Token>>& sentences,
             const Config& config, Rng& rng);
  // Naive serial implementation of the identical training semantics — the
  // oracle the batched engine is bitwise-tested against.
  void train_reference(const std::vector<std::vector<Token>>& sentences,
                       const Config& config, Rng& rng);

  // True when `t` resolves to a slot — its own exact slot, or (for
  // frequency-capped IPs) its tail bucket.
  bool contains(const Token& t) const {
    return vocab_.lookup(t) != ShardedVocab::npos;
  }
  std::size_t vocab_size() const { return vocab_.size(); }
  std::size_t dim() const { return dim_; }
  const ShardedVocab& vocab() const { return vocab_; }

  // Input-side embedding of a token; throws std::out_of_range if OOV.
  std::span<const double> embed(const Token& t) const;
  // Raw table rows by (kind, slot) — test/bench access.
  std::span<const double> slot_vector(TokenKind kind, std::size_t slot) const;
  std::span<const double> slot_out_vector(TokenKind kind,
                                          std::size_t slot) const;

  // Nearest in-vocabulary token of the given kind by L2 distance — the
  // retained linear-scan oracle.
  Token nearest(std::span<const double> vec, TokenKind kind) const;

  // Nearest token of the given kind satisfying `accept` (falls back to the
  // unfiltered nearest if nothing qualifies). Used for the paper's joint
  // (port, protocol) decode: the search is restricted to ports compatible
  // with the already-decoded protocol.
  Token nearest_if(std::span<const double> vec, TokenKind kind,
                   const std::function<bool(const Token&)>& accept) const;

  // Batched nearest-neighbour decode: for each row q of `queries` (n × dim),
  // writes the nearest token of `kind` into out[i], minimizing the norm-form
  // score ‖e‖² − 2⟨q,e⟩ (equal to ‖q−e‖² up to the per-row constant ‖q‖²)
  // with one blocked matmul per candidate block. `masks`, when non-empty,
  // holds one per-row accept mask over the kind's slots (1 = accepted);
  // rows whose mask rejects everything fall back to the unmasked nearest,
  // mirroring nearest_if. All scratch comes from `ws` (a fixed number of
  // pooled buffers per call — zero allocations once warm); `ws` is not
  // reset, so callers may hold other pooled buffers across the call.
  // Output is bitwise identical to nearest_batch_reference (the kernel
  // determinism contract).
  void nearest_batch(const ml::Matrix& queries, TokenKind kind,
                     std::span<const std::uint8_t* const> masks,
                     std::span<Token> out, ml::Workspace& ws) const;
  // Serial same-scoring oracle for nearest_batch.
  void nearest_batch_reference(const ml::Matrix& queries, TokenKind kind,
                               std::span<const std::uint8_t* const> masks,
                               std::span<Token> out) const;

  // Exact table equality (layout + both tables bitwise) — test support.
  bool bitwise_equal(const Ip2Vec& other) const;

 private:
  // Row-major table blocks: kBlockRows rows per block (ragged last block).
  static constexpr std::size_t kBlockShift = 12;
  static constexpr std::size_t kBlockRows = std::size_t{1} << kBlockShift;
  // Query rows processed per decode panel.
  static constexpr std::size_t kQueryBlock = 512;

  struct TrainSetup {
    std::vector<std::uint32_t> tokens;     // sentences resolved to global ids
    std::vector<std::uint64_t> tok_begin;  // per-sentence offsets (n + 1)
    std::vector<std::uint64_t> pair_begin; // per-sentence pair prefix (n + 1)
    AliasTable alias;
    std::uint64_t neg_seed = 0;
    std::uint64_t total_pairs() const { return pair_begin.back(); }
  };

  // Shared by both train paths: builds the vocabulary, initializes the
  // tables (identical draw order), resolves sentences to dense ids, builds
  // the alias table, and draws the negative-stream seed.
  TrainSetup prepare_training(const std::vector<std::vector<Token>>& sentences,
                              const Config& config, Rng& rng);
  void finalize_tables();  // norm tables + transposed decode blocks

  double* in_row(std::size_t kind, std::size_t slot) {
    return in_blocks_[kind][slot >> kBlockShift].row_ptr(slot & (kBlockRows - 1));
  }
  const double* in_row(std::size_t kind, std::size_t slot) const {
    return in_blocks_[kind][slot >> kBlockShift].row_ptr(slot & (kBlockRows - 1));
  }
  double* out_row(std::size_t kind, std::size_t slot) {
    return out_blocks_[kind][slot >> kBlockShift].row_ptr(slot & (kBlockRows - 1));
  }

  std::size_t dim_ = 0;
  ShardedVocab vocab_;
  // Per-kind embedding tables in fixed-size row blocks (training layout).
  std::array<std::vector<ml::Matrix>, kNumTokenKinds> in_blocks_;
  std::array<std::vector<ml::Matrix>, kNumTokenKinds> out_blocks_;
  // Decode layout: per-kind blocks of in-vectors stored transposed
  // (dim × block) so the candidate axis is contiguous for matmul_into, plus
  // the precomputed per-slot squared norms.
  std::array<std::vector<ml::Matrix>, kNumTokenKinds> dec_blocks_;
  std::array<std::vector<double>, kNumTokenKinds> norms_;
};

}  // namespace netshare::embed
