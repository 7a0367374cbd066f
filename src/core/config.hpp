// NetShare end-to-end configuration (Sec. 4.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"

namespace netshare::core {

struct NetShareConfig {
  // --- Insight 1: flow-split time-series formulation ---
  std::size_t max_seq_len = 8;  // per-flow series truncation (scaled down)

  // --- Insight 2: encodings ---
  bool use_ip2vec_ports = true;  // false = bit-encode ports (ablation)
  bool log_transform = true;     // false = min-max on large-support fields
  std::size_t ip2vec_dim = 4;  // scaled-down embedding width
  // IP2Vec scalability knobs (DESIGN.md §12). max_ip_slots = 0 keeps the
  // legacy exact-slot-per-IP behaviour; a positive cap folds rare addresses
  // into shared tail buckets so million-IP vocabularies stay bounded.
  std::size_t ip2vec_max_ip_slots = 0;
  std::size_t ip2vec_tail_buckets = 256;

  // --- Insight 3: chunked fine-tuning ---
  std::size_t num_chunks = 5;     // M evenly time-spaced chunks
  int seed_iterations = 250;      // chunk-0 training
  int finetune_iterations = 80;   // per later chunk
  std::size_t threads = 4;        // total thread budget (chunks × widths)
  bool netshare_v0 = false;       // monolithic: single model, no chunking
  bool naive_parallel = false;    // ablation: chunks without warm start
  bool use_flow_tags = true;      // ablation: cross-chunk flow tags

  // --- stage widths ---
  // The kernels are serial; a training iteration's row-sliced stages run up
  // to a width the trainer passes each model (ChunkedTrainer::split): the
  // seed model gets the whole budget, fine-tune chunks split it between
  // chunk workers and per-worker widths. kernels.threads, when non-zero, is
  // the total those widths are cut from in place of `threads`; the worker
  // count still follows `threads` (the field is part of the perfbench shim,
  // ml/kernels.hpp). Every width is bitwise identical to width 1.
  // Generation slices and served chunk parts fan out `threads` wide
  // (DESIGN.md §7, §13).
  ml::kernels::KernelConfig kernels;

  // --- Insight 4: differential privacy ---
  bool dp = false;
  privacy::DpSgdConfig dp_config{1.0, 1.0};
  // Snapshot of a model pre-trained on PUBLIC data (see NetShare::snapshot);
  // when set with dp=true, DP-SGD fine-tunes from it.
  std::optional<std::vector<double>> public_snapshot;

  // GAN hyperparameters (identical across datasets, per Sec. 5).
  gan::DgConfig dg;

  // --- robustness (DESIGN.md §9) ---
  // When non-empty, ChunkedTrainer::fit writes one durable checkpoint per
  // successfully trained chunk into this directory (versioned + CRC32,
  // temp-file + atomic rename; see ml/serialize.hpp) and, on a later fit
  // with the same config, resumes: chunks whose valid checkpoint exists on
  // disk are restored instead of retrained, so a killed fit restarts from
  // where it died. Invalid/corrupt checkpoints are diagnosed and retrained.
  std::string checkpoint_dir;

  std::uint64_t seed = 42;
};

}  // namespace netshare::core
