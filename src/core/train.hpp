// Chunked training orchestration (Insight 3): train a seed model on the
// first (non-empty) chunk, snapshot it, and fine-tune one model per
// remaining chunk in parallel. Also hosts the DP path (Insight 4): restore a
// public-data snapshot, then run DP-SGD fine-tuning.
//
// Thread budgeting: NetShareConfig::threads is the total budget. The seed
// phase hands it all to the matmul kernel layer (ml/kernels.hpp); the
// fine-tune phase splits it between chunk-level workers and per-worker
// kernel threads. Determinism is unaffected — the kernels are bitwise
// identical at any thread count.
//
// Memory: every DoppelGanger owns its own ml::Workspace allocation arena
// (DESIGN.md §6), so the chunk models fine-tuning in parallel here never
// share mutable scratch buffers — no locks, and TSan stays green.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "gan/doppelganger.hpp"

namespace netshare::core {

// Per-chunk training outcome (chunk fault isolation, DESIGN.md §9).
struct ChunkTrainReport {
  enum class Status {
    kEmpty,         // chunk had no data; no model
    kTrained,       // trained this run (rollbacks counts in-fit recoveries)
    kResumed,       // restored from a valid on-disk checkpoint; not retrained
    kSeedFallback,  // training failed; model is a copy of the seed snapshot
  };
  Status status = Status::kEmpty;
  bool is_seed = false;  // this chunk trained the seed model
  int attempts = 0;      // training attempts (1 + in-fit rollback retries)
  int rollbacks = 0;     // health-guard rollback-and-retry recoveries
  // Per-chunk stage wall-clock: chunks train and generate in parallel, so
  // aggregate stage seconds alone do not show the critical path.
  double train_sec = 0.0;     // train_seed / train_finetune (incl. resume)
  // The trained model's thread-CPU seconds and DP-SGD steps (a failed
  // model's steps too), taken before it is swapped for restored weights
  // (0 for a restored chunk).
  double train_cpu_sec = 0.0;
  std::size_t dp_steps = 0;
  // The chunk's last generate, via note_generate: wall seconds of sampling +
  // decode, series sampled, records those series decoded to, and records
  // left after the trim to the chunk's target (decoded / kept is the waste).
  double generate_sec = 0.0;
  std::size_t generate_series = 0;
  std::size_t generate_records = 0;
  std::size_t generate_kept = 0;
  std::string error;  // failure detail when status == kSeedFallback
};

const char* to_string(ChunkTrainReport::Status status);

// Whole-run report ChunkedTrainer::fit fills and NetShare::train_report
// exposes; eval::print_train_report renders it.
struct TrainReport {
  std::vector<ChunkTrainReport> chunks;
  std::size_t seed_chunk = 0;
  std::size_t count(ChunkTrainReport::Status status) const {
    std::size_t n = 0;
    for (const auto& c : chunks) n += c.status == status ? 1 : 0;
    return n;
  }
};

class ChunkedTrainer {
 public:
  ChunkedTrainer(gan::TimeSeriesSpec spec, const NetShareConfig& config);

  // Trains on per-chunk datasets (empty chunks get no model). Chunk faults
  // are isolated: a fine-tune chunk whose training fails (exception or
  // exhausted rollback retries) falls back to a copy of the seed snapshot
  // and the failure is recorded in report() — only a seed-chunk failure
  // propagates (there is nothing to fall back to). With
  // config.checkpoint_dir set, each trained chunk is durably checkpointed
  // and valid checkpoints found on entry are resumed instead of retrained.
  void fit(const std::vector<gan::TimeSeriesDataset>& chunks);

  // --- chunk-granular API ---
  // fit() is exactly these calls composed; the serve registry (begin_fit +
  // restore_chunk) and perfbench's traced run call them directly, so every
  // caller shares one training code path.
  //
  // begin_fit validates the per-chunk sample counts, sizes the run, picks
  // the seed chunk, and prepares the checkpoint directory. train_seed must
  // complete before any train_finetune; train_finetune is safe to call
  // concurrently for distinct chunks (disjoint models_/report_ slots).
  void begin_fit(const std::vector<std::size_t>& chunk_samples);
  std::size_t seed_chunk() const { return seed_chunk_; }
  void train_seed(const gan::TimeSeriesDataset& data);
  void train_finetune(std::size_t c, const gan::TimeSeriesDataset& data);
  // Records chunk c's generate-stage wall seconds, series sampled, records
  // decoded and records kept in report(). Safe for concurrent distinct
  // chunks.
  void note_generate(std::size_t c, double sec, std::size_t series,
                     std::size_t records, std::size_t kept);

  // --- serving path (DESIGN.md §13) ---
  // Installs chunk c's model directly from a flat parameter snapshot, no
  // training: the model registry restores published checkpoint files into a
  // sampling-only trainer. begin_fit must have sized the run. Throws
  // std::invalid_argument on a shape mismatch (restore validates every
  // boundary before writing, so the slot is never half-restored — the old
  // model for that chunk, if any, is simply replaced on success only).
  // Marks the chunk kResumed in report().
  void restore_chunk(std::size_t c, const std::vector<double>& params);

  // Per-chunk outcome of the last fit() (empty before the first fit).
  const TrainReport& report() const { return report_; }

  // Deterministic stream-seeded sampling into caller-owned buffers: series
  // `first_series + i` of chunk c draws from the counter-based stream
  // (mix_seed(seed, c), first_series + i), so the output is a pure function
  // of (c, seed, series index) — independent of batching, of call
  // partitioning, and of worker/kernel thread counts. A chunk without a
  // model (no data) yields an empty series (0 rows). Zero steady-state
  // Matrix allocations after a same-shape warm-up call with the same
  // scratch. Concurrent calls, for one chunk or several, each need their
  // own scratch.
  void sample_chunk_into(std::size_t c, std::size_t n, std::uint64_t seed,
                         std::size_t first_series, gan::GeneratedSeries& out,
                         gan::SampleScratch& scratch) const;

  // Same contract through the full-unroll reference sampler
  // (DoppelGanger::sample_reference_into): bitwise identical to
  // sample_chunk_into, kept as the serial baseline for bench/pipeline_e2e
  // and the oracle in tests. One caller per chunk at a time.
  void sample_chunk_reference_into(std::size_t c, std::size_t n,
                                   std::uint64_t seed,
                                   std::size_t first_series,
                                   gan::GeneratedSeries& out,
                                   gan::SampleScratch& scratch);

  // Series per generation slice: the unit one sampling task draws (and, in
  // core/netshare.cpp's deficit loop, decodes). A fixed multiple of the
  // sampler's batch size, so a slice runs whole batches.
  std::size_t slice_series() const {
    return kSliceBatches * config_.dg.batch_size;
  }

  // Samples counts[c] series from every chunk model. Each chunk's range is
  // cut into slice_series() slices, and the slices of all chunks (largest
  // chunk first) run as tasks on ThreadPool::shared(), up to the phase
  // budget wide (see parallel_phase_budget / split_phase_budget). Chunks
  // without a model (or with counts[c] == 0) yield empty series.
  // `thread_budget` == 0 uses config.threads; any value produces
  // bitwise-identical output.
  void sample_chunks(const std::vector<std::size_t>& counts, std::uint64_t seed,
                     std::vector<gan::GeneratedSeries>& out,
                     std::size_t thread_budget = 0);

  // Sum of thread-CPU seconds across all chunk models (Fig. 4 cost axis).
  double train_cpu_seconds() const;

  // Seed-model weights (for exporting a public pretraining snapshot).
  std::vector<double> seed_snapshot();

  std::size_t num_chunks() const { return models_.size(); }
  bool has_model(std::size_t c) const {
    return c < models_.size() && models_[c] != nullptr;
  }
  // Total DP-SGD steps across models (for the accountant).
  std::size_t total_dp_steps() const;

 private:
  static constexpr std::size_t kSliceBatches = 4;

  gan::DgConfig chunk_config() const;
  std::string checkpoint_path(std::size_t c) const;
  // Restores chunk c's model from its on-disk checkpoint if one exists and
  // validates (CRC32 + shape); invalid files are diagnosed and ignored.
  bool try_resume(std::size_t c);
  // Durably checkpoints chunk c (no-op without checkpoint_dir). A failed
  // write is diagnosed but never fails training — the chunk just retrains
  // on a future resume.
  void write_checkpoint(std::size_t c);
  // A sampling-only chunk c model: freshly built, then restored from
  // `params` (validated before any weight is written).
  std::unique_ptr<gan::DoppelGanger> restored_model(
      std::size_t c, const std::vector<double>& params) const;
  // Swaps chunk c's model for restored_model(c, params) — its own weights
  // once trained, the seed's after a failure: sampling reads nothing else,
  // and the training scratch a fitted model holds is freed. Records the
  // model's counters in report() first.
  void retire(std::size_t c, const std::vector<double>& params);

  gan::TimeSeriesSpec spec_;
  const NetShareConfig config_;
  std::vector<std::unique_ptr<gan::DoppelGanger>> models_;
  std::size_t seed_chunk_ = 0;
  // Seed-model weights cached by train_seed; train_finetune warm-starts
  // from it (const between the seed phase and the last fine-tune).
  std::vector<double> seed_snapshot_;
  TrainReport report_;
};

// The calling thread's buffers for one generation slice: the sampler's
// scratch and the slice's series. Thread-local, so any executor thread can
// run any chunk's slice without sharing mutable state, and the footprint
// stays at one slice per thread.
struct SliceBuffers {
  gan::SampleScratch scratch;
  gan::GeneratedSeries series;
};
SliceBuffers& thread_slice_buffers();

}  // namespace netshare::core
