#include "core/train.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "core/parallel.hpp"
#include "ml/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::core {

const char* to_string(ChunkTrainReport::Status status) {
  switch (status) {
    case ChunkTrainReport::Status::kEmpty: return "empty";
    case ChunkTrainReport::Status::kTrained: return "trained";
    case ChunkTrainReport::Status::kResumed: return "resumed";
    case ChunkTrainReport::Status::kSeedFallback: return "seed-fallback";
  }
  return "unknown";
}

ChunkedTrainer::ChunkedTrainer(gan::TimeSeriesSpec spec,
                               const NetShareConfig& config)
    : spec_(std::move(spec)), config_(config) {}

gan::DgConfig ChunkedTrainer::chunk_config() const {
  gan::DgConfig dg = config_.dg;
  dg.dp = config_.dp;
  dg.dp_config = config_.dp_config;
  return dg;
}

std::string ChunkedTrainer::checkpoint_path(std::size_t c) const {
  return config_.checkpoint_dir + "/chunk_" + std::to_string(c) + ".ckpt";
}

bool ChunkedTrainer::try_resume(std::size_t c) {
  if (config_.checkpoint_dir.empty()) return false;
  const std::string path = checkpoint_path(c);
  {
    // Missing checkpoint is the normal first-run case — stay silent.
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return false;
  }
  try {
    models_[c]->restore(ml::load_snapshot_file(path));
  } catch (const std::exception& e) {
    // Truncated / corrupted / foreign / wrong-shape checkpoint: restore
    // validated before writing, so the model is untouched — retrain it.
    TELEM_DIAG(::netshare::telemetry::Severity::kWarn,
               "core.train.checkpoint_invalid",
               "chunk %zu checkpoint rejected (%s); retraining", c, e.what());
    return false;
  }
  TELEM_COUNT("core.train.chunks_resumed");
  return true;
}

void ChunkedTrainer::write_checkpoint(std::size_t c) {
  if (config_.checkpoint_dir.empty()) return;
  try {
    ml::save_snapshot_file(models_[c]->snapshot(), checkpoint_path(c));
  } catch (const std::exception& e) {
    TELEM_DIAG(::netshare::telemetry::Severity::kWarn,
               "core.train.checkpoint_write_failed",
               "chunk %zu checkpoint not written (%s); a resume will retrain "
               "this chunk", c, e.what());
  }
}

void ChunkedTrainer::begin_fit(const std::vector<std::size_t>& chunk_samples) {
  if (chunk_samples.empty()) {
    throw std::invalid_argument("ChunkedTrainer::fit: no chunks");
  }
  models_.clear();
  models_.resize(chunk_samples.size());
  report_ = TrainReport{};
  report_.chunks.resize(chunk_samples.size());
  seed_snapshot_.clear();

  // Seed chunk: the first chunk with data.
  seed_chunk_ = chunk_samples.size();
  for (std::size_t c = 0; c < chunk_samples.size(); ++c) {
    if (chunk_samples[c] > 0) {
      seed_chunk_ = c;
      break;
    }
  }
  if (seed_chunk_ == chunk_samples.size()) {
    throw std::invalid_argument("ChunkedTrainer::fit: all chunks empty");
  }
  report_.seed_chunk = seed_chunk_;
  report_.chunks[seed_chunk_].is_seed = true;

  if (!config_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
    if (ec) {
      TELEM_DIAG(::netshare::telemetry::Severity::kWarn,
                 "core.train.checkpoint_dir_failed",
                 "cannot create checkpoint dir %s (%s); checkpoints disabled "
                 "for this run", config_.checkpoint_dir.c_str(),
                 ec.message().c_str());
    }
  }
}

void ChunkedTrainer::train_seed(const gan::TimeSeriesDataset& data) {
  Stopwatch sw;
  const gan::DgConfig dg = chunk_config();
  models_[seed_chunk_] = std::make_unique<gan::DoppelGanger>(
      spec_, dg, config_.seed + seed_chunk_);
  ChunkTrainReport& r = report_.chunks[seed_chunk_];
  if (try_resume(seed_chunk_)) {
    r.status = ChunkTrainReport::Status::kResumed;
  } else {
    if (config_.public_snapshot) {
      // Insight 4: warm-start from a model pre-trained on public data before
      // any (possibly DP) training on this data.
      models_[seed_chunk_]->restore(*config_.public_snapshot);
    }
    {
      TELEM_SPAN("train.seed",
                 {"chunk", static_cast<long long>(seed_chunk_)});
      // A seed failure propagates: every other chunk warm-starts from this
      // model, so there is nothing to fall back to.
      models_[seed_chunk_]->fit(data, config_.seed_iterations);
    }
    r.status = ChunkTrainReport::Status::kTrained;
    r.rollbacks = models_[seed_chunk_]->health_stats().rollbacks;
    r.attempts = 1 + r.rollbacks;
    write_checkpoint(seed_chunk_);
  }
  seed_snapshot_ = models_[seed_chunk_]->snapshot();
  if (r.status == ChunkTrainReport::Status::kTrained) {
    retire(seed_chunk_, seed_snapshot_);
  }
  r.train_sec = sw.seconds();
}

void ChunkedTrainer::train_finetune(std::size_t c,
                                    const gan::TimeSeriesDataset& data) {
  if (seed_snapshot_.empty()) {
    throw std::logic_error("ChunkedTrainer::train_finetune: seed not trained");
  }
  Stopwatch sw;
  TELEM_SPAN("train.chunk", {"chunk", static_cast<long long>(c)});
  const gan::DgConfig dg = chunk_config();
  const int iters = config_.naive_parallel ? config_.seed_iterations
                                           : config_.finetune_iterations;
  // Each call owns exactly its own chunk index: models_[c], the checkpoint
  // file chunk_<c>.ckpt, and report_.chunks[c] are all disjoint per chunk,
  // so distinct chunks fine-tune concurrently without locks.
  models_[c] = std::make_unique<gan::DoppelGanger>(spec_, dg,
                                                   config_.seed + 1000 + c);
  ChunkTrainReport& r = report_.chunks[c];
  if (try_resume(c)) {
    r.status = ChunkTrainReport::Status::kResumed;
    r.train_sec = sw.seconds();
    return;
  }
  if (!config_.naive_parallel) {
    models_[c]->restore(seed_snapshot_);
  } else if (config_.public_snapshot) {
    models_[c]->restore(*config_.public_snapshot);
  }
  try {
    models_[c]->fit(data, iters);
    r.status = ChunkTrainReport::Status::kTrained;
    r.rollbacks = models_[c]->health_stats().rollbacks;
    r.attempts = 1 + r.rollbacks;
    write_checkpoint(c);
    retire(c, models_[c]->snapshot());
  } catch (const std::exception& e) {
    // Chunk fault isolation (DESIGN.md §9): this chunk's model failed, the
    // run survives. Rebuild the model so no half-diverged state leaks, and
    // fall back to the seed snapshot it would have fine-tuned from; the
    // DP steps the failed attempts took still count.
    TELEM_DIAG(::netshare::telemetry::Severity::kError,
               "core.train.chunk_failed",
               "chunk %zu training failed (%s); falling back to the seed "
               "snapshot", c, e.what());
    r.rollbacks = models_[c]->health_stats().rollbacks;
    r.attempts = 1 + r.rollbacks;
    r.status = ChunkTrainReport::Status::kSeedFallback;
    r.error = e.what();
    retire(c, seed_snapshot_);
  }
  r.train_sec = sw.seconds();
}

void ChunkedTrainer::note_generate(std::size_t c, double sec,
                                   std::size_t series, std::size_t records,
                                   std::size_t kept) {
  if (c >= report_.chunks.size()) return;
  ChunkTrainReport& r = report_.chunks[c];
  r.generate_sec = sec;
  r.generate_series = series;
  r.generate_records = records;
  r.generate_kept = kept;
}

std::unique_ptr<gan::DoppelGanger> ChunkedTrainer::restored_model(
    std::size_t c, const std::vector<double>& params) const {
  // Same per-chunk construction seeds as training; irrelevant to sampling
  // (restore overwrites every weight) but keeps the objects interchangeable.
  auto model = std::make_unique<gan::DoppelGanger>(
      spec_, chunk_config(),
      c == seed_chunk_ ? config_.seed + c : config_.seed + 1000 + c);
  model->restore(params);  // validates all boundaries before writing
  return model;
}

void ChunkedTrainer::retire(std::size_t c, const std::vector<double>& params) {
  ChunkTrainReport& r = report_.chunks[c];
  r.train_cpu_sec = models_[c]->train_cpu_seconds();
  r.dp_steps = models_[c]->dp_steps();
  models_[c].reset();  // free first, so the restored model reuses its memory
  models_[c] = restored_model(c, params);
}

void ChunkedTrainer::restore_chunk(std::size_t c,
                                   const std::vector<double>& params) {
  if (c >= models_.size()) {
    throw std::out_of_range("ChunkedTrainer::restore_chunk: chunk " +
                            std::to_string(c) + " out of range");
  }
  models_[c] = restored_model(c, params);
  ChunkTrainReport& r = report_.chunks[c];
  r.status = ChunkTrainReport::Status::kResumed;
  r.train_cpu_sec = 0.0;
  r.dp_steps = 0;
  if (c == seed_chunk_) seed_snapshot_ = params;
}

void ChunkedTrainer::fit(const std::vector<gan::TimeSeriesDataset>& chunks) {
  std::vector<std::size_t> sizes(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    sizes[c] = chunks[c].num_samples();
  }
  begin_fit(sizes);

  // Thread budget (see core/config.hpp): while only the seed model trains,
  // the whole budget goes to kernel-level parallelism; once chunks fine-tune
  // concurrently it is split so chunk_workers × kernel_threads ≈ budget.
  // Kernel results are bitwise identical at any thread count, so the split
  // affects wall-clock only.
  const std::size_t budget = std::max<std::size_t>(1, config_.threads);
  {
    ml::kernels::KernelConfig kernel_cfg = config_.kernels;
    if (kernel_cfg.threads == 0) kernel_cfg.threads = budget;
    ml::kernels::ConfigOverride seed_budget(kernel_cfg);
    train_seed(chunks[seed_chunk_]);
  }

  // Remaining chunks fine-tune in parallel from the seed snapshot
  // (or train from scratch in the naive-parallel ablation).
  std::vector<std::size_t> todo;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (c != seed_chunk_ && chunks[c].num_samples() > 0) todo.push_back(c);
  }
  if (todo.empty()) return;

  const PhaseBudget split =
      split_phase_budget(budget, todo.size(), config_.kernels);
  ml::kernels::ConfigOverride finetune_budget(split.kernel_cfg);
  TELEM_SPAN("train.finetune",
             {"chunks", static_cast<long long>(todo.size())});
  run_parallel_tasks(split.workers, todo.size(), [&](std::size_t i) {
    train_finetune(todo[i], chunks[todo[i]]);
  });
}

void ChunkedTrainer::sample_chunk_into(std::size_t c, std::size_t n,
                                       std::uint64_t seed,
                                       std::size_t first_series,
                                       gan::GeneratedSeries& out,
                                       gan::SampleScratch& scratch) const {
  if (!has_model(c)) {
    out.reset(spec_, 0);
    return;
  }
  models_[c]->sample_into(n, mix_seed(seed, c), first_series, out, scratch);
}

void ChunkedTrainer::sample_chunk_reference_into(std::size_t c, std::size_t n,
                                                 std::uint64_t seed,
                                                 std::size_t first_series,
                                                 gan::GeneratedSeries& out,
                                                 gan::SampleScratch& scratch) {
  if (!has_model(c)) {
    out.reset(spec_, 0);
    return;
  }
  models_[c]->sample_reference_into(n, mix_seed(seed, c), first_series, out,
                                    scratch);
}

void ChunkedTrainer::sample_chunks(const std::vector<std::size_t>& counts,
                                   std::uint64_t seed,
                                   std::vector<gan::GeneratedSeries>& out,
                                   std::size_t thread_budget) {
  if (counts.size() != models_.size()) {
    throw std::invalid_argument(
        "ChunkedTrainer::sample_chunks: counts size != num_chunks");
  }
  Stopwatch sw;
  out.resize(models_.size());
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < models_.size(); ++c) {
    const bool sampled = counts[c] > 0 && has_model(c);
    out[c].reset(spec_, sampled ? counts[c] : 0);
    if (sampled) active.push_back(c);
  }
  largest_first(active, counts);
  // Slices of every chunk, largest chunk first: idle threads pick up slices
  // of the largest chunk instead of waiting on it.
  struct Slice {
    std::size_t c, first, n;
    double end_sec = 0.0;  // phase-relative time the slice finished
  };
  std::vector<Slice> slices;
  const std::size_t S = slice_series();
  for (const std::size_t c : active) {
    for (std::size_t first = 0; first < counts[c]; first += S) {
      slices.push_back({c, first, std::min(S, counts[c] - first)});
    }
  }
  const std::size_t budget = parallel_phase_budget(
      thread_budget == 0 ? std::max<std::size_t>(1, config_.threads)
                         : thread_budget);
  const PhaseBudget split =
      split_phase_budget(budget, slices.size(), config_.kernels);
  ml::kernels::ConfigOverride guard(split.kernel_cfg);
  {
    TELEM_SPAN("generate.sample_chunks",
               {"chunks", static_cast<long long>(active.size())});
    run_parallel_tasks(split.workers, slices.size(), [&](std::size_t i) {
      Slice& s = slices[i];
      SliceBuffers& buf = thread_slice_buffers();
      sample_chunk_into(s.c, s.n, seed, s.first, buf.series, buf.scratch);
      out[s.c].put_rows(s.first, buf.series);
      s.end_sec = sw.seconds();
    });
  }
  // A chunk's generate time is when its last slice finished.
  std::vector<double> end_sec(models_.size(), 0.0);
  for (const Slice& s : slices) end_sec[s.c] = std::max(end_sec[s.c], s.end_sec);
  for (const std::size_t c : active) {
    std::size_t records = 0;
    for (std::size_t len : out[c].lengths) records += len;
    note_generate(c, end_sec[c], counts[c], records, records);
  }
}

double ChunkedTrainer::train_cpu_seconds() const {
  double total = 0.0;
  for (const ChunkTrainReport& r : report_.chunks) total += r.train_cpu_sec;
  return total;
}

std::vector<double> ChunkedTrainer::seed_snapshot() {
  if (seed_chunk_ >= models_.size() || !models_[seed_chunk_]) {
    throw std::logic_error("ChunkedTrainer::seed_snapshot: not trained");
  }
  return models_[seed_chunk_]->snapshot();
}

SliceBuffers& thread_slice_buffers() {
  thread_local SliceBuffers buffers;
  return buffers;
}

std::size_t ChunkedTrainer::total_dp_steps() const {
  std::size_t steps = 0;
  for (const ChunkTrainReport& r : report_.chunks) steps += r.dp_steps;
  return steps;
}

}  // namespace netshare::core
