// Model registry for the generation service (DESIGN.md §13): loads
// snapshot-format-v1 checkpoint files (ml/serialize.hpp, the format
// ChunkedTrainer writes under NetShareConfig::checkpoint_dir) into immutable
// ref-counted LoadedModel handles with atomic hot-swap. publish() builds the
// whole replacement model first — every chunk file CRC-validated and
// restored — and only then swaps the shared_ptr, so a corrupt snapshot never
// unloads the version currently serving, in-flight jobs finish on the old
// handle they hold, and new jobs acquire the new one. No request is dropped
// across a swap.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/netshare.hpp"

namespace netshare::serve {

// How to rebuild a servable model around published weights: the generation
// config plus the reference trace the encoder (normalizers, chunk grid,
// vocabularies) is deterministically fitted on. Snapshots only carry GAN
// parameters, so spec and snapshot must describe the same training setup —
// a mismatch is rejected at publish time by parameter-count validation.
struct ModelSpec {
  core::NetShareConfig config;
  net::FlowTrace reference;
  std::shared_ptr<embed::Ip2Vec> ip2vec;  // may be null (bit-encoded ports)
};

// One published model version, immutable after construction and handed out
// as shared_ptr: holders may sample from it for as long as they keep the
// reference, regardless of later publishes.
//
// Thread-safety: the sampler keeps its scratch per thread, but each part
// records its generate stats in the chunk's report slot, so one chunk may
// be sampled by one thread at a time; distinct chunks of one instance,
// and distinct instances (hot-swapped versions, different models), sample
// concurrently without sharing any mutable state. The scheduler serializes
// batches per LoadedModel instance and gives each chunk one task.
class LoadedModel {
 public:
  // Fits the encoder on spec.reference and restores one model per non-empty
  // chunk from "<snapshot_dir>/chunk_<c>.ckpt". Throws ml::SnapshotError
  // (typed corruption taxonomy) on a missing/invalid file and
  // std::invalid_argument on a parameter-shape mismatch.
  LoadedModel(const ModelSpec& spec, const std::string& snapshot_dir,
              std::uint64_t version);

  LoadedModel(const LoadedModel&) = delete;
  LoadedModel& operator=(const LoadedModel&) = delete;

  std::uint64_t version() const { return version_; }
  // Fingerprint of the generation-relevant config + encoded shape; the
  // coalescing key, so jobs batched together are guaranteed to share an
  // identical generation setup.
  std::uint64_t config_hash() const { return config_hash_; }
  std::size_t num_chunks() const { return encoder_.chunks().size(); }
  const std::vector<core::ChunkInfo>& chunks() const {
    return encoder_.chunks();
  }
  bool has_chunk_model(std::size_t c) const { return trainer_->has_model(c); }

  // Per-chunk record targets for an n-record job (core::chunk_record_targets
  // over this model's chunk grid).
  std::vector<std::size_t> record_targets(std::size_t n) const;

  // Samples + exports chunk c's sub-trace toward `target` records. Pure
  // function of (published weights, config, seed, c, target) — the unit the
  // service coalesces across jobs. Concurrent calls must target distinct
  // chunks (per-chunk report slot).
  void sample_part(std::size_t c, std::size_t target, std::uint64_t seed,
                   net::FlowTrace& out);

  // Serial whole-job generation: parts for every chunk in ascending order,
  // merged. The per-job oracle the coalesced path is tested against, and
  // exactly what NetShare::generate_flows computes for the same seed.
  net::FlowTrace generate(std::size_t n, std::uint64_t seed);

 private:
  core::NetShareConfig config_;
  std::shared_ptr<embed::Ip2Vec> ip2vec_;
  core::FlowEncoder encoder_;  // holds a pointer to config_: no copies/moves
  std::unique_ptr<core::ChunkedTrainer> trainer_;
  std::uint64_t version_;
  std::uint64_t config_hash_;
};

class ModelRegistry {
 public:
  // Registers (or replaces) the rebuild recipe for model_id. Does not load
  // anything; the model serves only after a successful publish.
  void define(const std::string& model_id, ModelSpec spec);

  // Loads + CRC-validates every chunk snapshot under `snapshot_dir`, builds
  // the replacement LoadedModel, and atomically swaps it in. Returns the new
  // version. Throws std::invalid_argument for an undefined model_id,
  // ml::SnapshotError for corrupt/missing snapshot files, and leaves the
  // currently served version untouched on any failure. Concurrent publishes
  // for the same model_id install strictly in version order: a build that
  // finishes after a newer version is already serving is discarded, so the
  // registry version is monotone per model.
  std::uint64_t publish(const std::string& model_id,
                        const std::string& snapshot_dir);

  // Current version for model_id, or nullptr when unknown / not yet
  // published. The returned handle stays valid across later publishes.
  std::shared_ptr<LoadedModel> acquire(const std::string& model_id) const;

  // Number of model_ids with a published version.
  std::size_t models_loaded() const;

  std::vector<std::string> model_ids() const;

 private:
  struct Entry {
    ModelSpec spec;
    std::shared_ptr<LoadedModel> current;  // null until first publish
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::uint64_t next_version_ = 1;
};

}  // namespace netshare::serve
