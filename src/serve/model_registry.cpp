#include "serve/model_registry.hpp"

#include <stdexcept>
#include <utility>

#include "ml/serialize.hpp"
#include "serve/chaos.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::serve {

namespace {

// FNV-1a over the generation-relevant shape of a loaded model. Two jobs may
// be coalesced only if their models agree on this fingerprint; version is
// mixed in so a hot-swap always changes the coalescing key.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_model_shape(const core::NetShareConfig& config,
                               const gan::TimeSeriesSpec& spec,
                               std::size_t num_chunks, std::uint64_t version) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, config.max_seq_len);
  h = fnv1a(h, config.use_ip2vec_ports ? 1 : 0);
  h = fnv1a(h, config.log_transform ? 1 : 0);
  h = fnv1a(h, config.use_flow_tags ? 1 : 0);
  h = fnv1a(h, config.ip2vec_dim);
  h = fnv1a(h, config.num_chunks);
  h = fnv1a(h, config.seed);
  h = fnv1a(h, spec.attribute_dim());
  h = fnv1a(h, spec.feature_dim());
  h = fnv1a(h, spec.max_len);
  h = fnv1a(h, num_chunks);
  h = fnv1a(h, version);
  return h;
}

}  // namespace

LoadedModel::LoadedModel(const ModelSpec& spec, const std::string& snapshot_dir,
                         std::uint64_t version)
    : config_(spec.config),
      ip2vec_(spec.ip2vec),
      encoder_(config_, ip2vec_.get()),
      version_(version) {
  if (config_.use_ip2vec_ports && !ip2vec_) {
    throw std::invalid_argument(
        "LoadedModel: use_ip2vec_ports requires an IP2Vec model in the spec");
  }
  if (spec.reference.records.empty()) {
    throw std::invalid_argument("LoadedModel: empty reference trace");
  }
  // Same deterministic setup as NetShare::fit on the reference trace: the
  // encoder learns normalizers + the chunk grid, the plan sizes the trainer.
  encoder_.fit(spec.reference);
  const core::FlowEncodePlan plan = encoder_.plan(spec.reference);
  const std::size_t M = encoder_.chunks().size();
  std::vector<std::size_t> samples(M);
  for (std::size_t c = 0; c < M; ++c) samples[c] = plan.chunk_samples(c);
  trainer_ = std::make_unique<core::ChunkedTrainer>(encoder_.spec(), config_);
  trainer_->begin_fit(samples);
  // All-or-nothing: any missing/corrupt/mis-shaped chunk file throws here,
  // before the registry ever sees this object — the previously published
  // version keeps serving.
  for (std::size_t c = 0; c < M; ++c) {
    if (samples[c] == 0) continue;  // empty chunk trains no model
    const std::string path =
        snapshot_dir + "/chunk_" + std::to_string(c) + ".ckpt";
    trainer_->restore_chunk(c, ml::load_snapshot_file(path));
  }
  config_hash_ = hash_model_shape(config_, encoder_.spec(), M, version_);
}

std::vector<std::size_t> LoadedModel::record_targets(std::size_t n) const {
  return core::chunk_record_targets(encoder_.chunks(), n);
}

void LoadedModel::sample_part(std::size_t c, std::size_t target,
                              std::uint64_t seed, net::FlowTrace& out) {
  out = net::FlowTrace{};
  if (target == 0 || !trainer_->has_model(c)) return;
  // The model config's thread budget is the part's slice width: the service
  // runs one task per chunk on the shared executor, and a part's slices
  // queue on the same executor, so idle cores pick up the slices of a large
  // part. Values never depend on the width.
  core::sample_flow_chunk_part(encoder_.chunks(), c, target, seed, config_,
                               *trainer_, encoder_, config_.threads, out);
  core::export_flow_chunk_part(target, out);
}

net::FlowTrace LoadedModel::generate(std::size_t n, std::uint64_t seed) {
  const std::vector<std::size_t> targets = record_targets(n);
  std::vector<net::FlowTrace> parts(num_chunks());
  for (std::size_t c = 0; c < parts.size(); ++c) {
    sample_part(c, targets[c], seed, parts[c]);
  }
  return core::merge_flow_chunk_parts(parts, n);
}

void ModelRegistry::define(const std::string& model_id, ModelSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[model_id].spec = std::move(spec);
}

std::uint64_t ModelRegistry::publish(const std::string& model_id,
                                     const std::string& snapshot_dir) {
  ModelSpec spec;
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(model_id);
    if (it == entries_.end()) {
      throw std::invalid_argument("ModelRegistry::publish: undefined model '" +
                                  model_id + "'");
    }
    spec = it->second.spec;  // shallow shares ip2vec; copies config + trace
    version = next_version_++;
  }
  // The expensive build (encoder fit + CRC-validated chunk restores) runs
  // outside the lock, so serving never stalls behind a publish.
  // Chaos injection (DESIGN.md §14): a planned load fault surfaces exactly
  // like a disk-level failure — typed, before anything installs, so the
  // previously published version keeps serving.
  if (chaos_registry_load_fails()) {
    throw ml::SnapshotError(ml::SnapshotError::Kind::kIo,
                            "chaos: injected snapshot load failure for '" +
                                model_id + "'");
  }
  auto model = std::make_shared<LoadedModel>(spec, snapshot_dir, version);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[model_id];
    // Concurrent publishes finish building in arbitrary order; install
    // strictly by version so a slow older build can never roll the registry
    // back below a version already serving. A superseded build is simply
    // discarded — its caller still gets its version, the newer one serves.
    if (!entry.current || entry.current->version() < version) {
      entry.current = std::move(model);  // the atomic hot-swap
    } else {
      TELEM_COUNT("serve.registry.stale_publishes_discarded");
    }
  }
  TELEM_COUNT("serve.registry.publishes");
  return version;
}

std::shared_ptr<LoadedModel> ModelRegistry::acquire(
    const std::string& model_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(model_id);
  return it == entries_.end() ? nullptr : it->second.current;
}

std::size_t ModelRegistry::models_loaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, entry] : entries_) n += entry.current ? 1 : 0;
  return n;
}

std::vector<std::string> ModelRegistry::model_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

}  // namespace netshare::serve
