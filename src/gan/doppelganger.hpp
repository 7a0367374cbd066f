// DoppelGANger-style time-series GAN (Lin et al., IMC 2020), configured per
// the paper's Appendix C: MLP metadata (attribute) generator, GRU
// measurement generator with 2-way softmax generation flags, Wasserstein
// loss, auxiliary discriminator on attributes, [0,1] normalization, no
// packing, no auto-normalization.
//
// Substitution note (DESIGN.md): the WGAN-GP gradient penalty is replaced by
// a two-point Lipschitz penalty on pairs of random interpolates, which
// penalizes the same constraint without second-order backprop.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gan/timeseries.hpp"
#include "ml/gru.hpp"
#include "ml/health.hpp"
#include "ml/mlp.hpp"
#include "ml/optim.hpp"
#include "ml/workspace.hpp"
#include "privacy/dp_sgd.hpp"

namespace netshare::gan {

struct DgConfig {
  std::size_t attr_noise_dim = 8;
  std::size_t feat_noise_dim = 8;
  std::vector<std::size_t> attr_hidden = {64, 64};
  std::size_t rnn_hidden = 48;
  std::vector<std::size_t> disc_hidden = {96, 96};
  std::vector<std::size_t> aux_hidden = {48};

  int iterations = 300;
  std::size_t batch_size = 64;
  int d_steps_per_g = 2;
  double lr = 1e-3;
  double lipschitz_weight = 10.0;
  double aux_weight = 1.0;
  double grad_clip = 5.0;

  // Differentially-private training: DP-SGD on the discriminators (the only
  // components touching real data; generator updates are post-processing).
  bool dp = false;
  privacy::DpSgdConfig dp_config;

  // Numeric health guard + rollback-and-retry policy (DESIGN.md §9). On a
  // healthy run the guard only reads, so determinism and the zero-allocation
  // steady state are unchanged; health.enabled = false removes even that.
  ml::health::HealthConfig health;
};

// Scratch of the forward-only generator path: the attribute MLP's two
// ping-pong buffers, one GRU step's scratch, the hidden-state pair, the step
// input [z_t | attr] and the output layer's two buffers. Each concurrent
// user owns one.
struct GenScratch {
  std::vector<ml::Matrix> attr;
  ml::Gru::StepScratch gru;
  ml::Matrix h, h_next, x, lin, head;
};

// Caller-owned state of one sampler (DoppelGanger::sample_into): the
// forward-only generator scratch (whose h is the live sub-batch's hidden
// state), the batch's attribute noise, the compacting double buffers for
// the live attribute rows, the surviving series' batch indices and the
// per-series noise streams. One per concurrent sampler; after a warm-up
// call with the same n, sampling through it allocates no Matrix storage.
struct SampleScratch {
  GenScratch gen;
  ml::Matrix za, attr, attr_next;
  std::vector<std::size_t> live;
  std::vector<NoiseStream> noise;
};

class DoppelGanger {
 public:
  DoppelGanger(TimeSeriesSpec spec, DgConfig config, std::uint64_t seed);

  // Trains (or, when called on a restored model, fine-tunes) for
  // config.iterations on `data`. Outside DP mode each iteration runs as a
  // task graph on ThreadPool::shared(), kernels::effective_threads() wide
  // (DESIGN.md §5): the generator step's forward beside the critic steps,
  // then the generator backward with its BPTT fan-out. The weights are
  // bitwise identical at every width.
  void fit(const TimeSeriesDataset& data);
  // Same, with an explicit iteration count (fine-tuning uses fewer).
  void fit(const TimeSeriesDataset& data, int iterations);

  // Samples n synthetic series.
  GeneratedSeries sample(std::size_t n, Rng& rng) const;

  // Batched zero-allocation sampling into caller-owned buffers (the
  // generation twin of the DESIGN.md §6 training hot path). Series
  // `first_series + i` draws its noise from the counter-based stream
  // (stream_seed, first_series + i), and every stage of the generator
  // forward pass is row-wise, so each output row is a pure function of its
  // own stream: results are bitwise independent of the batch size, of how
  // callers partition [0, n) across calls, and of the kernel thread count.
  // After a warm-up call with the same n and scratch, repeated calls perform
  // zero Matrix heap allocations (asserted in tests/test_generate.cpp). The
  // sampler reads only the weights and writes only `out` and `scratch`, so
  // several threads may sample one model at once, each with its own scratch
  // (core/netshare.cpp samples slices of one chunk's round that way).
  // The fast path is length-adaptive: the generator is stepped one RNN step
  // at a time and series whose alive flag has dropped leave the batch, so
  // compute is proportional to the total emitted length rather than
  // n * max_len (generated series are usually much shorter than max_len).
  void sample_into(std::size_t n, std::uint64_t stream_seed,
                   std::size_t first_series, GeneratedSeries& out,
                   SampleScratch& scratch) const;

  // Reference sampler: the training-path full unroll (every series runs all
  // max_len steps through generator_tail, then lengths are read off the
  // alive flags). Bitwise identical to sample_into — steps at or past a
  // series' length were computed and discarded here, skipped there — and
  // kept as the oracle for tests and the serial baseline for
  // bench/pipeline_e2e. Same stream/zero-allocation contract as
  // sample_into, but it runs on the training buffers: one caller per model.
  void sample_reference_into(std::size_t n, std::uint64_t stream_seed,
                             std::size_t first_series, GeneratedSeries& out,
                             SampleScratch& scratch);

  // Warm-start support (Insights 3 and 4).
  std::vector<double> snapshot();
  void restore(const std::vector<double>& snapshot);

  // Cumulative CPU-seconds spent inside fit() (Fig. 4's scalability axis),
  // the calling thread's and that of every executor helper its fan-outs ran
  // on.
  double train_cpu_seconds() const { return train_cpu_seconds_; }
  // Number of DP-SGD steps taken so far (for the accountant).
  std::size_t dp_steps() const { return dp_steps_; }

  // Health-guard counters accumulated across fit() calls (all zero when the
  // guard is disabled or fit() has not run).
  ml::health::TrainHealthStats health_stats() const {
    return monitor_ ? monitor_->stats() : ml::health::TrainHealthStats{};
  }

  const TimeSeriesSpec& spec() const { return spec_; }
  const DgConfig& config() const { return config_; }

 private:
  struct GenOutput {
    ml::Matrix attributes;             // B x A
    std::vector<ml::Matrix> features;  // T of B x (F+2), incl. gen flags
  };

  // One critic step of an iteration: the draws staged for it (minibatch
  // rows, attribute and per-step noise, the (e1, e2) interpolation weights
  // per row of the critic and of the aux critic), the fake batch its graph
  // task builds, and that task's generator scratch. `ready` (guarded by the
  // iteration's graph mutex) is set once the fake batch task has ended;
  // `built` says whether it succeeded.
  struct CriticStep {
    std::vector<std::size_t> rows;
    ml::Matrix za;
    std::vector<ml::Matrix> zts;
    std::vector<double> eps, aux_eps;
    GenScratch gen;
    ml::Matrix fake_attr, xf;  // fake attributes and critic input rows
    bool ready = false;
    bool built = false;
  };

  // Draws the generator step's noise into gen_za_ and zts_.
  void stage_generator_noise(std::size_t batch, Rng& rng);
  // Draws one critic step's rows, noise and interpolation weights from rng_,
  // in the order the step consumes them.
  void stage_critic_step(std::size_t num_samples, CriticStep& cs);
  // Noise-independent generator forward pass with the caches backward
  // needs (attribute MLP, per-step concat, GRU unroll, MixedHead): consumes
  // `za` and the per-step noise already staged in zts_. Used by training
  // and by sample_reference_into.
  void generator_tail(const ml::Matrix& za, GenOutput& out);
  // The forward-only generator path, shared by sample_into and the critic
  // steps' fake batches. gen_step runs one RNN step and the output layer on
  // s.x and s.h into s.h_next and s.head (returned). Every stage is
  // row-wise and reads only weights, so rows match generator_tail's bitwise
  // and several tasks may run it at once with distinct scratch.
  const ml::Matrix& gen_step(GenScratch& s) const;
  // Builds a critic step's fake batch (all max_len steps) from its staged
  // noise on the forward-only path, straight into critic input rows.
  void fake_batch_into(CriticStep& cs) const;
  // Builds one batch of per-series counter-based noise streams (s.noise)
  // and fills s.za with each series' attribute noise. Draw order per series
  // is fixed — attribute noise, then z_0, z_1, ... — so the adaptive sampler
  // (which draws z_t lazily, only for series still alive at step t) sees
  // exactly the same prefix of each stream as the reference sampler (which
  // drains all max_len steps).
  void stage_attr_noise(std::size_t b, std::uint64_t stream_seed,
                        std::size_t first_series, SampleScratch& s) const;
  // Backprop through the generator given dLoss/d(attr) and dLoss/d(features).
  void generator_backward(const ml::Matrix& attr_grad,
                          const std::vector<ml::Matrix>& feature_grads);

  // Flattens (attr, features) into the discriminator input [B, A + T*(F+2)],
  // assembling each output row directly (no intermediate concatenations).
  void disc_input_into(const ml::Matrix& attr,
                       const std::vector<ml::Matrix>& feats,
                       ml::Matrix& x) const;
  // Builds a real minibatch (with gen flags appended) from the dataset.
  void real_batch_into(const TimeSeriesDataset& data,
                       const std::vector<std::size_t>& rows,
                       GenOutput& out) const;

  // Non-DP iteration up to the generator step's backward: stages every
  // draw, then runs the task graph (generator forward | fake batches |
  // critic steps in order).
  void forward_phase(const TimeSeriesDataset& data);
  void critic_step(const TimeSeriesDataset& data, CriticStep& cs);
  void discriminator_update_dp(const TimeSeriesDataset& data, Rng& rng);
  // Generator step on the fake_ batch generator_tail left: critic pass,
  // backward through the generator, clip and Adam.
  void generator_step();

  std::size_t flag_offset() const;  // column of the alive flag within a step

  TimeSeriesSpec spec_;
  DgConfig config_;
  std::uint64_t seed_;  // construction seed; fault injection filters on it
  Rng rng_;

  std::unique_ptr<ml::Mlp> attr_gen_;
  std::unique_ptr<ml::Gru> rnn_;
  std::unique_ptr<ml::Linear> out_linear_;
  std::unique_ptr<ml::MixedHead> out_head_;
  std::unique_ptr<ml::Mlp> disc_;
  std::unique_ptr<ml::Mlp> aux_disc_;

  std::unique_ptr<ml::Adam> g_opt_;
  std::unique_ptr<ml::Adam> d_opt_;
  std::unique_ptr<privacy::DpSgdAggregator> dp_agg_;

  // Per-model allocation arena (DESIGN.md §6): reset at the top of every
  // critic step and generator step; owned by the model so chunk-parallel
  // fine-tuning (core/train.cpp) never shares buffers across threads. The
  // generator forward, which runs beside the critic steps, and the
  // samplers take nothing from it.
  ml::Workspace ws_;
  // Persistent batch buffers reused across iterations.
  GenOutput real_, fake_;
  ml::Matrix stacked_;              // generator_tail's [T*B, H] RNN outputs
  std::vector<CriticStep> critic_steps_;
  ml::Matrix gen_za_;               // generator step's attribute noise
  std::vector<ml::Matrix> zts_;     // per-step generator noise z_t
  std::vector<ml::Matrix> xs_;      // generator RNN inputs [z_t | attr]
  std::vector<ml::Matrix> ghs_;     // per-step hidden-state gradients
  std::vector<ml::Matrix> fgrads_;  // per-step feature gradients
  ml::Matrix xr_, xf_, x1_, x2_, a1_, a2_, fa_row_;
  std::vector<double> dist_, adist_, eps_;
  std::vector<std::size_t> rows_, row1_;

  double train_cpu_seconds_ = 0.0;
  std::size_t dp_steps_ = 0;

  // Health guard (DESIGN.md §9): per-model monitor plus the most recent
  // losses / post-clip gradient norms the update functions record for it.
  std::unique_ptr<ml::health::HealthMonitor> monitor_;
  double last_d_loss_ = 0.0;
  double last_g_loss_ = 0.0;
  double last_d_grad_norm_ = 0.0;
  double last_g_grad_norm_ = 0.0;

  std::vector<ml::Parameter*> generator_params();
  std::vector<ml::Parameter*> discriminator_params();
  std::vector<ml::Parameter*> all_params();
};

}  // namespace netshare::gan
