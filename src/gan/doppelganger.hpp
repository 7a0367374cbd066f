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

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
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

// Scratch of the forward-only generator path: the attribute MLP's output
// buffer per layer, the GRU's projections of the attributes (its
// step-invariant input), one GRU step's scratch, the hidden-state pair, the
// step input z_t and the output layer's two buffers. Each concurrent user
// owns one.
struct GenScratch {
  std::vector<ml::Matrix> attr;
  ml::Gru::GateRows proj;
  ml::Gru::StepScratch gru;
  ml::Matrix h, h_next, x, lin, head;
};

// Caller-owned state of one sampler (DoppelGanger::sample_into): the
// forward-only generator scratch (whose h and proj are the live
// sub-batch's hidden state and attribute projections), the batch's
// attribute noise, the compacting twin of gen.proj, the surviving series'
// batch indices and the per-series noise streams. One per concurrent
// sampler; after a warm-up call with the same n, sampling through it
// allocates no Matrix storage.
struct SampleScratch {
  GenScratch gen;
  ml::Matrix za;
  ml::Gru::GateRows proj_next;
  std::vector<std::size_t> live;
  std::vector<NoiseStream> noise;
};

class DoppelGanger {
 public:
  DoppelGanger(TimeSeriesSpec spec, DgConfig config, std::uint64_t seed);

  // Trains (or, when called on a restored model, fine-tunes) for
  // `iterations` on `data`. Outside DP mode each iteration runs as a fixed
  // sequence of row-sliced stages on ThreadPool::shared(), up to `width`
  // threads wide (0 counts as 1; DESIGN.md §5, *Width*): the generator
  // forwards, then each critic step, then the generator step. The weights
  // are bitwise identical at every width.
  void fit(const TimeSeriesDataset& data, int iterations, std::size_t width);
  // The perfbench shim's width-less forms (ml/kernels.hpp): config.iterations
  // or `iterations`, at this thread's ml::kernels::effective_threads().
  void fit(const TimeSeriesDataset& data);
  void fit(const TimeSeriesDataset& data, int iterations);

  // Samples n synthetic series.
  GeneratedSeries sample(std::size_t n, Rng& rng) const;

  // Batched zero-allocation sampling into caller-owned buffers (the
  // generation twin of the DESIGN.md §6 training hot path). Series
  // `first_series + i` draws its noise from the counter-based stream
  // (stream_seed, first_series + i), and every stage of the generator
  // forward pass is row-wise, so each output row is a pure function of its
  // own stream: results are bitwise independent of the batch size, of how
  // callers partition [0, n) across calls, and of the calling thread.
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
  // max_len steps through generator_forward, then lengths are read off the
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

  // The draws one critic step consumes, staged in the order it consumes
  // them: minibatch rows, attribute and per-step noise, and the (e1, e2)
  // interpolation weights per row of the critic and of the aux critic.
  struct CriticDraws {
    std::vector<std::size_t> rows;
    ml::Matrix za;
    std::vector<ml::Matrix> zts;
    std::vector<double> eps, aux_eps;
  };
  // Every draw of an iteration: the critic steps' in order, then the
  // generator step's noise.
  struct Draws {
    std::vector<CriticDraws> critic;
    ml::Matrix za;
    std::vector<ml::Matrix> zts;
  };
  // A critic step's fake batch, which the generator-forward stage builds on
  // the forward-only path, and that path's scratch.
  struct CriticStep {
    GenScratch gen;
    ml::Matrix fake_attr, xf;  // fake attributes and critic input rows
  };

  // The stages of an iteration, for the profile (DESIGN.md §8).
  enum Stage : std::size_t {
    kGenForward,      // every generator forward of the iteration
    kCriticForward,   // critic and aux-critic forward slices
    kCriticDelta,     // their input-gradient slices
    kCriticGrads,     // one task per parameter gradient (or row part)
    kCriticAdam,      // clip scaling and Adam per parameter
    kGenBackward,     // critic pass, head, BPTT and attribute-MLP slices
    kGenGrads,
    kGenAdam,
    kGuard,           // health guard: begin_run, check, checkpoint, rollback
    kStageCount
  };
  struct StageClock {
    double wall = 0.0, busy = 0.0;  // seconds; busy sums the task times
  };
  // A task of an update's stages over parameter `param` of its list: rows
  // [begin, end) of the gradient (with its cost in multiply-adds), or
  // elements [begin, end) for Adam.
  struct ParamPiece {
    std::size_t param, begin, end;
    double cost;
  };

  // Draws the generator step's noise into za and zts.
  void draw_generator_noise(std::size_t batch, Rng& rng, ml::Matrix& za,
                            std::vector<ml::Matrix>& zts) const;
  // Draws one critic step's draws from rng_.
  void draw_critic_step(std::size_t num_samples, CriticDraws& d);
  // Draws a whole non-DP iteration from rng_.
  void draw_iteration(std::size_t num_samples, Draws& d);
  // Runs fn(k) for k in [0, n) as one stage: in the iteration's region
  // when one is open, else as a parallel_for on ThreadPool::shared(),
  // stage_width_ wide. With the profile on, charges its wall time and its
  // summed task time to `stage`.
  template <typename Fn>
  void run_stage(Stage stage, std::size_t n, const Fn& fn);
  // The generator-forward stage: row slices of the generator forward with
  // the caches backward needs (attribute MLP, GRU unroll conditioned on the
  // attributes, output layer and MixedHead) on the noise `za` and `zts`,
  // into out; beside them, row slices of the first `fake_batches` critic
  // steps' fake batches on the forward-only path (from draws_), and
  // `beside` (when set) as one more task. Also the full unroll of
  // sample_reference_into.
  void generator_forward(const ml::Matrix& za,
                         const std::vector<ml::Matrix>& zts, GenOutput& out,
                         std::size_t fake_batches,
                         const std::function<void()>& beside);
  // The forward-only generator path of sample_into. gen_step runs one RNN
  // step and the output layer on s.x, s.proj and s.h into s.h_next and
  // s.head (returned). Every stage is row-wise and reads only weights, so
  // rows match generator_forward's bitwise and several tasks may run it at
  // once with distinct scratch.
  const ml::Matrix& gen_step(GenScratch& s) const;
  // Rows [r0, r1) of a critic step's fake batch (all max_len steps), from
  // its staged noise straight into critic input rows.
  void fake_batch_rows(const CriticDraws& d, CriticStep& cs, std::size_t r0,
                       std::size_t r1) const;
  // Builds one batch of per-series counter-based noise streams (s.noise)
  // and fills s.za with each series' attribute noise. Draw order per series
  // is fixed — attribute noise, then z_0, z_1, ... — so the adaptive sampler
  // (which draws z_t lazily, only for series still alive at step t) sees
  // exactly the same prefix of each stream as the reference sampler (which
  // drains all max_len steps).
  void stage_attr_noise(std::size_t b, std::uint64_t stream_seed,
                        std::size_t first_series, SampleScratch& s) const;

  // Flattens (attr, features) into the discriminator input [B, A + T*(F+2)],
  // assembling each output row directly (no intermediate concatenations):
  // all rows, or rows [r0, r1) of an x already shaped.
  void disc_input_into(const ml::Matrix& attr,
                       const std::vector<ml::Matrix>& feats,
                       ml::Matrix& x) const;
  void disc_input_rows(const ml::Matrix& attr,
                       const std::vector<ml::Matrix>& feats, ml::Matrix& x,
                       std::size_t r0, std::size_t r1) const;
  // Builds a real minibatch (with gen flags appended) from the dataset:
  // all rows, or rows [r0, r1) of an out already shaped.
  void real_batch_into(const TimeSeriesDataset& data,
                       const std::vector<std::size_t>& rows,
                       GenOutput& out) const;
  void real_batch_rows(const TimeSeriesDataset& data,
                       const std::vector<std::size_t>& rows, GenOutput& out,
                       std::size_t r0, std::size_t r1) const;

  // One iteration: stages every draw (running the DP critic updates, which
  // draw as they go), then, in one ThreadPool::Region, the generator-forward
  // stage, each critic step's stages in order and the generator step's.
  // With `predraw` (another iteration follows in this fit) outside DP mode,
  // the next iteration's draws run as a task of the first stage.
  void iteration(const TimeSeriesDataset& data, bool predraw);
  void critic_step(const TimeSeriesDataset& data, const CriticDraws& d,
                   CriticStep& cs);
  void discriminator_update_dp(const TimeSeriesDataset& data, Rng& rng);
  // Generator step on the fake_ batch generator_forward left: one stage of
  // row slices (critic pass, head backward, BPTT with the GRU's attribute
  // gradient, attribute-MLP backward), then the gradient and Adam stages.
  void generator_step();
  // The parameter-gradient and Adam stages of an update over `params`:
  // parameter i's gradient sums over `batch_rows(i)` rows (its cost is that
  // times its size) and `run(i, r0, r1)` accumulates rows [r0, r1) of it
  // into zeroed rows; then the serial clip norm, and scaling plus Adam per
  // parameter. Returns the pre-clip norm.
  template <typename Rows, typename Run>
  double update(const std::vector<ml::Parameter*>& params, ml::Adam& opt,
                Stage grads, Stage adam, const Rows& batch_rows,
                const Run& run);

  // Sets the gan.stage.* gauges from stage_clock_ after a fit of `runs`
  // iterations that took `wall` seconds and `cpu` CPU-seconds.
  void publish_profile(int runs, double wall, double cpu) const;

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
  // critic step and generator step, and handed out only between stages, on
  // the calling thread; owned by the model so chunk-parallel fine-tuning
  // (core/train.cpp) never shares buffers across threads. The samplers take
  // nothing from it.
  ml::Workspace ws_;
  // Persistent batch buffers reused across iterations.
  GenOutput real_, fake_;
  ml::Matrix stacked_;              // the generator's [T*B, H] RNN outputs
  std::vector<CriticStep> critic_steps_;
  // This iteration's draws, and the next one's when predrawn_ says this
  // iteration already made them.
  Draws draws_, next_draws_;
  bool predrawn_ = false;
  std::vector<ml::Matrix> ghs_;     // per-step hidden-state gradients
  ml::Matrix xr_, xf_, x1_, x2_, a1_, a2_, fa_row_;
  std::vector<double> dist_, adist_, eps_;
  std::vector<std::size_t> rows_, row1_;
  std::vector<ParamPiece> pieces_;

  // Stage width (fit's width, or 1 for a model's first iteration, which
  // allocates every buffer on the calling thread) and the width the row
  // slices are cut for.
  std::size_t stage_width_ = 1;
  std::size_t slice_width_ = 1;
  bool warmed_ = false;  // a first iteration has run
  ThreadPool::Region* region_ = nullptr;  // the iteration's, while open
  // Per-stage profile of the current fit (telemetry on only).
  bool profile_ = false;
  StageClock stage_clock_[kStageCount];

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
