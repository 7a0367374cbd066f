#include "gan/doppelganger.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "ml/kernels.hpp"
#include "ml/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::gan {

using ml::Matrix;
using ml::concat_cols_into;
using ml::randn_fill;
using ml::slice_rows_into;
using ml::stack_rows_into;

namespace {
constexpr std::size_t kFlagDims = 2;  // alive / done softmax

void random_rows_into(std::size_t n, std::size_t batch, Rng& rng,
                      std::vector<std::size_t>& rows) {
  rows.resize(batch);
  for (auto& r : rows) {
    r = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
}

// The (e1, e2) interpolation weights of `batch` interpolate pairs, drawn
// row by row.
void draw_interp_weights(std::size_t batch, Rng& rng,
                         std::vector<double>& eps) {
  eps.resize(2 * batch);
  for (double& e : eps) e = rng.uniform();
}
}  // namespace

DoppelGanger::DoppelGanger(TimeSeriesSpec spec, DgConfig config,
                           std::uint64_t seed)
    : spec_(std::move(spec)), config_(config), seed_(seed), rng_(seed) {
  const std::size_t A = spec_.attribute_dim();
  const std::size_t F = spec_.feature_dim();
  const std::size_t step_dim = F + kFlagDims;
  const std::size_t T = spec_.max_len;
  const std::size_t disc_in = A + T * step_dim;

  // Attribute generator MLP with a mixed head matching the attribute layout.
  std::vector<std::size_t> attr_dims{config_.attr_noise_dim};
  attr_dims.insert(attr_dims.end(), config_.attr_hidden.begin(),
                   config_.attr_hidden.end());
  attr_dims.push_back(A);
  attr_gen_ = std::make_unique<ml::Mlp>(attr_dims, ml::Activation::kRelu,
                                        spec_.attribute_segments, rng_);

  rnn_ = std::make_unique<ml::Gru>(config_.feat_noise_dim + A,
                                   config_.rnn_hidden, rng_);
  out_linear_ =
      std::make_unique<ml::Linear>(config_.rnn_hidden, step_dim, rng_);
  std::vector<ml::OutputSegment> out_segments = spec_.feature_segments;
  out_segments.push_back({ml::OutputSegment::Kind::kSoftmax, kFlagDims});
  out_head_ = std::make_unique<ml::MixedHead>(std::move(out_segments));

  std::vector<std::size_t> disc_dims{disc_in};
  disc_dims.insert(disc_dims.end(), config_.disc_hidden.begin(),
                   config_.disc_hidden.end());
  disc_dims.push_back(1);
  disc_ = std::make_unique<ml::Mlp>(disc_dims, ml::Activation::kLeakyRelu, rng_);

  std::vector<std::size_t> aux_dims{A};
  aux_dims.insert(aux_dims.end(), config_.aux_hidden.begin(),
                  config_.aux_hidden.end());
  aux_dims.push_back(1);
  aux_disc_ =
      std::make_unique<ml::Mlp>(aux_dims, ml::Activation::kLeakyRelu, rng_);

  g_opt_ = std::make_unique<ml::Adam>(generator_params(), config_.lr);
  d_opt_ = std::make_unique<ml::Adam>(discriminator_params(), config_.lr);
  if (config_.dp) {
    dp_agg_ = std::make_unique<privacy::DpSgdAggregator>(discriminator_params(),
                                                         config_.dp_config);
  }
}

std::vector<ml::Parameter*> DoppelGanger::generator_params() {
  std::vector<ml::Parameter*> params = attr_gen_->parameters();
  for (ml::Parameter* p : rnn_->parameters()) params.push_back(p);
  for (ml::Parameter* p : out_linear_->parameters()) params.push_back(p);
  return params;
}

std::vector<ml::Parameter*> DoppelGanger::discriminator_params() {
  std::vector<ml::Parameter*> params = disc_->parameters();
  for (ml::Parameter* p : aux_disc_->parameters()) params.push_back(p);
  return params;
}

std::vector<ml::Parameter*> DoppelGanger::all_params() {
  std::vector<ml::Parameter*> params = generator_params();
  for (ml::Parameter* p : discriminator_params()) params.push_back(p);
  return params;
}

std::size_t DoppelGanger::flag_offset() const { return spec_.feature_dim(); }

void DoppelGanger::stage_generator_noise(std::size_t batch, Rng& rng) {
  gen_za_.resize(batch, config_.attr_noise_dim);
  randn_fill(gen_za_, rng);
  zts_.resize(spec_.max_len);
  for (Matrix& z : zts_) {
    z.resize(batch, config_.feat_noise_dim);
    randn_fill(z, rng);
  }
}

void DoppelGanger::stage_critic_step(std::size_t num_samples,
                                     CriticStep& cs) {
  const std::size_t B = std::min(config_.batch_size, num_samples);
  random_rows_into(num_samples, B, rng_, cs.rows);
  cs.za.resize(B, config_.attr_noise_dim);
  randn_fill(cs.za, rng_);
  cs.zts.resize(spec_.max_len);
  for (Matrix& z : cs.zts) {
    z.resize(B, config_.feat_noise_dim);
    randn_fill(z, rng_);
  }
  draw_interp_weights(B, rng_, cs.eps);
  draw_interp_weights(B, rng_, cs.aux_eps);
  cs.ready = false;
  cs.built = false;
}

void DoppelGanger::generator_tail(const Matrix& za, GenOutput& out) {
  const std::size_t T = spec_.max_len;
  const std::size_t batch = za.rows();
  out.attributes = attr_gen_->forward(za);

  xs_.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    concat_cols_into(zts_[t], out.attributes, xs_[t]);
  }
  const std::vector<Matrix>& hs = rnn_->forward(xs_);
  stack_rows_into(hs, stacked_);  // [T*B, H], t-major
  const Matrix& heads = out_head_->forward(out_linear_->forward(stacked_));

  out.features.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    slice_rows_into(heads, t * batch, (t + 1) * batch, out.features[t]);
  }
}

const Matrix& DoppelGanger::gen_step(GenScratch& s) const {
  rnn_->step_into(s.x, s.h, s.h_next, s.gru);
  out_linear_->forward_into(s.h_next, s.lin);
  out_head_->forward_into(s.lin, s.head);
  return s.head;
}

void DoppelGanger::fake_batch_into(CriticStep& cs) const {
  GenScratch& s = cs.gen;
  const std::size_t B = cs.za.rows();
  const std::size_t A = spec_.attribute_dim();
  const std::size_t step_dim = spec_.feature_dim() + kFlagDims;
  const Matrix& attr = attr_gen_->forward_into(cs.za, s.attr);
  cs.fake_attr = attr;
  // Rows laid out as disc_input_into assembles them: [attr | y_0 | y_1 ...].
  cs.xf.resize(B, A + spec_.max_len * step_dim);
  for (std::size_t i = 0; i < B; ++i) {
    std::copy(attr.row_ptr(i), attr.row_ptr(i) + A, cs.xf.row_ptr(i));
  }
  s.h.resize(B, rnn_->hidden_dim());
  s.h.fill(0.0);
  for (std::size_t t = 0; t < spec_.max_len; ++t) {
    concat_cols_into(cs.zts[t], attr, s.x);
    const Matrix& y = gen_step(s);
    for (std::size_t i = 0; i < B; ++i) {
      std::copy(y.row_ptr(i), y.row_ptr(i) + step_dim,
                cs.xf.row_ptr(i) + A + t * step_dim);
    }
    std::swap(s.h, s.h_next);
  }
}

void DoppelGanger::generator_backward(
    const Matrix& attr_grad, const std::vector<Matrix>& feature_grads) {
  const std::size_t T = spec_.max_len;
  const std::size_t batch = attr_grad.rows();
  const std::size_t A = spec_.attribute_dim();
  Matrix& g_stacked = ws_.get(T * batch, feature_grads[0].cols());
  stack_rows_into(feature_grads, g_stacked);  // [T*B, F+2]
  const Matrix& gh = out_linear_->backward(out_head_->backward(g_stacked));

  ghs_.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    slice_rows_into(gh, t * batch, (t + 1) * batch, ghs_[t]);
  }
  const std::vector<Matrix>& gxs = rnn_->backward(ghs_);

  // Accumulate the attribute columns of every step's input gradient; same
  // element order (and rounding) as split_cols + operator+=, no temporaries.
  Matrix& attr_total = ws_.get(batch, A);
  attr_total = attr_grad;
  const std::size_t nz = config_.feat_noise_dim;
  for (const Matrix& gx : gxs) {
    for (std::size_t i = 0; i < batch; ++i) {
      const double* src = gx.row_ptr(i) + nz;
      double* dst = attr_total.row_ptr(i);
      for (std::size_t j = 0; j < A; ++j) dst[j] += src[j];
    }
  }
  attr_gen_->backward_params(attr_total);  // its input is noise
}

void DoppelGanger::disc_input_into(const Matrix& attr,
                                   const std::vector<Matrix>& feats,
                                   Matrix& x) const {
  // Direct row assembly: the old concat_cols chain re-copied the growing
  // prefix for every step (O(T^2) bytes); this writes each row once.
  const std::size_t B = attr.rows();
  const std::size_t A = attr.cols();
  std::size_t width = A;
  for (const Matrix& f : feats) width += f.cols();
  x.resize(B, width);
  for (std::size_t i = 0; i < B; ++i) {
    double* dst = x.row_ptr(i);
    const double* asrc = attr.row_ptr(i);
    std::copy(asrc, asrc + A, dst);
    std::size_t at = A;
    for (const Matrix& f : feats) {
      const double* fsrc = f.row_ptr(i);
      std::copy(fsrc, fsrc + f.cols(), dst + at);
      at += f.cols();
    }
  }
}

void DoppelGanger::real_batch_into(const TimeSeriesDataset& data,
                                   const std::vector<std::size_t>& rows,
                                   GenOutput& out) const {
  const std::size_t T = spec_.max_len;
  const std::size_t F = spec_.feature_dim();
  out.attributes.resize(rows.size(), data.attributes.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* src = data.attributes.row_ptr(rows[i]);
    std::copy(src, src + data.attributes.cols(), out.attributes.row_ptr(i));
  }
  out.features.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    Matrix& step = out.features[t];
    step.resize(rows.size(), F + kFlagDims);
    step.fill(0.0);  // dead steps must read as zero features
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t r = rows[i];
      const bool alive = t < data.lengths[r];
      if (alive && t < data.features.size()) {
        const double* src = data.features[t].row_ptr(r);
        std::copy(src, src + F, step.row_ptr(i));
      }
      step(i, F) = alive ? 1.0 : 0.0;
      step(i, F + 1) = alive ? 0.0 : 1.0;
    }
  }
}

namespace {
// Assembles the two-point Lipschitz-penalty gradient rows for a stacked
// critic output. Rows [p1_begin, p1_begin+B) and [p2_begin, p2_begin+B)
// hold the two interpolates per pair; `pair_dist[i]` is ||x1_i - x2_i||.
void add_lipschitz_grads(const Matrix& scores, std::size_t p1_begin,
                         std::size_t p2_begin, std::size_t batch,
                         const std::vector<double>& pair_dist, double weight,
                         Matrix& grad_out) {
  for (std::size_t i = 0; i < batch; ++i) {
    const double d = std::max(pair_dist[i], 1e-8);
    const double slope = (scores(p1_begin + i, 0) - scores(p2_begin + i, 0)) / d;
    const double excess = std::fabs(slope) - 1.0;
    if (excess > 0.0) {
      const double g = 2.0 * excess * (slope > 0 ? 1.0 : -1.0) * weight /
                       (static_cast<double>(batch) * d);
      grad_out(p1_begin + i, 0) += g;
      grad_out(p2_begin + i, 0) -= g;
    }
  }
}

// Builds per-pair interpolates x1, x2 between matching rows of real/fake,
// row i mixing with weights eps[2i] (x1) and eps[2i+1] (x2). Out-params are
// resized in place (capacity reuse on repeated calls).
void interpolate(const Matrix& xr, const Matrix& xf,
                 const std::vector<double>& eps, Matrix& x1, Matrix& x2,
                 std::vector<double>& dist) {
  const std::size_t batch = xr.rows();
  x1.resize(batch, xr.cols());
  x2.resize(batch, xr.cols());
  dist.assign(batch, 0.0);
  for (std::size_t i = 0; i < batch; ++i) {
    const double e1 = eps[2 * i];
    const double e2 = eps[2 * i + 1];
    double d2 = 0.0;
    for (std::size_t j = 0; j < xr.cols(); ++j) {
      const double r = xr(i, j), f = xf(i, j);
      x1(i, j) = e1 * r + (1.0 - e1) * f;
      x2(i, j) = e2 * r + (1.0 - e2) * f;
      const double d = x1(i, j) - x2(i, j);
      d2 += d * d;
    }
    dist[i] = std::sqrt(d2);
  }
}
}  // namespace

void DoppelGanger::forward_phase(const TimeSeriesDataset& data) {
  // A model's first iteration allocates every buffer the graph's tasks
  // reuse from then on; it runs on the calling thread alone, so those
  // buffers come from the owner's heap arena rather than each helper's.
  const std::size_t width =
      critic_steps_.empty() ? 1 : ml::kernels::effective_threads();
  // Stage every draw of the iteration in the order the sequential loop made
  // them, so rng_ yields the same sequence and each task reads fixed inputs.
  critic_steps_.resize(static_cast<std::size_t>(
      std::max(0, config_.d_steps_per_g)));
  for (CriticStep& cs : critic_steps_) {
    stage_critic_step(data.num_samples(), cs);
  }
  stage_generator_noise(config_.batch_size, rng_);

  // Task graph. The critic steps only move the critics' weights, so all
  // three generator forwards read the same generator weights:
  //   0        the generator step's forward, with caches, on the modules;
  //   1..D     critic step k-1's fake batch, on the forward-only path;
  //   D+1      the critic steps in order, each once its fake batch exists.
  // Outputs are disjoint, and a task only ever waits on a lower index, which
  // parallel_for has always started: no deadlock at any width.
  const std::size_t D = critic_steps_.size();
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool::shared().parallel_for(
      D + 2,
      [&](std::size_t k) {
        if (k == 0) {
          generator_tail(gen_za_, fake_);
        } else if (k <= D) {
          CriticStep& cs = critic_steps_[k - 1];
          std::exception_ptr err;
          try {
            fake_batch_into(cs);
          } catch (...) {
            err = std::current_exception();
          }
          {
            // A failed batch still wakes the critic chain, which then stops;
            // parallel_for rethrows the error.
            std::lock_guard<std::mutex> lock(mu);
            cs.built = !err;
            cs.ready = true;
            cv.notify_all();
          }
          if (err) std::rethrow_exception(err);
        } else {
          for (CriticStep& cs : critic_steps_) {
            {
              std::unique_lock<std::mutex> lock(mu);
              cv.wait(lock, [&] { return cs.ready; });
              if (!cs.built) return;
            }
            critic_step(data, cs);
          }
        }
      },
      width);
}

void DoppelGanger::critic_step(const TimeSeriesDataset& data,
                               CriticStep& cs) {
  ws_.reset();
  const std::size_t B = cs.rows.size();
  real_batch_into(data, cs.rows, real_);
  disc_input_into(real_.attributes, real_.features, xr_);
  interpolate(xr_, cs.xf, cs.eps, x1_, x2_, dist_);

  // One batched critic pass over [real; fake; x1; x2].
  Matrix& big = ws_.get(4 * B, xr_.cols());
  stack_rows_into({&xr_, &cs.xf, &x1_, &x2_}, big);
  disc_->zero_grad();
  const Matrix& scores = disc_->forward(big);
  Matrix& gs = ws_.get(4 * B, 1);
  gs.fill(0.0);
  const double inv_b = 1.0 / static_cast<double>(B);
  for (std::size_t i = 0; i < B; ++i) {
    gs(i, 0) = -inv_b;      // maximize D(real)
    gs(B + i, 0) = inv_b;   // minimize D(fake)
  }
  add_lipschitz_grads(scores, 2 * B, 3 * B, B, dist_, config_.lipschitz_weight,
                      gs);
  // Wasserstein critic estimate, derived from scores already computed for
  // the gradient seed. Always recorded: it doubles as the health guard's
  // divergence signal (a NaN forward pass surfaces here first).
  {
    double real_mean = 0.0, fake_mean = 0.0;
    for (std::size_t i = 0; i < B; ++i) {
      real_mean += scores(i, 0);
      fake_mean += scores(B + i, 0);
    }
    last_d_loss_ = (fake_mean - real_mean) * inv_b;
    TELEM_GAUGE_SET("gan.train.d_loss", last_d_loss_);
  }
  // The critic input is data: only the parameter gradients are read.
  disc_->backward_params(gs);

  // Auxiliary critic on attributes only.
  interpolate(real_.attributes, cs.fake_attr, cs.aux_eps, a1_, a2_, adist_);
  Matrix& abig = ws_.get(4 * B, real_.attributes.cols());
  stack_rows_into({&real_.attributes, &cs.fake_attr, &a1_, &a2_}, abig);
  aux_disc_->zero_grad();
  const Matrix& ascores = aux_disc_->forward(abig);
  Matrix& gas = ws_.get(4 * B, 1);
  gas.fill(0.0);
  for (std::size_t i = 0; i < B; ++i) {
    gas(i, 0) = -inv_b * config_.aux_weight;
    gas(B + i, 0) = inv_b * config_.aux_weight;
  }
  add_lipschitz_grads(ascores, 2 * B, 3 * B, B, adist_,
                      config_.lipschitz_weight * config_.aux_weight, gas);
  aux_disc_->backward_params(gas);

  // clip_grad_norm returns the PRE-clip norm; the post-clip norm the guard
  // checks is min(norm, clip) for finite norms and the norm itself when
  // non-finite (clipping is a no-op then, which is exactly the signal).
  const double norm = ml::clip_grad_norm(discriminator_params(),
                                         config_.grad_clip);
  last_d_grad_norm_ = std::min(norm, config_.grad_clip);
  d_opt_->step();
}

void DoppelGanger::discriminator_update_dp(const TimeSeriesDataset& data,
                                           Rng& rng) {
  // One reset for the whole update: xf_all / fake_ stay live through the
  // per-example loop, so the pool must not be recycled inside it (the loop
  // advances the cursors; the pool stabilizes after the first update).
  ws_.reset();
  const std::size_t B = std::min(config_.batch_size, data.num_samples());
  random_rows_into(data.num_samples(), B, rng, rows_);
  stage_generator_noise(B, rng);
  generator_tail(gen_za_, fake_);
  Matrix& xf_all = ws_.get(B, spec_.attribute_dim() +
                                  spec_.max_len *
                                      (spec_.feature_dim() + kFlagDims));
  disc_input_into(fake_.attributes, fake_.features, xf_all);

  for (ml::Parameter* p : discriminator_params()) p->zero_grad();
  row1_.resize(1);
  for (std::size_t i = 0; i < B; ++i) {
    row1_[0] = rows_[i];
    real_batch_into(data, row1_, real_);
    disc_input_into(real_.attributes, real_.features, xr_);
    slice_rows_into(xf_all, i, i + 1, xf_);
    draw_interp_weights(1, rng, eps_);
    interpolate(xr_, xf_, eps_, x1_, x2_, dist_);

    Matrix& big = ws_.get(4, xr_.cols());
    stack_rows_into({&xr_, &xf_, &x1_, &x2_}, big);
    const Matrix& scores = disc_->forward(big);
    Matrix& gs = ws_.get(4, 1);
    gs.fill(0.0);
    gs(0, 0) = -1.0;
    gs(1, 0) = 1.0;
    add_lipschitz_grads(scores, 2, 3, 1, dist_, config_.lipschitz_weight, gs);
    disc_->backward_params(gs);

    slice_rows_into(fake_.attributes, i, i + 1, fa_row_);
    draw_interp_weights(1, rng, eps_);
    interpolate(real_.attributes, fa_row_, eps_, a1_, a2_, adist_);
    Matrix& abig = ws_.get(4, real_.attributes.cols());
    stack_rows_into({&real_.attributes, &fa_row_, &a1_, &a2_}, abig);
    const Matrix& ascores = aux_disc_->forward(abig);
    Matrix& gas = ws_.get(4, 1);
    gas.fill(0.0);
    gas(0, 0) = -config_.aux_weight;
    gas(1, 0) = config_.aux_weight;
    add_lipschitz_grads(ascores, 2, 3, 1, adist_,
                        config_.lipschitz_weight * config_.aux_weight, gas);
    aux_disc_->backward_params(gas);

    dp_agg_->accumulate_example();
  }
  dp_agg_->finalize_batch(B, rng);
  ++dp_steps_;
  d_opt_->step();
}

void DoppelGanger::generator_step() {
  ws_.reset();
  const std::size_t B = config_.batch_size;
  disc_input_into(fake_.attributes, fake_.features, xf_);

  const Matrix& fscores = disc_->forward(xf_);
  const double inv_b = 1.0 / static_cast<double>(B);
  // Generator objective is to maximize mean D(fake): record -mean as g_loss
  // (health-guard divergence signal as well as a telemetry gauge).
  {
    double fake_mean = 0.0;
    for (std::size_t i = 0; i < B; ++i) fake_mean += fscores(i, 0);
    last_g_loss_ = -fake_mean * inv_b;
    TELEM_GAUGE_SET("gan.train.g_loss", last_g_loss_);
  }
  // The generator step reads only the critics' input gradients; the next
  // critic step zeroes their parameter gradients before anything reads them.
  Matrix& gseed = ws_.get(B, 1);
  gseed.fill(-inv_b);
  const Matrix& gin = disc_->backward_input(gseed);

  // Split the critic's input gradient into attribute / per-step pieces by
  // direct column copies (same elements as the old split_cols chain, without
  // re-copying the shrinking remainder O(T) times).
  const std::size_t A = spec_.attribute_dim();
  const std::size_t step_dim = spec_.feature_dim() + kFlagDims;
  Matrix& attr_grad = ws_.get(B, A);
  fgrads_.resize(spec_.max_len);
  for (std::size_t t = 0; t < spec_.max_len; ++t) {
    fgrads_[t].resize(B, step_dim);
  }
  for (std::size_t i = 0; i < B; ++i) {
    const double* src = gin.row_ptr(i);
    std::copy(src, src + A, attr_grad.row_ptr(i));
    for (std::size_t t = 0; t < spec_.max_len; ++t) {
      const double* seg = src + A + t * step_dim;
      std::copy(seg, seg + step_dim, fgrads_[t].row_ptr(i));
    }
  }

  aux_disc_->forward(fake_.attributes);
  Matrix& gaseed = ws_.get(B, 1);
  gaseed.fill(-config_.aux_weight * inv_b);
  attr_grad += aux_disc_->backward_input(gaseed);

  for (ml::Parameter* p : generator_params()) p->zero_grad();
  generator_backward(attr_grad, fgrads_);
  const double norm = ml::clip_grad_norm(generator_params(), config_.grad_clip);
  last_g_grad_norm_ = std::min(norm, config_.grad_clip);
  g_opt_->step();
}

void DoppelGanger::fit(const TimeSeriesDataset& data) {
  fit(data, config_.iterations);
}

void DoppelGanger::fit(const TimeSeriesDataset& data, int iterations) {
  if (data.num_samples() == 0) {
    throw std::invalid_argument("DoppelGanger::fit: empty dataset");
  }
  if (data.features.size() != spec_.max_len) {
    throw std::invalid_argument("DoppelGanger::fit: max_len mismatch");
  }
  const double cpu0 = thread_cpu_seconds() + ThreadPool::helper_cpu_seconds();
  Stopwatch wall;
  const ml::health::HealthConfig& hc = config_.health;
  const bool guarded = hc.enabled && iterations > 0;
  if (guarded) {
    if (!monitor_) {
      monitor_ = std::make_unique<ml::health::HealthMonitor>(hc, all_params(),
                                                             seed_);
    }
    // The entry state (fresh init or a restored warm start) is the step-0
    // rollback target; a fine-tune that diverges immediately falls back to
    // the seed weights it started from.
    monitor_->begin_run();
    g_opt_->set_lr(config_.lr);
    d_opt_->set_lr(config_.lr);
  }
  int attempt = 0;
  int it = 0;
  while (it < iterations) {
    if (config_.dp) {
      for (int d = 0; d < config_.d_steps_per_g; ++d) {
        discriminator_update_dp(data, rng_);
      }
      stage_generator_noise(config_.batch_size, rng_);
      generator_tail(gen_za_, fake_);
    } else {
      forward_phase(data);
    }
    generator_step();
    ++it;
    TELEM_COUNT("gan.train.iterations");
    if (!guarded) continue;
    monitor_->maybe_inject(it);
    if (monitor_->check_due(it) || it == iterations) {
      const bool healthy = monitor_->check(it, last_d_loss_, last_g_loss_,
                                           last_d_grad_norm_,
                                           last_g_grad_norm_);
      if (healthy) {
        if (monitor_->checkpoint_due(it)) monitor_->checkpoint(it);
        continue;
      }
      TELEM_DIAG(::netshare::telemetry::Severity::kWarn, "gan.health.diverged",
                 "training diverged (%s), attempt %d/%d",
                 monitor_->stats().last_issue.c_str(), attempt + 1,
                 hc.max_retries);
      if (attempt >= hc.max_retries) {
        throw ml::health::TrainingDivergedError(
            "DoppelGanger::fit: training diverged (" +
            monitor_->stats().last_issue + ") and stayed diverged after " +
            std::to_string(attempt) + " rollback retries");
      }
      ++attempt;
      // Rollback-and-retry: restore the last healthy parameters, then
      // perturb the recovery — fresh Adam moments (the old ones are
      // poisoned by the bad gradients), a backed-off learning rate, and a
      // reseeded noise stream so the retry takes a different trajectory.
      it = static_cast<int>(monitor_->rollback());
      g_opt_->reset_state();
      d_opt_->reset_state();
      const double lr =
          config_.lr * std::pow(hc.lr_backoff, static_cast<double>(attempt));
      g_opt_->set_lr(lr);
      d_opt_->set_lr(lr);
      rng_ = Rng(mix_seed(seed_, 0x52455452u + static_cast<std::uint64_t>(
                                                   attempt)));
    }
  }
  if (telemetry::kCompiledIn && telemetry::enabled() && iterations > 0) {
    const double secs = wall.seconds();
    if (secs > 0.0) TELEM_GAUGE_SET("gan.train.iters_per_sec", iterations / secs);
  }
  train_cpu_seconds_ +=
      thread_cpu_seconds() + ThreadPool::helper_cpu_seconds() - cpu0;
}

GeneratedSeries DoppelGanger::sample(std::size_t n, Rng& rng) const {
  GeneratedSeries out;
  SampleScratch scratch;
  sample_into(n, rng.engine()(), 0, out, scratch);
  return out;
}

void DoppelGanger::stage_attr_noise(std::size_t b, std::uint64_t stream_seed,
                                    std::size_t first_series,
                                    SampleScratch& s) const {
  // Stage each series' noise from its own counter-based stream, in the
  // fixed draw order (attribute noise, then z_t per step): row i's noise
  // depends only on stream_seed and its global series index, never on the
  // batch it landed in.
  s.za.resize(b, config_.attr_noise_dim);
  s.noise.clear();
  s.noise.reserve(b);
  for (std::size_t i = 0; i < b; ++i) {
    s.noise.emplace_back(stream_seed, first_series + i);
    double* zrow = s.za.row_ptr(i);
    for (std::size_t j = 0; j < config_.attr_noise_dim; ++j) {
      zrow[j] = s.noise.back().normal();
    }
  }
}

void DoppelGanger::sample_into(std::size_t n, std::uint64_t stream_seed,
                               std::size_t first_series, GeneratedSeries& out,
                               SampleScratch& scratch) const {
  TELEM_COUNT_N("gan.sample.series", n);
  const std::size_t T = spec_.max_len;
  const std::size_t F = spec_.feature_dim();
  const std::size_t A = spec_.attribute_dim();
  const std::size_t H = rnn_->hidden_dim();
  const std::size_t Z = config_.feat_noise_dim;
  out.reset(spec_, n);
  GenScratch& g = scratch.gen;
  std::vector<std::size_t>& live = scratch.live;
  // Live rows summed over every RNN step of the call, and the steps run.
  std::size_t row_steps = 0, steps = 0;

  std::size_t done = 0;
  while (done < n) {
    const std::size_t b = std::min(config_.batch_size, n - done);
    stage_attr_noise(b, stream_seed, first_series + done, scratch);
    const Matrix& attr = attr_gen_->forward_into(scratch.za, g.attr);
    for (std::size_t i = 0; i < b; ++i) {
      const double* asrc = attr.row_ptr(i);
      std::copy(asrc, asrc + A, out.attributes.row_ptr(done + i));
    }

    // Length-adaptive unroll: step the RNN one step at a time over the live
    // sub-batch only. Row j of g.h / scratch.attr belongs to series live[j];
    // a series whose alive flag drops below 0.5 is emitted with length
    // max(1, t) — the same rule the reference full unroll applies after the
    // fact — and leaves the batch. Every kernel in the step (fused GRU
    // gates, linear, MixedHead) is row-wise, so dropping dead rows never
    // changes the surviving rows' values, and the output stays bitwise
    // identical to sample_reference_into.
    scratch.attr = attr;
    g.h.resize(b, H);
    g.h.fill(0.0);
    live.resize(b);
    for (std::size_t i = 0; i < b; ++i) live[i] = i;

    for (std::size_t t = 0; t < T && !live.empty(); ++t) {
      const std::size_t m = live.size();
      row_steps += m;
      ++steps;
      // Gather [z_t | attr] rows, matching generator_tail's concat layout.
      // z_t is drawn lazily, only for series still alive at this step: each
      // series' stream is private and its draw order fixed, so skipping the
      // dead series' later draws never changes the values live series see.
      g.x.resize(m, Z + A);
      for (std::size_t j = 0; j < m; ++j) {
        double* xrow = g.x.row_ptr(j);
        NoiseStream& ns = scratch.noise[live[j]];
        for (std::size_t q = 0; q < Z; ++q) xrow[q] = ns.normal();
        const double* asrc = scratch.attr.row_ptr(j);
        std::copy(asrc, asrc + A, xrow + Z);
      }
      const Matrix& y = gen_step(g);

      // Shape the compacted buffers before filling them (g.h's h_{t-1}
      // contents were consumed by gen_step above).
      std::size_t k = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (y(j, F) >= 0.5) ++k;
      }
      g.h.resize(k, H);
      scratch.attr_next.resize(k, A);
      std::size_t w = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t row = done + live[j];
        const double* ysrc = y.row_ptr(j);
        if (ysrc[F] >= 0.5) {
          std::copy(ysrc, ysrc + F, out.features[t].row_ptr(row));
          const double* hsrc = g.h_next.row_ptr(j);
          std::copy(hsrc, hsrc + H, g.h.row_ptr(w));
          std::copy(scratch.attr.row_ptr(j), scratch.attr.row_ptr(j) + A,
                    scratch.attr_next.row_ptr(w));
          live[w] = live[j];
          ++w;
        } else {
          out.lengths[row] = std::max<std::size_t>(1, t);
          if (t == 0) {  // length is clamped to 1, so step 0 is still emitted
            std::copy(ysrc, ysrc + F, out.features[0].row_ptr(row));
          }
        }
      }
      live.resize(k);
      std::swap(scratch.attr, scratch.attr_next);
    }
    done += b;
  }
  if (telemetry::kCompiledIn && telemetry::enabled()) {
    // Mean live sub-batch per RNN step: how much the length-adaptive
    // compaction shrinks the work relative to the full unroll's batch rows.
    if (steps > 0) {
      TELEM_GAUGE_SET("gan.sample.live_rows",
                      static_cast<double>(row_steps) /
                          static_cast<double>(steps));
    }
    for (const std::size_t len : out.lengths) {
      TELEM_HIST("gan.sample.emitted_len", len, 1, 2, 4, 8, 16, 32, 64, 128);
    }
  }
}

void DoppelGanger::sample_reference_into(std::size_t n,
                                         std::uint64_t stream_seed,
                                         std::size_t first_series,
                                         GeneratedSeries& out,
                                         SampleScratch& scratch) {
  const std::size_t T = spec_.max_len;
  const std::size_t F = spec_.feature_dim();
  out.reset(spec_, n);

  std::size_t done = 0;
  while (done < n) {
    const std::size_t b = std::min(config_.batch_size, n - done);
    stage_attr_noise(b, stream_seed, first_series + done, scratch);
    zts_.resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      zts_[t].resize(b, config_.feat_noise_dim);
    }
    for (std::size_t i = 0; i < b; ++i) {
      NoiseStream& ns = scratch.noise[i];
      for (std::size_t t = 0; t < T; ++t) {
        double* trow = zts_[t].row_ptr(i);
        for (std::size_t j = 0; j < config_.feat_noise_dim; ++j) {
          trow[j] = ns.normal();
        }
      }
    }
    generator_tail(scratch.za, fake_);
    const GenOutput& gen = fake_;
    for (std::size_t i = 0; i < b; ++i) {
      const std::size_t row = done + i;
      const double* asrc = gen.attributes.row_ptr(i);
      std::copy(asrc, asrc + spec_.attribute_dim(), out.attributes.row_ptr(row));
      // Length = first step whose alive-flag probability drops below 0.5.
      std::size_t len = T;
      for (std::size_t t = 0; t < T; ++t) {
        if (gen.features[t](i, F) < 0.5) {
          len = std::max<std::size_t>(1, t);
          break;
        }
      }
      out.lengths[row] = len;
      for (std::size_t t = 0; t < len; ++t) {
        const double* fsrc = gen.features[t].row_ptr(i);
        std::copy(fsrc, fsrc + F, out.features[t].row_ptr(row));
      }
    }
    done += b;
  }
}

std::vector<double> DoppelGanger::snapshot() {
  std::vector<ml::Parameter*> all = generator_params();
  for (ml::Parameter* p : discriminator_params()) all.push_back(p);
  return ml::snapshot_parameters(all);
}

void DoppelGanger::restore(const std::vector<double>& snapshot) {
  std::vector<ml::Parameter*> all = generator_params();
  for (ml::Parameter* p : discriminator_params()) all.push_back(p);
  ml::restore_parameters(all, snapshot);
}

}  // namespace netshare::gan
