#include "gan/doppelganger.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "ml/kernels.hpp"
#include "ml/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace netshare::gan {

using ml::Matrix;
using ml::copy_rows_into;
using ml::randn_fill;
using ml::slice_rows_into;
using ml::stack_rows_into;

namespace {
constexpr std::size_t kFlagDims = 2;  // alive / done softmax
// Floor on a row slice's height: thinner slices cost more in fork-join and
// per-call overhead than they save.
constexpr std::size_t kMinSliceRows = 8;
// Floor on an Adam task's element range, for the same reason.
constexpr std::size_t kMinAdamElements = 8192;

// `rows` rows cut into min(width, rows / kMinSliceRows) contiguous slices
// (at least one); slice k is [begin(k), end(k)).
struct RowSlices {
  RowSlices(std::size_t rows, std::size_t width)
      : rows(rows),
        count(std::max<std::size_t>(
            1, std::min(width, rows / kMinSliceRows))) {}
  std::size_t begin(std::size_t k) const { return k * rows / count; }
  std::size_t end(std::size_t k) const { return (k + 1) * rows / count; }
  std::size_t rows, count;
};

// Rows [r0, r1) of src into dst starting at row `at` + r0.
void copy_rows_at(const Matrix& src, Matrix& dst, std::size_t at,
                  std::size_t r0, std::size_t r1) {
  std::copy(src.row_ptr(r0), src.row_ptr(r1), dst.row_ptr(at + r0));
}

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

  // Each RNN step reads [z_t | attributes]; the attributes are its
  // step-invariant input.
  rnn_ = std::make_unique<ml::Gru>(config_.feat_noise_dim, A,
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

void DoppelGanger::draw_generator_noise(std::size_t batch, Rng& rng,
                                        Matrix& za,
                                        std::vector<Matrix>& zts) const {
  za.resize(batch, config_.attr_noise_dim);
  randn_fill(za, rng);
  zts.resize(spec_.max_len);
  for (Matrix& z : zts) {
    z.resize(batch, config_.feat_noise_dim);
    randn_fill(z, rng);
  }
}

void DoppelGanger::draw_critic_step(std::size_t num_samples,
                                    CriticDraws& d) {
  const std::size_t B = std::min(config_.batch_size, num_samples);
  random_rows_into(num_samples, B, rng_, d.rows);
  d.za.resize(B, config_.attr_noise_dim);
  randn_fill(d.za, rng_);
  d.zts.resize(spec_.max_len);
  for (Matrix& z : d.zts) {
    z.resize(B, config_.feat_noise_dim);
    randn_fill(z, rng_);
  }
  draw_interp_weights(B, rng_, d.eps);
  draw_interp_weights(B, rng_, d.aux_eps);
}

void DoppelGanger::draw_iteration(std::size_t num_samples, Draws& d) {
  d.critic.resize(static_cast<std::size_t>(std::max(0, config_.d_steps_per_g)));
  for (CriticDraws& c : d.critic) draw_critic_step(num_samples, c);
  draw_generator_noise(config_.batch_size, rng_, d.za, d.zts);
}

template <typename Fn>
void DoppelGanger::run_stage(Stage stage, std::size_t n, const Fn& fn) {
  const auto run = [&](const std::function<void(std::size_t)>& task) {
    if (region_ != nullptr) {
      region_->run(n, task);
    } else {
      ThreadPool::shared().parallel_for(n, task, stage_width_);
    }
  };
  if (!profile_) {
    run(fn);
    return;
  }
  // Cores in use: the stage's summed task time over its wall time.
  std::atomic<double> busy{0.0};
  Stopwatch wall;
  run([&](std::size_t k) {
    Stopwatch task;
    fn(k);
    busy.fetch_add(task.seconds(), std::memory_order_relaxed);
  });
  stage_clock_[stage].wall += wall.seconds();
  stage_clock_[stage].busy += busy.load();
}

void DoppelGanger::generator_forward(const Matrix& za,
                                     const std::vector<Matrix>& zts,
                                     GenOutput& out, std::size_t fake_batches,
                                     const std::function<void()>& beside) {
  const std::size_t T = spec_.max_len;
  const std::size_t B = za.rows();
  const std::size_t A = spec_.attribute_dim();
  const std::size_t H = rnn_->hidden_dim();
  const std::size_t step_dim = spec_.feature_dim() + kFlagDims;
  // Every buffer a slice writes is shaped here, on the calling thread.
  attr_gen_->prepare_forward(B, za.cols());
  out.attributes.resize(B, A);
  rnn_->prepare_forward(T, B);
  stacked_.resize(T * B, H);  // [T*B, H], t-major
  out_linear_->prepare_forward(T * B, H);
  out_head_->prepare_forward(T * B, step_dim);
  out.features.resize(T);
  for (Matrix& f : out.features) f.resize(B, step_dim);
  std::size_t tasks = RowSlices(B, slice_width_).count;
  for (std::size_t d = 0; d < fake_batches; ++d) {
    CriticStep& cs = critic_steps_[d];
    GenScratch& g = cs.gen;
    const Matrix& fake_za = draws_.critic[d].za;
    const std::size_t b = fake_za.rows();
    attr_gen_->prepare_forward_into(b, fake_za.cols(), g.attr);
    cs.fake_attr.resize(b, A);
    cs.xf.resize(b, A + T * step_dim);
    for (Matrix* m : {&g.h, &g.h_next, &g.gru.z, &g.gru.r, &g.gru.c,
                      &g.gru.rh, &g.proj.z, &g.proj.r, &g.proj.c}) {
      m->resize(b, H);
    }
    g.lin.resize(b, step_dim);
    g.head.resize(b, step_dim);
    tasks += RowSlices(b, slice_width_).count;
  }

  // Generator-step rows [r0, r1), with caches: every stage is row-wise, so
  // the rows match a whole-batch pass bitwise.
  const auto generator_rows = [&](std::size_t r0, std::size_t r1) {
    attr_gen_->forward_rows(za, r0, r1);
    copy_rows_into(attr_gen_->output(), out.attributes, r0, r1);
    rnn_->forward_rows(zts, out.attributes, r0, r1);
    for (std::size_t t = 0; t < T; ++t) {
      copy_rows_at(rnn_->hidden()[t], stacked_, t * B, r0, r1);
      out_linear_->forward_rows(stacked_, t * B + r0, t * B + r1);
      out_head_->forward_rows(out_linear_->output(), t * B + r0, t * B + r1);
      const Matrix& heads = out_head_->output();
      std::copy(heads.row_ptr(t * B + r0), heads.row_ptr(t * B + r1),
                out.features[t].row_ptr(r0));
    }
  };
  // The task beside the slices goes first: it is the longest one. The last
  // task shapes and packs what the generator step's backward slices need:
  // the generator's weights do not change before then, and no forward
  // slice touches those buffers.
  const std::size_t first = beside ? 1 : 0;
  run_stage(kGenForward, first + tasks + 1, [&](std::size_t k) {
    if (k < first) {
      beside();
      return;
    }
    k -= first;
    if (k == tasks) {
      out_head_->prepare_backward(true);
      out_linear_->prepare_backward(true);
      rnn_->prepare_backward();
      attr_gen_->prepare_backward(false);  // its input is noise
      return;
    }
    const RowSlices gen(B, slice_width_);
    if (k < gen.count) {
      generator_rows(gen.begin(k), gen.end(k));
      return;
    }
    k -= gen.count;
    for (std::size_t d = 0; d < fake_batches; ++d) {
      const CriticDraws& draws = draws_.critic[d];
      const RowSlices fake(draws.za.rows(), slice_width_);
      if (k < fake.count) {
        fake_batch_rows(draws, critic_steps_[d], fake.begin(k), fake.end(k));
        return;
      }
      k -= fake.count;
    }
  });
}

const Matrix& DoppelGanger::gen_step(GenScratch& s) const {
  rnn_->step_into(s.x, s.proj, s.h, s.h_next, s.gru);
  out_linear_->forward_into(s.h_next, s.lin);
  out_head_->forward_into(s.lin, s.head);
  return s.head;
}

void DoppelGanger::fake_batch_rows(const CriticDraws& d, CriticStep& cs,
                                   std::size_t r0, std::size_t r1) const {
  GenScratch& s = cs.gen;
  const std::size_t A = spec_.attribute_dim();
  const std::size_t step_dim = spec_.feature_dim() + kFlagDims;
  const Matrix& attr = attr_gen_->forward_rows_into(d.za, s.attr, r0, r1);
  copy_rows_into(attr, cs.fake_attr, r0, r1);
  // Rows laid out as disc_input_into assembles them: [attr | y_0 | y_1 ...].
  for (std::size_t i = r0; i < r1; ++i) {
    std::copy(attr.row_ptr(i), attr.row_ptr(i) + A, cs.xf.row_ptr(i));
  }
  rnn_->project_cond_rows(attr, s.proj, r0, r1);
  std::fill(s.h.row_ptr(r0), s.h.row_ptr(r1), 0.0);
  for (std::size_t t = 0; t < spec_.max_len; ++t) {
    // The hidden state alternates between s.h and s.h_next by step parity.
    const Matrix& h = t % 2 == 0 ? s.h : s.h_next;
    Matrix& h_next = t % 2 == 0 ? s.h_next : s.h;
    rnn_->step_rows_into(d.zts[t], s.proj, h, h_next, s.gru, r0, r1);
    out_linear_->forward_rows_into(h_next, s.lin, r0, r1);
    out_head_->forward_rows_into(s.lin, s.head, r0, r1);
    for (std::size_t i = r0; i < r1; ++i) {
      std::copy(s.head.row_ptr(i), s.head.row_ptr(i) + step_dim,
                cs.xf.row_ptr(i) + A + t * step_dim);
    }
  }
}

void DoppelGanger::disc_input_into(const Matrix& attr,
                                   const std::vector<Matrix>& feats,
                                   Matrix& x) const {
  std::size_t width = attr.cols();
  for (const Matrix& f : feats) width += f.cols();
  x.resize(attr.rows(), width);
  disc_input_rows(attr, feats, x, 0, attr.rows());
}

void DoppelGanger::disc_input_rows(const Matrix& attr,
                                   const std::vector<Matrix>& feats,
                                   Matrix& x, std::size_t r0,
                                   std::size_t r1) const {
  // Direct row assembly: the old concat_cols chain re-copied the growing
  // prefix for every step (O(T^2) bytes); this writes each row once.
  const std::size_t A = attr.cols();
  for (std::size_t i = r0; i < r1; ++i) {
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
  out.attributes.resize(rows.size(), data.attributes.cols());
  out.features.resize(spec_.max_len);
  for (Matrix& step : out.features) {
    step.resize(rows.size(), spec_.feature_dim() + kFlagDims);
  }
  real_batch_rows(data, rows, out, 0, rows.size());
}

void DoppelGanger::real_batch_rows(const TimeSeriesDataset& data,
                                   const std::vector<std::size_t>& rows,
                                   GenOutput& out, std::size_t r0,
                                   std::size_t r1) const {
  const std::size_t F = spec_.feature_dim();
  for (std::size_t i = r0; i < r1; ++i) {
    const double* src = data.attributes.row_ptr(rows[i]);
    std::copy(src, src + data.attributes.cols(), out.attributes.row_ptr(i));
  }
  for (std::size_t t = 0; t < spec_.max_len; ++t) {
    Matrix& step = out.features[t];
    // Dead steps must read as zero features.
    std::fill(step.row_ptr(r0), step.row_ptr(r1), 0.0);
    for (std::size_t i = r0; i < r1; ++i) {
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

// interpolate() on the blocks of a stacked critic batch: for rows i in
// [r0, r1), the real row i and the fake row batch + i give x1 at row
// 2*batch + i and x2 at row 3*batch + i, and dist[i].
void interpolate_rows(Matrix& big, std::size_t batch,
                      const std::vector<double>& eps, std::vector<double>& dist,
                      std::size_t r0, std::size_t r1) {
  const std::size_t cols = big.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    const double e1 = eps[2 * i];
    const double e2 = eps[2 * i + 1];
    const double* xr = big.row_ptr(i);
    const double* xf = big.row_ptr(batch + i);
    double* x1 = big.row_ptr(2 * batch + i);
    double* x2 = big.row_ptr(3 * batch + i);
    double d2 = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      const double r = xr[j], f = xf[j];
      x1[j] = e1 * r + (1.0 - e1) * f;
      x2[j] = e2 * r + (1.0 - e2) * f;
      const double d = x1[j] - x2[j];
      d2 += d * d;
    }
    dist[i] = std::sqrt(d2);
  }
}
}  // namespace

void DoppelGanger::iteration(const TimeSeriesDataset& data, bool predraw) {
  // Stage every draw of the iteration in the order the sequential loop made
  // them, so rng_ yields the same sequence and each stage reads fixed inputs.
  std::size_t fake_batches = 0;
  if (config_.dp) {
    for (int d = 0; d < config_.d_steps_per_g; ++d) {
      discriminator_update_dp(data, rng_);
    }
    draw_generator_noise(config_.batch_size, rng_, draws_.za, draws_.zts);
  } else {
    if (predrawn_) {
      std::swap(draws_, next_draws_);
    } else {
      draw_iteration(data.num_samples(), draws_);
    }
    // The first iteration gives the next draws their capacity, on this
    // thread, so drawing into them later allocates nothing.
    if (!warmed_) next_draws_ = draws_;
    fake_batches = draws_.critic.size();
    critic_steps_.resize(fake_batches);
  }
  predrawn_ = false;
  // Nothing below draws from rng_, so the next iteration's draws (which
  // read nothing this one computes) run as one more task of the first
  // stage, beside the generator forwards.
  predraw = predraw && !config_.dp;
  const auto draw_next = [&] { draw_iteration(data.num_samples(), next_draws_); };

  // The stages run in one region, so the helpers join once per iteration.
  ThreadPool::Region region(ThreadPool::shared(), stage_width_);
  struct Leave {
    ThreadPool::Region*& at;
    ~Leave() { at = nullptr; }
  } leave{region_ = &region};
  // The critic steps move only the critics' weights, so all three
  // generator forwards read the same generator weights and run as one stage.
  generator_forward(draws_.za, draws_.zts, fake_, fake_batches,
                    predraw ? std::function<void()>(draw_next) : nullptr);
  predrawn_ = predraw;
  for (std::size_t d = 0; d < fake_batches; ++d) {
    critic_step(data, draws_.critic[d], critic_steps_[d]);
  }
  generator_step();
}

void DoppelGanger::critic_step(const TimeSeriesDataset& data,
                               const CriticDraws& d, CriticStep& cs) {
  ws_.reset();
  const std::size_t B = d.rows.size();
  const std::size_t A = spec_.attribute_dim();
  const std::size_t W = cs.xf.cols();
  // One batched pass per critic over [real; fake; x1; x2], block q holding
  // rows q*B + i; everything the slices write is shaped here.
  real_.attributes.resize(B, A);
  real_.features.resize(spec_.max_len);
  for (Matrix& step : real_.features) {
    step.resize(B, spec_.feature_dim() + kFlagDims);
  }
  Matrix& big = ws_.get(4 * B, W);
  Matrix& abig = ws_.get(4 * B, A);
  dist_.resize(B);
  adist_.resize(B);
  disc_->prepare_forward(4 * B, W);
  aux_disc_->prepare_forward(4 * B, A);
  // The critic input is data: only the parameter gradients are read.
  disc_->prepare_backward(false);
  aux_disc_->prepare_backward(false);

  const RowSlices slices(B, slice_width_);
  run_stage(kCriticForward, slices.count, [&](std::size_t k) {
    const std::size_t r0 = slices.begin(k), r1 = slices.end(k);
    real_batch_rows(data, d.rows, real_, r0, r1);
    disc_input_rows(real_.attributes, real_.features, big, r0, r1);
    copy_rows_at(cs.xf, big, B, r0, r1);
    interpolate_rows(big, B, d.eps, dist_, r0, r1);
    copy_rows_at(real_.attributes, abig, 0, r0, r1);
    copy_rows_at(cs.fake_attr, abig, B, r0, r1);
    interpolate_rows(abig, B, d.aux_eps, adist_, r0, r1);
    for (std::size_t q = 0; q < 4; ++q) {
      disc_->forward_rows(big, q * B + r0, q * B + r1);
      aux_disc_->forward_rows(abig, q * B + r0, q * B + r1);
    }
  });

  // Loss seeds and Lipschitz terms, serially over the whole batch.
  const Matrix& scores = disc_->output();
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
  // Auxiliary critic on attributes only.
  const Matrix& ascores = aux_disc_->output();
  Matrix& gas = ws_.get(4 * B, 1);
  gas.fill(0.0);
  for (std::size_t i = 0; i < B; ++i) {
    gas(i, 0) = -inv_b * config_.aux_weight;
    gas(B + i, 0) = inv_b * config_.aux_weight;
  }
  add_lipschitz_grads(ascores, 2 * B, 3 * B, B, adist_,
                      config_.lipschitz_weight * config_.aux_weight, gas);

  run_stage(kCriticDelta, slices.count, [&](std::size_t k) {
    const std::size_t r0 = slices.begin(k), r1 = slices.end(k);
    for (std::size_t q = 0; q < 4; ++q) {
      disc_->backward_delta_rows(gs, q * B + r0, q * B + r1);
      aux_disc_->backward_delta_rows(gas, q * B + r0, q * B + r1);
    }
  });

  // The post-clip norm the guard checks is min(norm, clip) for finite
  // norms and the norm itself when non-finite (clipping is a no-op then,
  // which is exactly the signal).
  const std::size_t nd = disc_->grad_tasks();
  const double norm = update(
      discriminator_params(), *d_opt_, kCriticGrads, kCriticAdam,
      [&](std::size_t) { return 4.0 * static_cast<double>(B); },
      [&](std::size_t i, std::size_t r0, std::size_t r1) {
        if (i < nd) {
          disc_->grad_task(i, gs, r0, r1);
        } else {
          aux_disc_->grad_task(i - nd, gas, r0, r1);
        }
      });
  last_d_grad_norm_ = std::min(norm, config_.grad_clip);
}

template <typename Rows, typename Run>
double DoppelGanger::update(const std::vector<ml::Parameter*>& params,
                            ml::Adam& opt, Stage grads, Stage adam,
                            const Rows& batch_rows, const Run& run) {
  // One task per parameter gradient. A large one is cut by its own output
  // rows (never by batch rows) so it does not hold the stage up alone, and
  // the costliest tasks are claimed first.
  const auto cost = [&](std::size_t i) {
    return batch_rows(i) * static_cast<double>(params[i]->grad.size());
  };
  double total = 0.0;
  for (std::size_t i = 0; i < params.size(); ++i) total += cost(i);
  pieces_.clear();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Matrix& g = params[i]->grad;
    const double c = cost(i);
    const std::size_t most = std::max<std::size_t>(1, g.rows() / kMinSliceRows);
    const auto want = static_cast<std::size_t>(
        total > 0.0 ? 2.0 * static_cast<double>(slice_width_) * c / total
                    : 1.0);
    const std::size_t parts = std::clamp<std::size_t>(want, 1, most);
    for (std::size_t p = 0; p < parts; ++p) {
      pieces_.push_back({i, p * g.rows() / parts, (p + 1) * g.rows() / parts,
                         c / static_cast<double>(parts)});
    }
  }
  std::sort(pieces_.begin(), pieces_.end(),
            [](const ParamPiece& a, const ParamPiece& b) {
              if (a.cost != b.cost) return a.cost > b.cost;
              return a.param != b.param ? a.param < b.param
                                        : a.begin < b.begin;
            });
  // Each task zeroes its rows, then accumulates them: zero_grad() and a
  // whole-batch backward, bitwise.
  run_stage(grads, pieces_.size(), [&](std::size_t k) {
    const ParamPiece& t = pieces_[k];
    Matrix& g = params[t.param]->grad;
    std::fill(g.row_ptr(t.begin), g.row_ptr(t.end), 0.0);
    run(t.param, t.begin, t.end);
  });
  // clip_grad_norm's one serial sum, then its scaling beside Adam, a large
  // parameter in element ranges.
  const double norm = ml::grad_norm(params);
  const double scale = ml::clip_scale(norm, config_.grad_clip);
  pieces_.clear();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t n = params[i]->grad.size();
    const std::size_t parts = std::clamp<std::size_t>(
        n / kMinAdamElements, 1, slice_width_);
    for (std::size_t p = 0; p < parts; ++p) {
      pieces_.push_back({i, p * n / parts, (p + 1) * n / parts, 0.0});
    }
  }
  opt.begin_step();
  run_stage(adam, pieces_.size(), [&](std::size_t k) {
    const ParamPiece& t = pieces_[k];
    ml::scale_grad(*params[t.param], scale, t.begin, t.end);
    opt.step_param(t.param, t.begin, t.end);
  });
  return norm;
}

void DoppelGanger::discriminator_update_dp(const TimeSeriesDataset& data,
                                           Rng& rng) {
  // One reset for the whole update: xf_all / fake_ stay live through the
  // per-example loop, so the pool must not be recycled inside it (the loop
  // advances the cursors; the pool stabilizes after the first update).
  ws_.reset();
  const std::size_t B = std::min(config_.batch_size, data.num_samples());
  random_rows_into(data.num_samples(), B, rng, rows_);
  draw_generator_noise(B, rng, draws_.za, draws_.zts);
  generator_forward(draws_.za, draws_.zts, fake_, 0, nullptr);
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
  const std::size_t B = fake_.attributes.rows();
  const std::size_t T = spec_.max_len;
  const std::size_t A = spec_.attribute_dim();
  const std::size_t H = rnn_->hidden_dim();
  const std::size_t step_dim = spec_.feature_dim() + kFlagDims;
  // Everything the slices write is shaped here. The generator step reads
  // only the critics' input gradients; the next critic step zeroes their
  // parameter gradients before anything reads them.
  xf_.resize(B, A + T * step_dim);
  disc_->prepare_forward(B, xf_.cols());
  disc_->prepare_backward(true);
  aux_disc_->prepare_forward(B, A);
  aux_disc_->prepare_backward(true);
  const double inv_b = 1.0 / static_cast<double>(B);
  Matrix& gseed = ws_.get(B, 1);
  gseed.fill(-inv_b);
  Matrix& gaseed = ws_.get(B, 1);
  gaseed.fill(-config_.aux_weight * inv_b);
  // The attributes' gradient: the critic's, the aux critic's and the GRU's.
  Matrix& attr_total = ws_.get(B, A);
  Matrix& g_stacked = ws_.get(T * B, step_dim);  // [T*B, F+2], t-major
  // generator_forward prepared the generator's own modules.
  ghs_.resize(T);
  for (Matrix& g : ghs_) g.resize(B, H);

  // Everything up to the parameter gradients works on one row at a time:
  // the critic pass over the fake batch, the split of the critic's input
  // gradient into attribute and per-step pieces, the aux critic, the
  // output layer, the BPTT recurrence and the attribute MLP.
  const RowSlices slices(B, slice_width_);
  run_stage(kGenBackward, slices.count, [&](std::size_t k) {
    const std::size_t r0 = slices.begin(k), r1 = slices.end(k);
    disc_input_rows(fake_.attributes, fake_.features, xf_, r0, r1);
    disc_->forward_rows(xf_, r0, r1);
    disc_->backward_input_rows(gseed, r0, r1);
    const Matrix& gin = disc_->input_grad();
    for (std::size_t i = r0; i < r1; ++i) {
      const double* src = gin.row_ptr(i);
      std::copy(src, src + A, attr_total.row_ptr(i));
      for (std::size_t t = 0; t < T; ++t) {
        const double* seg = src + A + t * step_dim;
        std::copy(seg, seg + step_dim, g_stacked.row_ptr(t * B + i));
      }
    }
    aux_disc_->forward_rows(fake_.attributes, r0, r1);
    aux_disc_->backward_input_rows(gaseed, r0, r1);
    const Matrix& aux_in = aux_disc_->input_grad();
    for (std::size_t i = r0 * A; i < r1 * A; ++i) {
      attr_total.data()[i] += aux_in.data()[i];
    }
    for (std::size_t t = 0; t < T; ++t) {
      out_head_->backward_input_rows(g_stacked, t * B + r0, t * B + r1);
      out_linear_->backward_input_rows(out_head_->input_grad(), t * B + r0,
                                       t * B + r1);
      const Matrix& gh = out_linear_->input_grad();
      std::copy(gh.row_ptr(t * B + r0), gh.row_ptr(t * B + r1),
                ghs_[t].row_ptr(r0));
    }
    rnn_->backward_rows(ghs_, r0, r1);
    const Matrix& cond_grad = rnn_->cond_grad();
    for (std::size_t i = r0 * A; i < r1 * A; ++i) {
      attr_total.data()[i] += cond_grad.data()[i];
    }
    attr_gen_->backward_delta_rows(attr_total, r0, r1);
  });

  // Generator objective is to maximize mean D(fake): record -mean as g_loss
  // (health-guard divergence signal as well as a telemetry gauge).
  {
    const Matrix& fscores = disc_->output();
    double fake_mean = 0.0;
    for (std::size_t i = 0; i < B; ++i) fake_mean += fscores(i, 0);
    last_g_loss_ = -fake_mean * inv_b;
    TELEM_GAUGE_SET("gan.train.g_loss", last_g_loss_);
  }

  // generator_params(): the attribute MLP's, the GRU's, the output layer's.
  const std::size_t na = attr_gen_->grad_tasks();
  const std::size_t nr = ml::Gru::kGradTasks;
  const double norm = update(
      generator_params(), *g_opt_, kGenGrads, kGenAdam,
      [&](std::size_t i) {
        return static_cast<double>(i < na ? B : T * B);
      },
      [&](std::size_t i, std::size_t r0, std::size_t r1) {
        if (i < na) {
          attr_gen_->grad_task(i, attr_total, r0, r1);
        } else if (i < na + nr) {
          rnn_->grad_task(i - na, r0, r1);
        } else if (i == na + nr) {
          out_linear_->weight_grad_rows(out_head_->input_grad(), r0, r1);
        } else {
          out_linear_->bias_grad(out_head_->input_grad());
        }
      });
  last_g_grad_norm_ = std::min(norm, config_.grad_clip);
}

void DoppelGanger::fit(const TimeSeriesDataset& data) {
  fit(data, config_.iterations);
}

void DoppelGanger::fit(const TimeSeriesDataset& data, int iterations) {
  fit(data, iterations, ml::kernels::effective_threads());
}

void DoppelGanger::fit(const TimeSeriesDataset& data, int iterations,
                       std::size_t width) {
  if (data.num_samples() == 0) {
    throw std::invalid_argument("DoppelGanger::fit: empty dataset");
  }
  if (data.features.size() != spec_.max_len) {
    throw std::invalid_argument("DoppelGanger::fit: max_len mismatch");
  }
  // The fit's CPU seconds count toward train_cpu_seconds() however it ends:
  // a fit that throws TrainingDivergedError after its last rollback still
  // spent them (Fig. 4's cost axis includes seed-fallback chunks).
  struct CpuCredit {
    double& total;
    double start = thread_cpu_seconds() + ThreadPool::helper_cpu_seconds();
    double seconds() const {
      return thread_cpu_seconds() + ThreadPool::helper_cpu_seconds() - start;
    }
    ~CpuCredit() { total += seconds(); }
  } cpu_credit{train_cpu_seconds_};
  Stopwatch wall;
  profile_ = telemetry::kCompiledIn && telemetry::enabled() && iterations > 0;
  predrawn_ = false;
  for (StageClock& c : stage_clock_) c = StageClock{};
  int runs = 0;  // iterations run, rolled-back ones included
  const ml::health::HealthConfig& hc = config_.health;
  const bool guarded = hc.enabled && iterations > 0;
  // Guard work runs on the calling thread alone; with the profile on, its
  // wall time accrues to the kGuard stage.
  const auto guard_clock = [&](Stopwatch& sw) {
    if (profile_) {
      const double t = sw.seconds();
      stage_clock_[kGuard].wall += t;
      stage_clock_[kGuard].busy += t;
    }
  };
  if (guarded) {
    Stopwatch sw;
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
    guard_clock(sw);
  }
  // A model's first iteration shapes every buffer the stages reuse from then
  // on; it runs on the calling thread alone, so they come from the owner's
  // heap arena rather than each helper's. The row slices are cut for the
  // width either way.
  slice_width_ = std::max<std::size_t>(1, width);
  int attempt = 0;
  int it = 0;
  while (it < iterations) {
    stage_width_ = warmed_ ? slice_width_ : 1;
    iteration(data, it + 1 < iterations);
    warmed_ = true;
    ++runs;
    ++it;
    TELEM_COUNT("gan.train.iterations");
    if (!guarded) continue;
    Stopwatch sw;
    monitor_->maybe_inject(it);
    if (monitor_->check_due(it) || it == iterations) {
      const bool healthy = monitor_->check(it, last_d_loss_, last_g_loss_,
                                           last_d_grad_norm_,
                                           last_g_grad_norm_);
      if (healthy) {
        if (monitor_->checkpoint_due(it)) monitor_->checkpoint(it);
        guard_clock(sw);
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
      predrawn_ = false;  // the retry draws from the reseeded stream
    }
    guard_clock(sw);
  }
  const double secs = wall.seconds();
  if (profile_ && secs > 0.0) {
    TELEM_GAUGE_SET("gan.train.iters_per_sec", iterations / secs);
    publish_profile(runs, secs, cpu_credit.seconds());
  }
}

void DoppelGanger::publish_profile(int runs, double wall, double cpu) const {
  // Per stage, mean wall ms per iteration and cores in use (CPU over wall).
  // Each gauge needs its own literal name at its own call site.
  const double per_iter = 1e3 / runs;
  const auto cores = [](const StageClock& c) {
    return c.wall > 0.0 ? c.busy / c.wall : 0.0;
  };
#define NETSHARE_STAGE_GAUGES(stage, name)                             \
  TELEM_GAUGE_SET("gan.stage." name ".ms",                             \
                  stage_clock_[stage].wall * per_iter);                \
  TELEM_GAUGE_SET("gan.stage." name ".cores", cores(stage_clock_[stage]))
  NETSHARE_STAGE_GAUGES(kGenForward, "gen_forward");
  NETSHARE_STAGE_GAUGES(kCriticForward, "critic_forward");
  NETSHARE_STAGE_GAUGES(kCriticDelta, "critic_delta");
  NETSHARE_STAGE_GAUGES(kCriticGrads, "critic_grads");
  NETSHARE_STAGE_GAUGES(kCriticAdam, "critic_adam");
  NETSHARE_STAGE_GAUGES(kGenBackward, "gen_backward");
  NETSHARE_STAGE_GAUGES(kGenGrads, "gen_grads");
  NETSHARE_STAGE_GAUGES(kGenAdam, "gen_adam");
  NETSHARE_STAGE_GAUGES(kGuard, "guard");
#undef NETSHARE_STAGE_GAUGES
  // Whatever ran between the stages on the calling thread alone: draws,
  // shaping, loss seeds, clip norms and the DP critic.
  double staged = 0.0;
  for (const StageClock& c : stage_clock_) staged += c.wall;
  TELEM_GAUGE_SET("gan.stage.serial.ms", (wall - staged) * per_iter);
  TELEM_GAUGE_SET("gan.stage.iteration.ms", wall * per_iter);
  TELEM_GAUGE_SET("gan.stage.iteration.cores", cpu / wall);
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
  ml::Gru::GateRows& proj_next = scratch.proj_next;
  std::vector<std::size_t>& live = scratch.live;
  // Live rows summed over every RNN step of the call, and the steps run.
  std::size_t row_steps = 0, steps = 0;

  std::size_t done = 0;
  while (done < n) {
    const std::size_t b = std::min(config_.batch_size, n - done);
    stage_attr_noise(b, stream_seed, first_series + done, scratch);
    attr_gen_->prepare_forward_into(b, scratch.za.cols(), g.attr);
    const Matrix& attr =
        attr_gen_->forward_rows_into(scratch.za, g.attr, 0, b);
    for (std::size_t i = 0; i < b; ++i) {
      const double* asrc = attr.row_ptr(i);
      std::copy(asrc, asrc + A, out.attributes.row_ptr(done + i));
    }

    // Length-adaptive unroll: step the RNN one step at a time over the live
    // sub-batch only. Row j of g.h / g.proj belongs to series live[j];
    // a series whose alive flag drops below 0.5 is emitted with length
    // max(1, t) — the same rule the reference full unroll applies after the
    // fact — and leaves the batch. Every kernel in the step (fused GRU
    // gates, linear, MixedHead) is row-wise, so dropping dead rows never
    // changes the surviving rows' values, and the output stays bitwise
    // identical to sample_reference_into.
    rnn_->project_cond_into(attr, g.proj);
    g.h.resize(b, H);
    g.h.fill(0.0);
    live.resize(b);
    for (std::size_t i = 0; i < b; ++i) live[i] = i;

    for (std::size_t t = 0; t < T && !live.empty(); ++t) {
      const std::size_t m = live.size();
      row_steps += m;
      ++steps;
      // Gather the z_t rows. z_t is drawn lazily, only for series still
      // alive at this step: each series' stream is private and its draw
      // order fixed, so skipping the dead series' later draws never changes
      // the values live series see.
      g.x.resize(m, Z);
      for (std::size_t j = 0; j < m; ++j) {
        double* xrow = g.x.row_ptr(j);
        NoiseStream& ns = scratch.noise[live[j]];
        for (std::size_t q = 0; q < Z; ++q) xrow[q] = ns.normal();
      }
      const Matrix& y = gen_step(g);

      // Shape the compacted buffers before filling them (g.h's h_{t-1}
      // contents were consumed by gen_step above).
      std::size_t k = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (y(j, F) >= 0.5) ++k;
      }
      g.h.resize(k, H);
      for (Matrix* p : {&proj_next.z, &proj_next.r, &proj_next.c}) {
        p->resize(k, H);
      }
      std::size_t w = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t row = done + live[j];
        const double* ysrc = y.row_ptr(j);
        if (ysrc[F] >= 0.5) {
          std::copy(ysrc, ysrc + F, out.features[t].row_ptr(row));
          const double* hsrc = g.h_next.row_ptr(j);
          std::copy(hsrc, hsrc + H, g.h.row_ptr(w));
          for (const auto p : {&ml::Gru::GateRows::z, &ml::Gru::GateRows::r,
                               &ml::Gru::GateRows::c}) {
            std::copy((g.proj.*p).row_ptr(j), (g.proj.*p).row_ptr(j + 1),
                      (proj_next.*p).row_ptr(w));
          }
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
      std::swap(g.proj, proj_next);
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
  // The serial reference: one slice, on the calling thread.
  slice_width_ = stage_width_ = 1;

  std::size_t done = 0;
  while (done < n) {
    const std::size_t b = std::min(config_.batch_size, n - done);
    stage_attr_noise(b, stream_seed, first_series + done, scratch);
    std::vector<Matrix>& zts = draws_.zts;
    zts.resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      zts[t].resize(b, config_.feat_noise_dim);
    }
    for (std::size_t i = 0; i < b; ++i) {
      NoiseStream& ns = scratch.noise[i];
      for (std::size_t t = 0; t < T; ++t) {
        double* trow = zts[t].row_ptr(i);
        for (std::size_t j = 0; j < config_.feat_noise_dim; ++j) {
          trow[j] = ns.normal();
        }
      }
    }
    generator_forward(scratch.za, zts, fake_, 0, nullptr);
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
