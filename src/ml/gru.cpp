#include "ml/gru.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "ml/kernels.hpp"

namespace netshare::ml {

namespace {
// Weights drawn N(0, 1/rows).
Matrix init_weight(std::size_t rows, std::size_t cols, Rng& rng) {
  return Matrix::randn(rows, cols, rng,
                       std::sqrt(1.0 / static_cast<double>(rows)));
}
}  // namespace

Gru::Gru(std::size_t step_dim, std::size_t cond_dim, std::size_t hidden_dim,
         Rng& rng)
    : step_dim_(step_dim),
      cond_dim_(cond_dim),
      hidden_dim_(hidden_dim),
      wxz_(init_weight(step_dim + cond_dim, hidden_dim, rng)),
      whz_(init_weight(hidden_dim, hidden_dim, rng)),
      bz_(Matrix::zeros(1, hidden_dim)),
      wxr_(init_weight(step_dim + cond_dim, hidden_dim, rng)),
      whr_(init_weight(hidden_dim, hidden_dim, rng)),
      br_(Matrix::zeros(1, hidden_dim)),
      wxc_(init_weight(step_dim + cond_dim, hidden_dim, rng)),
      whc_(init_weight(hidden_dim, hidden_dim, rng)),
      bc_(Matrix::zeros(1, hidden_dim)) {}

const std::vector<Matrix>& Gru::forward(const std::vector<Matrix>& xs,
                                        const Matrix& cond) {
  if (xs.empty()) throw std::invalid_argument("Gru::forward: empty sequence");
  prepare_forward(xs.size(), xs[0].rows());
  forward_rows(xs, cond, 0, xs[0].rows());
  return hs_;
}

void Gru::prepare_forward(std::size_t T, std::size_t batch) {
  if (T == 0) throw std::invalid_argument("Gru::forward: empty sequence");
  if (cache_.size() < T) cache_.resize(T);
  hs_.resize(T);
  steps_ = T;
  for (std::size_t t = 0; t < T; ++t) {
    StepCache& s = cache_[t];
    s.x.resize(batch, step_dim_);
    for (Matrix* m : {&s.h_prev, &s.z, &s.r, &s.c, &s.rh, &hs_[t]}) {
      m->resize(batch, hidden_dim_);
    }
  }
  cond_.resize(batch, cond_dim_);
  for (Matrix* m : {&proj_.z, &proj_.r, &proj_.c, &gate_scratch_}) {
    m->resize(batch, hidden_dim_);
  }
}

void Gru::forward_rows(const std::vector<Matrix>& xs, const Matrix& cond,
                       std::size_t r0, std::size_t r1) {
  if (xs.size() != steps_) {
    throw std::invalid_argument("Gru::forward: sequence length mismatch");
  }
  if (cond.cols() != cond_dim_ || cond.rows() != cond_.rows()) {
    throw std::invalid_argument("Gru::forward: cond shape mismatch");
  }
  copy_rows_into(cond, cond_, r0, r1);
  project_cond_rows(cond_, proj_, r0, r1);
  for (std::size_t t = 0; t < steps_; ++t) {
    if (xs[t].cols() != step_dim_) {
      throw std::invalid_argument("Gru::forward: input dim mismatch");
    }
    StepCache& s = cache_[t];
    copy_rows_into(xs[t], s.x, r0, r1);
    if (t == 0) {  // the hidden state starts at zero
      std::fill(s.h_prev.row_ptr(r0), s.h_prev.row_ptr(r1), 0.0);
    } else {
      copy_rows_into(hs_[t - 1], s.h_prev, r0, r1);
    }
    step_rows(s.x, proj_, s.h_prev, hs_[t], s.z, s.r, s.c, s.rh,
              gate_scratch_, r0, r1);
  }
}

void Gru::project_cond_into(const Matrix& cond, GateRows& p) const {
  for (Matrix* m : {&p.z, &p.r, &p.c}) m->resize(cond.rows(), hidden_dim_);
  project_cond_rows(cond, p, 0, cond.rows());
}

void Gru::project_cond_rows(const Matrix& cond, GateRows& p, std::size_t r0,
                            std::size_t r1) const {
  if (cond.cols() != cond_dim_) {
    throw std::invalid_argument("Gru: cond dim mismatch");
  }
  // With cond_dim = 0 the projections are zeros: the plain GRU's gates.
  kernels::matmul_rows(cond, wxz_.value, step_dim_, p.z, r0, r1);
  kernels::matmul_rows(cond, wxr_.value, step_dim_, p.r, r0, r1);
  kernels::matmul_rows(cond, wxc_.value, step_dim_, p.c, r0, r1);
}

void Gru::step_rows(const Matrix& x, const GateRows& p, const Matrix& h_prev,
                    Matrix& h_out, Matrix& z, Matrix& r, Matrix& c,
                    Matrix& rh, Matrix& gate, std::size_t r0,
                    std::size_t r1) const {
  // All four products per gate go through the fused gate kernel
  // (ml/kernels.hpp), its x·Wx chain continuing from the cond projection:
  // the rounding sequence of the unfused gate on [cond | x_t] against Wx's
  // rows taken cond-first.
  using kernels::GateAct;
  kernels::gru_gate_rows(x, wxz_.value, h_prev, whz_.value, bz_.value,
                         GateAct::kSigmoid, gate, z, r0, r1, &p.z);
  kernels::gru_gate_rows(x, wxr_.value, h_prev, whr_.value, br_.value,
                         GateAct::kSigmoid, gate, r, r0, r1, &p.r);
  const std::size_t H = hidden_dim_;
  for (std::size_t i = r0 * H; i < r1 * H; ++i) {
    rh.data()[i] = r.data()[i] * h_prev.data()[i];
  }
  kernels::gru_gate_rows(x, wxc_.value, rh, whc_.value, bc_.value,
                         GateAct::kTanh, gate, c, r0, r1, &p.c);
  // h_t = (1-z) ⊙ h_prev + z ⊙ c
  for (std::size_t i = r0 * H; i < r1 * H; ++i) {
    h_out.data()[i] = (1.0 - z.data()[i]) * h_prev.data()[i] +
                      z.data()[i] * c.data()[i];
  }
}

void Gru::step_into(const Matrix& x, const GateRows& p, const Matrix& h_prev,
                    Matrix& h_out, StepScratch& s) const {
  if (x.cols() != step_dim_) {
    throw std::invalid_argument("Gru::step_into: input dim mismatch");
  }
  if (h_prev.rows() != x.rows() || h_prev.cols() != hidden_dim_) {
    throw std::invalid_argument("Gru::step_into: hidden shape mismatch");
  }
  for (Matrix* m : {&s.z, &s.r, &s.c, &s.rh, &s.gate, &h_out}) {
    m->resize(x.rows(), hidden_dim_);
  }
  step_rows(x, p, h_prev, h_out, s.z, s.r, s.c, s.rh, s.gate, 0, x.rows());
}

void Gru::step_rows_into(const Matrix& x, const GateRows& p,
                         const Matrix& h_prev, Matrix& h_out, StepScratch& s,
                         std::size_t r0, std::size_t r1) const {
  step_rows(x, p, h_prev, h_out, s.z, s.r, s.c, s.rh, s.gate, r0, r1);
}

const Matrix& Gru::backward(const std::vector<Matrix>& grad_hs) {
  prepare_backward();
  backward_rows(grad_hs, 0, cond_.rows());
  const std::size_t rows[3] = {step_dim_ + cond_dim_, hidden_dim_, 1};
  for (std::size_t k = 0; k < kGradTasks; ++k) grad_task(k, 0, rows[k % 3]);
  return cond_grad_;
}

void Gru::prepare_backward() {
  const std::size_t batch = cond_.rows();
  for (Matrix* m : {&dhb_[0], &dhb_[1], &drh_, &mm_, &sums_.z, &sums_.r,
                    &sums_.c}) {
    m->resize(batch, hidden_dim_);
  }
  cond_grad_.resize(batch, cond_dim_);
  cond_mm_.resize(batch, cond_dim_);
  bias_sums_.resize(3);
  for (Matrix& b : bias_sums_) b.resize(1, hidden_dim_);
  kernels::pack_trans_b(whz_.value, whz_t_);
  kernels::pack_trans_b(whr_.value, whr_t_);
  kernels::pack_trans_b(whc_.value, whc_t_);
  const std::size_t in = step_dim_ + cond_dim_;
  kernels::pack_trans_b(wxz_.value, step_dim_, in, wxz_t_);
  kernels::pack_trans_b(wxr_.value, step_dim_, in, wxr_t_);
  kernels::pack_trans_b(wxc_.value, step_dim_, in, wxc_t_);
}

void Gru::backward_rows(const std::vector<Matrix>& grad_hs, std::size_t r0,
                        std::size_t r1) {
  const std::size_t T = steps_;
  if (grad_hs.size() != T) {
    throw std::invalid_argument("Gru::backward: grad count mismatch");
  }
  const std::size_t H = hidden_dim_;
  const std::size_t i0 = r0 * H, i1 = r1 * H;
  const auto zero_rows = [&](Matrix& m) {
    std::fill(m.data().begin() + static_cast<std::ptrdiff_t>(i0),
              m.data().begin() + static_cast<std::ptrdiff_t>(i1), 0.0);
  };
  // dh flows from step ti's dhb_[ti % 2] to step ti-1's through
  // dhb_[(ti + 1) % 2]; nothing flows into the last step.
  zero_rows(dhb_[(T - 1) % 2]);
  for (Matrix* m : {&sums_.z, &sums_.r, &sums_.c}) zero_rows(*m);
  // Each step's pre-activation gate gradients overwrite its z, r, c
  // activations once they have been read, so the parameter tasks find daz,
  // dar, dac in the caches.
  for (std::size_t ti = T; ti-- > 0;) {
    StepCache& s = cache_[ti];
    const double* carry = dhb_[ti % 2].data().data();
    double* dhp = dhb_[(ti + 1) % 2].data().data();
    const double* gh = grad_hs[ti].data().data();
    // Gate gradients through z (daz) and the candidate c (dac), from
    // dh = grad_hs[ti] + dh_carry.
    for (std::size_t i = i0; i < i1; ++i) {
      const double g = gh[i] + carry[i];
      const double z = s.z.data()[i];
      const double c = s.c.data()[i];
      const double hp = s.h_prev.data()[i];
      s.z.data()[i] = g * (c - hp) * z * (1.0 - z);
      s.c.data()[i] = g * z * (1.0 - c * c);
      dhp[i] = g * (1.0 - z);
    }

    // Candidate path: ac = x Wxc + (r ⊙ h_prev) Whc + bc.
    kernels::matmul_trans_b_rows(s.c, whc_t_, drh_, r0, r1);
    for (std::size_t i = i0; i < i1; ++i) {
      const double r = s.r.data()[i];
      const double hp = s.h_prev.data()[i];
      s.r.data()[i] = drh_.data()[i] * hp * r * (1.0 - r);
      dhp[i] += drh_.data()[i] * r;
    }

    // Hidden-state gradient to the previous step.
    kernels::matmul_trans_b_rows(s.z, whz_t_, mm_, r0, r1);
    for (std::size_t i = i0; i < i1; ++i) dhp[i] += mm_.data()[i];
    kernels::matmul_trans_b_rows(s.r, whr_t_, mm_, r0, r1);
    for (std::size_t i = i0; i < i1; ++i) dhp[i] += mm_.data()[i];

    // cond reaches every step's gates the same way, so only the gate
    // gradients' sums over t are kept for it.
    for (std::size_t i = i0; i < i1; ++i) {
      sums_.z.data()[i] += s.z.data()[i];
      sums_.r.data()[i] += s.r.data()[i];
      sums_.c.data()[i] += s.c.data()[i];
    }
  }
  // cond_grad = S_z Wxz_condᵀ + S_r Wxr_condᵀ + S_c Wxc_condᵀ, summed in
  // that order.
  kernels::matmul_trans_b_rows(sums_.z, wxz_t_, cond_grad_, r0, r1);
  for (const auto& [sum, pack] : {std::pair{&sums_.r, &wxr_t_},
                                  std::pair{&sums_.c, &wxc_t_}}) {
    kernels::matmul_trans_b_rows(*sum, *pack, cond_mm_, r0, r1);
    for (std::size_t i = r0 * cond_dim_; i < r1 * cond_dim_; ++i) {
      cond_grad_.data()[i] += cond_mm_.data()[i];
    }
  }
}

void Gru::grad_task(std::size_t k, std::size_t r0, std::size_t r1) {
  // One parameter, folding its per-step products in over descending t (the
  // accumulating kernel keeps the rounding sequence of the
  // scratch-then-`grad +=` path).
  Matrix StepCache::* const gate_grad[3] = {&StepCache::z, &StepCache::r,
                                            &StepCache::c};
  // The candidate's recurrent product reads r ⊙ h_prev, the others h_prev.
  Matrix StepCache::* const recurrent_in[3] = {
      &StepCache::h_prev, &StepCache::h_prev, &StepCache::rh};
  Parameter* const wx[3] = {&wxz_, &wxr_, &wxc_};
  Parameter* const wh[3] = {&whz_, &whr_, &whc_};
  Parameter* const bias[3] = {&bz_, &br_, &bc_};
  const Matrix* const sums[3] = {&sums_.z, &sums_.r, &sums_.c};
  const std::size_t g = k / 3;
  if (r1 <= r0) return;
  if (k % 3 == 0) {
    // Wx's step rows take one product per step, its cond rows one product
    // against the gate gradients summed over t.
    const std::size_t s1 = std::min(r1, step_dim_);
    for (std::size_t ti = steps_; r0 < s1 && ti-- > 0;) {
      const StepCache& s = cache_[ti];
      kernels::matmul_trans_a_acc_rows(s.x, s.*gate_grad[g], wx[g]->grad, r0,
                                       s1);
    }
    if (r1 > step_dim_) {
      kernels::matmul_trans_a_acc_rows(cond_, *sums[g], wx[g]->grad,
                                       std::max(r0, step_dim_) - step_dim_,
                                       r1 - step_dim_, step_dim_);
    }
    return;
  }
  for (std::size_t ti = steps_; ti-- > 0;) {
    const StepCache& s = cache_[ti];
    const Matrix& grad = s.*gate_grad[g];
    if (k % 3 == 1) {
      kernels::matmul_trans_a_acc_rows(s.*recurrent_in[g], grad, wh[g]->grad,
                                       r0, r1);
    } else {
      sum_rows_into(grad, bias_sums_[g]);
      bias[g]->grad += bias_sums_[g];
    }
  }
}

std::vector<Parameter*> Gru::parameters() {
  return {&wxz_, &whz_, &bz_, &wxr_, &whr_, &br_, &wxc_, &whc_, &bc_};
}

void Gru::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

}  // namespace netshare::ml
