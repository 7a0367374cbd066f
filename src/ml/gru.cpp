#include "ml/gru.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "ml/kernels.hpp"

namespace netshare::ml {

Gru::Gru(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wxz_(Matrix::randn(input_dim, hidden_dim, rng,
                         std::sqrt(1.0 / static_cast<double>(input_dim)))),
      whz_(Matrix::randn(hidden_dim, hidden_dim, rng,
                         std::sqrt(1.0 / static_cast<double>(hidden_dim)))),
      bz_(Matrix::zeros(1, hidden_dim)),
      wxr_(Matrix::randn(input_dim, hidden_dim, rng,
                         std::sqrt(1.0 / static_cast<double>(input_dim)))),
      whr_(Matrix::randn(hidden_dim, hidden_dim, rng,
                         std::sqrt(1.0 / static_cast<double>(hidden_dim)))),
      br_(Matrix::zeros(1, hidden_dim)),
      wxc_(Matrix::randn(input_dim, hidden_dim, rng,
                         std::sqrt(1.0 / static_cast<double>(input_dim)))),
      whc_(Matrix::randn(hidden_dim, hidden_dim, rng,
                         std::sqrt(1.0 / static_cast<double>(hidden_dim)))),
      bc_(Matrix::zeros(1, hidden_dim)) {}

const std::vector<Matrix>& Gru::forward(const std::vector<Matrix>& xs) {
  if (xs.empty()) throw std::invalid_argument("Gru::forward: empty sequence");
  const std::size_t batch = xs[0].rows();
  const std::size_t T = xs.size();
  if (cache_.size() < T) cache_.resize(T);
  hs_.resize(T);
  steps_ = T;
  h0_.resize(batch, hidden_dim_);
  h0_.fill(0.0);
  const Matrix* h = &h0_;
  for (std::size_t t = 0; t < T; ++t) {
    const Matrix& x = xs[t];
    if (x.cols() != input_dim_) {
      throw std::invalid_argument("Gru::forward: input dim mismatch");
    }
    StepCache& s = cache_[t];
    s.x = x;
    s.h_prev = *h;
    // All four products per gate go through the blocked kernel layer via
    // the fused gate (ml/kernels.hpp): pre-activation rounding sequence is
    // identical to matmul + matmul + add + row-broadcast bias + activation.
    using kernels::GateAct;
    kernels::gru_gate_into(x, wxz_.value, *h, whz_.value, bz_.value,
                           GateAct::kSigmoid, gate_scratch_, s.z);
    kernels::gru_gate_into(x, wxr_.value, *h, whr_.value, br_.value,
                           GateAct::kSigmoid, gate_scratch_, s.r);
    hadamard_into(s.r, *h, s.rh);
    kernels::gru_gate_into(x, wxc_.value, s.rh, whc_.value, bc_.value,
                           GateAct::kTanh, gate_scratch_, s.c);
    // h_t = (1-z) ⊙ h_prev + z ⊙ c
    Matrix& h_next = hs_[t];
    h_next.resize(batch, hidden_dim_);
    for (std::size_t i = 0; i < h_next.size(); ++i) {
      h_next.data()[i] = (1.0 - s.z.data()[i]) * h->data()[i] +
                         s.z.data()[i] * s.c.data()[i];
    }
    h = &h_next;
  }
  return hs_;
}

void Gru::step_into(const Matrix& x, const Matrix& h_prev, Matrix& h_out,
                    StepScratch& s) const {
  if (x.cols() != input_dim_) {
    throw std::invalid_argument("Gru::step_into: input dim mismatch");
  }
  if (h_prev.rows() != x.rows() || h_prev.cols() != hidden_dim_) {
    throw std::invalid_argument("Gru::step_into: hidden shape mismatch");
  }
  // Mirror of one forward() iteration: same fused-gate kernels in the same
  // order, so each row matches the full unroll bitwise (s.gate is per-call
  // scratch inside gru_gate_into and carries nothing across calls).
  using kernels::GateAct;
  kernels::gru_gate_into(x, wxz_.value, h_prev, whz_.value, bz_.value,
                         GateAct::kSigmoid, s.gate, s.z);
  kernels::gru_gate_into(x, wxr_.value, h_prev, whr_.value, br_.value,
                         GateAct::kSigmoid, s.gate, s.r);
  hadamard_into(s.r, h_prev, s.rh);
  kernels::gru_gate_into(x, wxc_.value, s.rh, whc_.value, bc_.value,
                         GateAct::kTanh, s.gate, s.c);
  h_out.resize(x.rows(), hidden_dim_);
  for (std::size_t i = 0; i < h_out.size(); ++i) {
    h_out.data()[i] = (1.0 - s.z.data()[i]) * h_prev.data()[i] +
                      s.z.data()[i] * s.c.data()[i];
  }
}

const std::vector<Matrix>& Gru::backward(const std::vector<Matrix>& grad_hs) {
  const std::size_t T = steps_;
  if (grad_hs.size() != T) {
    throw std::invalid_argument("Gru::backward: grad count mismatch");
  }
  const std::size_t batch = cache_[0].x.rows();
  grad_xs_.resize(T);
  dh_carry_.resize(batch, hidden_dim_);
  dh_carry_.fill(0.0);

  // Recurrence: only the dh chain is serial. Each step's pre-activation gate
  // gradients overwrite that step's z, r, c activations once they have been
  // read, so the fan-out below finds daz, dar, dac in the caches.
  for (std::size_t ti = T; ti-- > 0;) {
    StepCache& s = cache_[ti];
    // dh = grad_hs[ti] + dh_carry, element order as Matrix::operator+.
    dh_.resize(batch, hidden_dim_);
    for (std::size_t i = 0; i < dh_.size(); ++i) {
      dh_.data()[i] = grad_hs[ti].data()[i] + dh_carry_.data()[i];
    }

    // Gate gradients through z (daz) and the candidate c (dac).
    dhp_.resize(batch, hidden_dim_);
    for (std::size_t i = 0; i < dh_.size(); ++i) {
      const double z = s.z.data()[i];
      const double c = s.c.data()[i];
      const double hp = s.h_prev.data()[i];
      const double g = dh_.data()[i];
      s.z.data()[i] = g * (c - hp) * z * (1.0 - z);
      s.c.data()[i] = g * z * (1.0 - c * c);
      dhp_.data()[i] = g * (1.0 - z);
    }

    // Candidate path: ac = x Wxc + (r ⊙ h_prev) Whc + bc.
    kernels::matmul_trans_b_into(s.c, whc_.value, drh_);
    for (std::size_t i = 0; i < drh_.size(); ++i) {
      const double r = s.r.data()[i];
      const double hp = s.h_prev.data()[i];
      s.r.data()[i] = drh_.data()[i] * hp * r * (1.0 - r);
      dhp_.data()[i] += drh_.data()[i] * r;
    }

    // Hidden-state gradient to previous step.
    kernels::matmul_trans_b_into(s.z, whz_.value, mm_);
    dhp_ += mm_;
    kernels::matmul_trans_b_into(s.r, whr_.value, mm_);
    dhp_ += mm_;
    std::swap(dh_carry_, dhp_);
  }

  // Fan-out, all outputs disjoint: one task per parameter, folding its
  // per-step products in over descending t (the accumulating kernels keep
  // the rounding sequence of the scratch-then-`grad +=` path), then the
  // per-step input gradients in contiguous step ranges, one product buffer
  // per range.
  const std::size_t width =
      std::max<std::size_t>(1, kernels::effective_threads());
  const std::size_t ranges = std::min(width, T);
  const std::size_t per_range = (T + ranges - 1) / ranges;
  // Every fan-out output is shaped here, on the calling thread, so the
  // tasks only reuse capacity and no buffer comes from a helper's heap.
  bias_sums_.resize(3);
  for (Matrix& b : bias_sums_) b.resize(1, hidden_dim_);
  if (dx_mm_.size() < ranges) dx_mm_.resize(ranges);  // never shrinks
  for (std::size_t j = 0; j < ranges; ++j) dx_mm_[j].resize(batch, input_dim_);
  for (Matrix& dx : grad_xs_) dx.resize(batch, input_dim_);
  Matrix StepCache::* const gate_grad[3] = {&StepCache::z, &StepCache::r,
                                            &StepCache::c};
  // The candidate's recurrent product reads r ⊙ h_prev, the others h_prev.
  Matrix StepCache::* const recurrent_in[3] = {
      &StepCache::h_prev, &StepCache::h_prev, &StepCache::rh};
  Parameter* const wx[3] = {&wxz_, &wxr_, &wxc_};
  Parameter* const wh[3] = {&whz_, &whr_, &whc_};
  Parameter* const bias[3] = {&bz_, &br_, &bc_};
  ThreadPool::shared().parallel_for(
      9 + ranges,
      [&](std::size_t k) {
        if (k < 9) {
          const std::size_t g = k / 3;
          for (std::size_t ti = T; ti-- > 0;) {
            const StepCache& s = cache_[ti];
            const Matrix& grad = s.*gate_grad[g];
            if (k % 3 == 0) {
              kernels::matmul_trans_a_acc_into(s.x, grad, wx[g]->grad);
            } else if (k % 3 == 1) {
              kernels::matmul_trans_a_acc_into(s.*recurrent_in[g], grad,
                                               wh[g]->grad);
            } else {
              sum_rows_into(grad, bias_sums_[g]);
              bias[g]->grad += bias_sums_[g];
            }
          }
          return;
        }
        const std::size_t j = k - 9;
        Matrix& mm = dx_mm_[j];
        for (std::size_t ti = j * per_range;
             ti < std::min(T, (j + 1) * per_range); ++ti) {
          const StepCache& s = cache_[ti];
          Matrix& dx = grad_xs_[ti];
          kernels::matmul_trans_b_into(s.z, wxz_.value, dx);
          kernels::matmul_trans_b_into(s.r, wxr_.value, mm);
          dx += mm;
          kernels::matmul_trans_b_into(s.c, wxc_.value, mm);
          dx += mm;
        }
      },
      width);
  return grad_xs_;
}

std::vector<Parameter*> Gru::parameters() {
  return {&wxz_, &whz_, &bz_, &wxr_, &whr_, &br_, &wxc_, &whc_, &bc_};
}

void Gru::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

}  // namespace netshare::ml
