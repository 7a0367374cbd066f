#include "ml/optim.hpp"

#include <algorithm>
#include <cmath>

#include "ml/kernels.hpp"

namespace netshare::ml {

Sgd::Sgd(std::vector<Parameter*> params, double lr, double momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) {
    velocity_.push_back(Matrix::zeros(p->value.rows(), p->value.cols()));
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    if (momentum_ > 0.0) {
      velocity_[i] *= momentum_;
      velocity_[i] += p.grad;
      p.value -= lr_ * velocity_[i];
    } else {
      p.value -= lr_ * p.grad;
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Matrix::zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Matrix::zeros(p->value.rows(), p->value.cols()));
  }
}

void Adam::step() {
  begin_step();
  for (std::size_t i = 0; i < params_.size(); ++i) step_param(i);
}

void Adam::begin_step() {
  ++t_;
  bc1_ = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  bc2_ = 1.0 - std::pow(beta2_, static_cast<double>(t_));
}

void Adam::step_param(std::size_t i, std::size_t j0, std::size_t j1) {
  Parameter& p = *params_[i];
  j1 = std::min(j1, p.value.size());
  if (j1 <= j0) return;
  kernels::adam_update(p.value.data().data() + j0, p.grad.data().data() + j0,
                       m_[i].data().data() + j0, v_[i].data().data() + j0,
                       j1 - j0, {beta1_, beta2_, lr_, eps_, bc1_, bc2_});
}

double grad_norm(const std::vector<Parameter*>& params) {
  double sq = 0.0;
  for (const Parameter* p : params) {
    for (double g : p->grad.data()) sq += g * g;
  }
  return std::sqrt(sq);
}

double clip_scale(double norm, double max_norm) {
  return norm > max_norm && norm > 0.0 ? max_norm / norm : 1.0;
}

void scale_grad(Parameter& p, double scale, std::size_t j0,
                std::size_t j1) {
  if (scale == 1.0) return;
  std::vector<double>& g = p.grad.data();
  j1 = std::min(j1, g.size());
  for (std::size_t j = j0; j < j1; ++j) g[j] *= scale;
}

double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm) {
  const double norm = grad_norm(params);
  const double scale = clip_scale(norm, max_norm);
  for (Parameter* p : params) scale_grad(*p, scale);
  return norm;
}

void clip_weights(const std::vector<Parameter*>& params, double c) {
  for (Parameter* p : params) {
    for (double& w : p->value.data()) w = std::clamp(w, -c, c);
  }
}

}  // namespace netshare::ml
