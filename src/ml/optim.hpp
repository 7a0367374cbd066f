// Optimizers and gradient utilities.
#pragma once

#include <vector>

#include "ml/layers.hpp"

namespace netshare::ml {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  // Applies one update from the accumulated gradients (does not zero them).
  virtual void step() = 0;

  void zero_grad() {
    for (Parameter* p : params_) p->zero_grad();
  }
  const std::vector<Parameter*>& params() const { return params_; }

 protected:
  std::vector<Parameter*> params_;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, double lr, double momentum = 0.0);
  void step() override;

 private:
  double lr_;
  double momentum_;
  std::vector<Matrix> velocity_;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, double lr = 1e-3, double beta1 = 0.5,
       double beta2 = 0.999, double eps = 1e-8);
  void step() override;

  // step() split per parameter: begin_step() advances the step counter
  // once, then step_param(i, j0, j1) updates elements [j0, j1) of parameter
  // i alone (all of it by default), so disjoint pieces may run as tasks on
  // several threads at once. begin_step() followed by every piece of every
  // parameter is step(), bitwise: each element's update reads only itself.
  void begin_step();
  void step_param(std::size_t i, std::size_t j0 = 0,
                  std::size_t j1 = static_cast<std::size_t>(-1));

  void set_lr(double lr) { lr_ = lr; }

  // Zeroes the moment estimates and the step counter. Used by the
  // rollback-and-retry recovery (ml/health.hpp): after NaN gradients the
  // moments are poisoned, so restoring parameters alone would re-diverge.
  void reset_state() {
    t_ = 0;
    for (Matrix& m : m_) m.fill(0.0);
    for (Matrix& v : v_) v.fill(0.0);
  }

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  double bc1_ = 1.0, bc2_ = 1.0;  // bias corrections of step t_
  std::vector<Matrix> m_, v_;
};

// Global-norm gradient clipping across all parameters; returns the pre-clip
// norm. No-op if the norm is already <= max_norm.
double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm);

// clip_grad_norm in two halves, for callers that scale each parameter in its
// own task: grad_norm is the one serial sum over params in order, and
// clip_scale the factor clip_grad_norm multiplies every gradient by (1.0
// when it leaves them alone). scale_grad(p, clip_scale(...)) per parameter
// is clip_grad_norm, bitwise.
double grad_norm(const std::vector<Parameter*>& params);
double clip_scale(double norm, double max_norm);
// Scales gradient elements [j0, j1) of p (all of them by default).
void scale_grad(Parameter& p, double scale, std::size_t j0 = 0,
                std::size_t j1 = static_cast<std::size_t>(-1));

// Weight clipping to [-c, c] (original WGAN; used by the Flow-WGAN baseline).
void clip_weights(const std::vector<Parameter*>& params, double c);

}  // namespace netshare::ml
