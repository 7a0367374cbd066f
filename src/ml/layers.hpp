// Module interface and elementary layers with manual backprop.
//
// Convention: inputs/outputs are [batch, features]. forward() caches what
// backward() needs; backward() accumulates parameter gradients (so several
// forward/backward passes between optimizer steps sum up, which WGAN critic
// training relies on) and returns the gradient w.r.t. its input (so the
// generator receives gradients *through* the discriminator).
//
// Buffer ownership (DESIGN.md §6): forward()/backward() return a const
// reference to a buffer owned by the module, valid until the module's next
// forward()/backward() call. Callers that need the value past that point
// copy it (`Matrix y = m.forward(x)`); the training hot path chains the
// references without copying. After a one-iteration warm-up with stable
// shapes these calls perform no heap allocation.
//
// forward_into() is the forward-only twin: same kernels in the same order,
// so its output is bitwise identical to forward()'s, but it reads only the
// parameters and writes only the caller-owned `y` — no caches. Several
// threads may run it on one module at once (each with its own `y`), and
// beside a forward()/backward() pair on another thread (DESIGN.md §6).
#pragma once

#include <memory>
#include <vector>

#include "ml/matrix.hpp"

namespace netshare::ml {

struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix v) : value(std::move(v)) {
    grad = Matrix::zeros(value.rows(), value.cols());
  }
  void zero_grad() { grad.fill(0.0); }
};

class Module {
 public:
  virtual ~Module() = default;
  virtual const Matrix& forward(const Matrix& x) = 0;
  virtual const Matrix& backward(const Matrix& grad_out) = 0;
  virtual std::vector<Parameter*> parameters() { return {}; }
  // Forward-only pass into caller-owned `y` (must not alias `x`). Composite
  // modules need scratch per layer and offer their own overload instead.
  virtual void forward_into(const Matrix& x, Matrix& y) const;

  // The two halves of backward(), for callers that read only one of them:
  // backward_input() returns the input gradient without accumulating
  // parameter gradients, backward_params() accumulates the parameter
  // gradients without forming the input gradient. Each computes bitwise the
  // values backward() does. The defaults run the whole backward().
  virtual const Matrix& backward_input(const Matrix& grad_out) {
    return backward(grad_out);
  }
  virtual void backward_params(const Matrix& grad_out) { backward(grad_out); }

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }
};

// y = x W + b, W: [in, out], b: [1, out].
class Linear : public Module {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng);

  const Matrix& forward(const Matrix& x) override;
  const Matrix& backward(const Matrix& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&w_, &b_}; }
  void forward_into(const Matrix& x, Matrix& y) const override;
  const Matrix& backward_input(const Matrix& grad_out) override;
  void backward_params(const Matrix& grad_out) override;

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  Parameter w_;
  Parameter b_;
  Matrix x_cache_;
  Matrix y_;             // forward output buffer
  Matrix gx_, gb_;  // backward output / bias-grad scratch
};

enum class Activation { kRelu, kLeakyRelu, kTanh, kSigmoid, kIdentity };

// Elementwise activation layer.
class ActivationLayer : public Module {
 public:
  explicit ActivationLayer(Activation kind, double leaky_slope = 0.2)
      : kind_(kind), slope_(leaky_slope) {}

  const Matrix& forward(const Matrix& x) override;
  const Matrix& backward(const Matrix& grad_out) override;
  void forward_into(const Matrix& x, Matrix& y) const override;

 private:
  void activate(Matrix& y) const;  // in place

  Activation kind_;
  double slope_;
  Matrix y_cache_;  // activations; doubles as the forward output buffer
  Matrix x_cache_;  // pre-activations (kept only for the relu family)
  Matrix g_;        // backward output buffer
};

// Stable row-wise softmax as a pure function (used by losses and MixedHead).
Matrix softmax_rows(const Matrix& logits);

// Output head for mixed records: consecutive column segments are each given
// a softmax (categorical one-hot groups), sigmoid (bounded continuous /
// generation flags), tanh, or identity. This mirrors DoppelGANger's output
// layer over metadata + measurements.
struct OutputSegment {
  enum class Kind { kSoftmax, kSigmoid, kTanh, kIdentity } kind;
  std::size_t width;
};

class MixedHead : public Module {
 public:
  explicit MixedHead(std::vector<OutputSegment> segments)
      : segments_(std::move(segments)) {}

  const Matrix& forward(const Matrix& x) override;
  const Matrix& backward(const Matrix& grad_out) override;
  void forward_into(const Matrix& x, Matrix& y) const override;

  std::size_t width() const;
  const std::vector<OutputSegment>& segments() const { return segments_; }

 private:
  void activate(Matrix& y) const;  // in place, row by row

  std::vector<OutputSegment> segments_;
  Matrix y_cache_;  // activations; doubles as the forward output buffer
  Matrix g_;        // backward output buffer
};

}  // namespace netshare::ml
