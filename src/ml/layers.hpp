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

#include "ml/kernels.hpp"
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

  // Row-sliced pass (DESIGN.md §5, *Row-sliced stages*): the same values as
  // forward() / backward_input(), computed a row range at a time into
  // whole-batch buffers. prepare_forward(rows, cols) shapes the caches and the
  // output for a rows × cols input batch, and prepare_backward() the input
  // gradient (after the forward pass, before any backward slice; both on one
  // thread). forward_rows(x, r0, r1) then fills rows [r0, r1) of the caches
  // and of output(), and backward_input_rows(g, r0, r1) rows [r0, r1) of
  // input_grad(); slices of disjoint ranges may run on several threads at
  // once, each reading only its own rows of x and g. The defaults throw.
  virtual void prepare_forward(std::size_t rows, std::size_t cols);
  virtual void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1);
  virtual const Matrix& output() const;
  virtual void prepare_backward();
  virtual void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                                   std::size_t r1);
  virtual const Matrix& input_grad() const;
  // Forward-only row form: rows [r0, r1) of forward_into(x, y), into a `y`
  // already shaped to x.rows() × out_cols(x.cols()). Reads only the
  // parameters; the default throws.
  virtual std::size_t out_cols(std::size_t in_cols) const { return in_cols; }
  virtual void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                                 std::size_t r1) const;

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

  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return y_; }
  // Also packs Wᵀ once for every slice's input-gradient product.
  void prepare_backward() override;
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  const Matrix& input_grad() const override { return gx_; }
  std::size_t out_cols(std::size_t) const override {
    return w_.value.cols();
  }
  void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                         std::size_t r1) const override;
  // backward_params in its two per-parameter halves (whole batch, the
  // forward caches' rows in order): W.grad rows [r0, r1) += xᵀ·grad_out,
  // and b.grad += the column sums of grad_out.
  void weight_grad_rows(const Matrix& grad_out, std::size_t r0,
                        std::size_t r1);
  void bias_grad(const Matrix& grad_out);

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  Parameter w_;
  Parameter b_;
  Matrix x_cache_;
  Matrix y_;             // forward output buffer
  Matrix gx_, gb_;  // backward output / bias-grad scratch
  kernels::PackedTransB wt_;  // Wᵀ for the row-sliced input gradient
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

  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return y_cache_; }
  void prepare_backward() override;
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  const Matrix& input_grad() const override { return g_; }
  void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                         std::size_t r1) const override;

 private:
  bool keeps_input() const {  // the relu family's backward reads x
    return kind_ == Activation::kRelu || kind_ == Activation::kLeakyRelu;
  }
  // Rows [r0, r1) of y = act(x) and of g = grad_out ⊙ act'(.) — forward's
  // and backward's per-element sequences.
  void activate_rows(const Matrix& x, Matrix& y, std::size_t r0,
                     std::size_t r1) const;
  void gradient_rows(const Matrix& grad_out, std::size_t r0,
                     std::size_t r1);

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
  explicit MixedHead(std::vector<OutputSegment> segments);

  const Matrix& forward(const Matrix& x) override;
  const Matrix& backward(const Matrix& grad_out) override;
  void forward_into(const Matrix& x, Matrix& y) const override;

  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return y_cache_; }
  void prepare_backward() override;
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  const Matrix& input_grad() const override { return g_; }
  void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                         std::size_t r1) const override;

  std::size_t width() const;
  const std::vector<OutputSegment>& segments() const { return segments_; }

 private:
  void activate_rows(Matrix& y, std::size_t r0,
                     std::size_t r1) const;  // in place
  void gradient_rows(const Matrix& grad_out, std::size_t r0, std::size_t r1);

  // Adjacent sigmoid or tanh segments merged into one run of columns
  // [at, at + width); each softmax segment is its own run; identity and
  // empty segments have none.
  struct Run {
    OutputSegment::Kind kind;
    std::size_t at, width;
  };

  std::vector<OutputSegment> segments_;
  std::vector<Run> runs_;
  Matrix y_cache_;  // activations; doubles as the forward output buffer
  Matrix g_;        // backward output buffer
};

}  // namespace netshare::ml
