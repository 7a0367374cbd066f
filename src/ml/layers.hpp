// Module interface and elementary layers with manual backprop.
//
// Convention: inputs/outputs are [batch, features]. Each module implements
// every pass once, as its row form (DESIGN.md §5, *Row-sliced stages*); the
// whole-batch passes are wrappers over it, defined once on Module. A row's
// value never depends on its range, so both give bitwise the same values.
// forward() caches what the backward passes need. backward() accumulates
// parameter gradients (so several passes between optimizer steps sum up,
// which WGAN critic training relies on) and returns the gradient w.r.t. its
// input (so the generator receives gradients *through* the discriminator);
// backward_input() forms only the input gradient, backward_params() only
// the parameter gradients.
//
// Buffer ownership (DESIGN.md §6): the passes return a const reference to a
// buffer owned by the module, valid until its next pass; callers that need
// the value longer copy it (`Matrix y = m.forward(x)`). After a one-iteration
// warm-up with stable shapes these calls perform no heap allocation.
//
// Layer::forward_rows_into() is the forward-only row form: the same kernels
// in the same order, but it reads only the parameters and writes only the
// caller-owned `y`, so several threads may run it on one layer at once, and
// beside a training pass on another thread (DESIGN.md §6).
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
  virtual std::vector<Parameter*> parameters() { return {}; }

  // The row form of every pass. prepare_forward(rows, cols) shapes the
  // caches and the output for a rows × cols input batch; forward_rows(x, r0,
  // r1) then fills rows [r0, r1) of the caches and of output().
  // prepare_backward(input_grad) shapes the backward buffers after the
  // forward pass; without input_grad it leaves out what only the input
  // gradient needs. backward_input_rows(g, r0, r1) fills rows [r0, r1) of
  // input_grad() and of every inner gradient; backward_delta_rows(g, r0, r1)
  // fills those rows of the inner gradients alone (what the parameter
  // gradients read; nothing for a single layer). Prepare calls run on one
  // thread; row calls of disjoint ranges may run on several threads at once,
  // each reading only its own rows of x and g.
  virtual void prepare_forward(std::size_t rows, std::size_t cols) = 0;
  virtual void forward_rows(const Matrix& x, std::size_t r0,
                            std::size_t r1) = 0;
  virtual const Matrix& output() const = 0;
  virtual void prepare_backward(bool input_grad) = 0;
  virtual void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                                   std::size_t r1) = 0;
  virtual void backward_delta_rows(const Matrix& grad_out, std::size_t r0,
                                   std::size_t r1) = 0;
  virtual const Matrix& input_grad() const = 0;
  // Once every backward row call has run: adds the parameter gradients of
  // the whole batch to each Parameter::grad.
  virtual void accumulate_grads(const Matrix& grad_out) = 0;

  // The whole-batch passes, each over the row form on [0, rows).
  const Matrix& forward(const Matrix& x);
  const Matrix& backward(const Matrix& grad_out);
  const Matrix& backward_input(const Matrix& grad_out);
  void backward_params(const Matrix& grad_out);

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }
};

// A single layer, which adds the forward-only row form:
// forward_rows_into(x, y, r0, r1) fills rows [r0, r1) of a `y` already
// shaped to x.rows() × out_cols(x.cols()) (must not alias `x`), reading only
// the parameters; forward_into(x, y) shapes `y` and runs it on every row.
class Layer : public Module {
 public:
  // Throws std::invalid_argument for an input width the layer cannot take.
  virtual std::size_t out_cols(std::size_t in_cols) const = 0;
  virtual void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                                 std::size_t r1) const = 0;
  void forward_into(const Matrix& x, Matrix& y) const {
    y.resize(x.rows(), out_cols(x.cols()));
    forward_rows_into(x, y, 0, x.rows());
  }

  void backward_delta_rows(const Matrix&, std::size_t, std::size_t) override {
  }
  void accumulate_grads(const Matrix&) override {}
};

// y = x W + b, W: [in, out], b: [1, out].
class Linear : public Layer {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng);

  std::vector<Parameter*> parameters() override { return {&w_, &b_}; }
  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return y_; }
  // With input_grad, also packs Wᵀ once for every slice's input gradient.
  void prepare_backward(bool input_grad) override;
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  const Matrix& input_grad() const override { return gx_; }
  void accumulate_grads(const Matrix& grad_out) override;
  std::size_t out_cols(std::size_t in_cols) const override;
  void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                         std::size_t r1) const override;
  // accumulate_grads in its two per-parameter halves (whole batch, the
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
class ActivationLayer : public Layer {
 public:
  explicit ActivationLayer(Activation kind, double leaky_slope = 0.2)
      : kind_(kind), slope_(leaky_slope) {}

  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return y_cache_; }
  void prepare_backward(bool input_grad) override;
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  const Matrix& input_grad() const override { return g_; }
  std::size_t out_cols(std::size_t in_cols) const override { return in_cols; }
  void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                         std::size_t r1) const override;

 private:
  bool keeps_input() const {  // the relu family's backward reads x
    return kind_ == Activation::kRelu || kind_ == Activation::kLeakyRelu;
  }

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

class MixedHead : public Layer {
 public:
  explicit MixedHead(std::vector<OutputSegment> segments);

  void prepare_forward(std::size_t rows, std::size_t cols) override;
  void forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) override;
  const Matrix& output() const override { return y_cache_; }
  void prepare_backward(bool input_grad) override;
  void backward_input_rows(const Matrix& grad_out, std::size_t r0,
                           std::size_t r1) override;
  const Matrix& input_grad() const override { return g_; }
  std::size_t out_cols(std::size_t in_cols) const override;
  void forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                         std::size_t r1) const override;

  std::size_t width() const;
  const std::vector<OutputSegment>& segments() const { return segments_; }

 private:
  void activate_rows(Matrix& y, std::size_t r0,
                     std::size_t r1) const;  // in place

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
