#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace netshare::ml {

const Matrix& Module::forward(const Matrix& x) {
  prepare_forward(x.rows(), x.cols());
  forward_rows(x, 0, x.rows());
  return output();
}

const Matrix& Module::backward(const Matrix& grad_out) {
  backward_input(grad_out);
  accumulate_grads(grad_out);
  return input_grad();
}

const Matrix& Module::backward_input(const Matrix& grad_out) {
  prepare_backward(true);
  backward_input_rows(grad_out, 0, grad_out.rows());
  return input_grad();
}

void Module::backward_params(const Matrix& grad_out) {
  prepare_backward(false);
  backward_delta_rows(grad_out, 0, grad_out.rows());
  accumulate_grads(grad_out);
}

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : w_(Matrix::randn(in, out, rng, std::sqrt(2.0 / static_cast<double>(in)))),
      b_(Matrix::zeros(1, out)) {}

void Linear::prepare_forward(std::size_t rows, std::size_t cols) {
  y_.resize(rows, out_cols(cols));
  x_cache_.resize(rows, cols);
}

// The product reads x_cache_, not x, so a pass stays correct even if the
// caller passes this layer's own previous output.
void Linear::forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) {
  copy_rows_into(x, x_cache_, r0, r1);
  kernels::matmul_bias_rows(x_cache_, w_.value, b_.value, y_, r0, r1);
}

std::size_t Linear::out_cols(std::size_t in_cols) const {
  if (in_cols != w_.value.rows()) {
    throw std::invalid_argument("Linear: input width");
  }
  return w_.value.cols();
}

void Linear::forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                               std::size_t r1) const {
  kernels::matmul_bias_rows(x, w_.value, b_.value, y, r0, r1);
}

void Linear::prepare_backward(bool input_grad) {
  if (!input_grad) return;
  gx_.resize(x_cache_.rows(), x_cache_.cols());
  kernels::pack_trans_b(w_.value, wt_);
}

void Linear::backward_input_rows(const Matrix& grad_out, std::size_t r0,
                                 std::size_t r1) {
  kernels::matmul_trans_b_rows(grad_out, wt_, gx_, r0, r1);
}

void Linear::accumulate_grads(const Matrix& grad_out) {
  weight_grad_rows(grad_out, 0, w_.grad.rows());
  bias_grad(grad_out);
}

void Linear::weight_grad_rows(const Matrix& grad_out, std::size_t r0,
                              std::size_t r1) {
  kernels::matmul_trans_a_acc_rows(x_cache_, grad_out, w_.grad, r0, r1);
}

void Linear::bias_grad(const Matrix& grad_out) {
  sum_rows_into(grad_out, gb_);
  b_.grad += gb_;
}

void ActivationLayer::prepare_forward(std::size_t rows, std::size_t cols) {
  if (keeps_input()) x_cache_.resize(rows, cols);
  y_cache_.resize(rows, cols);
}

void ActivationLayer::forward_rows(const Matrix& x, std::size_t r0,
                                   std::size_t r1) {
  if (keeps_input()) copy_rows_into(x, x_cache_, r0, r1);
  forward_rows_into(x, y_cache_, r0, r1);
}

void ActivationLayer::forward_rows_into(const Matrix& x, Matrix& y,
                                        std::size_t r0, std::size_t r1) const {
  const std::size_t n = (r1 - r0) * x.cols();
  const double* in = x.row_ptr(r0);
  double* out = y.row_ptr(r0);
  switch (kind_) {
    case Activation::kRelu: kernels::relu_into(in, out, n); break;
    case Activation::kLeakyRelu:
      kernels::leaky_relu_into(in, out, n, slope_);
      break;
    case Activation::kTanh: kernels::tanh_into(in, out, n); break;
    case Activation::kSigmoid: kernels::sigmoid_into(in, out, n); break;
    case Activation::kIdentity: std::copy(in, in + n, out); break;
  }
}

void ActivationLayer::prepare_backward(bool input_grad) {
  if (input_grad) g_.resize(y_cache_.rows(), y_cache_.cols());
}

void ActivationLayer::backward_input_rows(const Matrix& grad_out,
                                          std::size_t r0, std::size_t r1) {
  const std::size_t n = (r1 - r0) * g_.cols();
  const double* gin = grad_out.row_ptr(r0);
  double* g = g_.row_ptr(r0);
  const double* y = y_cache_.row_ptr(r0);
  switch (kind_) {
    case Activation::kRelu:
      kernels::relu_grad_into(x_cache_.row_ptr(r0), gin, g, n);
      break;
    case Activation::kLeakyRelu:
      kernels::leaky_relu_grad_into(x_cache_.row_ptr(r0), gin, g, n, slope_);
      break;
    case Activation::kTanh: kernels::tanh_grad_into(y, gin, g, n); break;
    case Activation::kSigmoid: kernels::sigmoid_grad_into(y, gin, g, n); break;
    case Activation::kIdentity: std::copy(gin, gin + n, g); break;
  }
}

Matrix softmax_rows(const Matrix& logits) {
  Matrix y = logits;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    kernels::softmax_inplace(y.row_ptr(i), y.cols());
  }
  return y;
}

MixedHead::MixedHead(std::vector<OutputSegment> segments)
    : segments_(std::move(segments)) {
  std::size_t at = 0;
  for (const OutputSegment& seg : segments_) {
    const bool merges = !runs_.empty() && runs_.back().kind == seg.kind &&
                        runs_.back().at + runs_.back().width == at &&
                        seg.kind != OutputSegment::Kind::kSoftmax;
    if (merges) {
      runs_.back().width += seg.width;
    } else if (seg.width > 0 && seg.kind != OutputSegment::Kind::kIdentity) {
      runs_.push_back({seg.kind, at, seg.width});
    }
    at += seg.width;
  }
}

std::size_t MixedHead::width() const {
  std::size_t w = 0;
  for (const auto& s : segments_) w += s.width;
  return w;
}

std::size_t MixedHead::out_cols(std::size_t in_cols) const {
  if (in_cols != width()) {
    throw std::invalid_argument("MixedHead: width mismatch");
  }
  return in_cols;
}

void MixedHead::prepare_forward(std::size_t rows, std::size_t cols) {
  y_cache_.resize(rows, out_cols(cols));
}

void MixedHead::forward_rows(const Matrix& x, std::size_t r0,
                             std::size_t r1) {
  forward_rows_into(x, y_cache_, r0, r1);
}

void MixedHead::forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                                  std::size_t r1) const {
  copy_rows_into(x, y, r0, r1);
  activate_rows(y, r0, r1);
}

namespace {

// Elements of the on-stack scratch a run narrower than the row is gathered
// into, so one map call covers many rows.
constexpr std::size_t kHeadScratch = 1024;

// fn over columns [at, at + width) of rows [r0, r1) of y, in place: one call
// when the run spans the row, else through the scratch.
void map_run(void (*fn)(const double*, double*, std::size_t), Matrix& y,
             std::size_t at, std::size_t width, std::size_t r0,
             std::size_t r1) {
  const std::size_t W = y.cols();
  if (width == W) {
    double* v = y.row_ptr(r0);
    fn(v, v, (r1 - r0) * W);
    return;
  }
  if (width > kHeadScratch) {
    for (std::size_t i = r0; i < r1; ++i) {
      fn(y.row_ptr(i) + at, y.row_ptr(i) + at, width);
    }
    return;
  }
  double buf[kHeadScratch];
  const std::size_t rows = kHeadScratch / width;
  for (std::size_t i0 = r0; i0 < r1; i0 += rows) {
    const std::size_t i1 = std::min(r1, i0 + rows);
    for (std::size_t i = i0; i < i1; ++i) {
      std::copy_n(y.row_ptr(i) + at, width, buf + (i - i0) * width);
    }
    fn(buf, buf, (i1 - i0) * width);
    for (std::size_t i = i0; i < i1; ++i) {
      std::copy_n(buf + (i - i0) * width, width, y.row_ptr(i) + at);
    }
  }
}

}  // namespace

// Run by run over the whole row block. A softmax segment shifts each row by
// its max, exponentiates the block in one call, then sums and divides per
// row: kernels::softmax_inplace's per-element sequence.
void MixedHead::activate_rows(Matrix& y, std::size_t r0,
                              std::size_t r1) const {
  for (const Run& run : runs_) {
    switch (run.kind) {
      case OutputSegment::Kind::kSoftmax:
        for (std::size_t i = r0; i < r1; ++i) {
          double* v = y.row_ptr(i) + run.at;
          const double mx = *std::max_element(v, v + run.width);
          for (std::size_t j = 0; j < run.width; ++j) v[j] -= mx;
        }
        map_run(kernels::exp_into, y, run.at, run.width, r0, r1);
        for (std::size_t i = r0; i < r1; ++i) {
          double* v = y.row_ptr(i) + run.at;
          double sum = 0.0;
          for (std::size_t j = 0; j < run.width; ++j) sum += v[j];
          for (std::size_t j = 0; j < run.width; ++j) v[j] /= sum;
        }
        break;
      case OutputSegment::Kind::kSigmoid:
        map_run(kernels::sigmoid_into, y, run.at, run.width, r0, r1);
        break;
      case OutputSegment::Kind::kTanh:
        map_run(kernels::tanh_into, y, run.at, run.width, r0, r1);
        break;
      case OutputSegment::Kind::kIdentity:
        break;
    }
  }
}

void MixedHead::prepare_backward(bool input_grad) {
  if (input_grad) g_.resize(y_cache_.rows(), y_cache_.cols());
}

void MixedHead::backward_input_rows(const Matrix& grad_out, std::size_t r0,
                                    std::size_t r1) {
  copy_rows_into(grad_out, g_, r0, r1);
  for (std::size_t i = r0; i < r1; ++i) {
    double* grow = g_.row_ptr(i);
    const double* yrow = y_cache_.row_ptr(i);
    for (const Run& run : runs_) {
      double* g = grow + run.at;
      const double* y = yrow + run.at;
      switch (run.kind) {
        case OutputSegment::Kind::kSoftmax: {
          // Jacobian-vector product: g_j = y_j * (g_j - sum_k g_k y_k).
          double dot = 0.0;
          for (std::size_t j = 0; j < run.width; ++j) dot += g[j] * y[j];
          for (std::size_t j = 0; j < run.width; ++j) {
            g[j] = y[j] * (g[j] - dot);
          }
          break;
        }
        case OutputSegment::Kind::kSigmoid:
          kernels::sigmoid_grad_into(y, g, g, run.width);
          break;
        case OutputSegment::Kind::kTanh:
          kernels::tanh_grad_into(y, g, g, run.width);
          break;
        case OutputSegment::Kind::kIdentity:
          break;
      }
    }
  }
}

}  // namespace netshare::ml
