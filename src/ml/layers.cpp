#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace netshare::ml {

void Module::forward_into(const Matrix&, Matrix&) const {
  throw std::logic_error("Module::forward_into: no forward-only path");
}

void Module::prepare_forward(std::size_t, std::size_t) {
  throw std::logic_error("Module: no row-sliced path");
}
void Module::forward_rows(const Matrix&, std::size_t, std::size_t) {
  throw std::logic_error("Module: no row-sliced path");
}
const Matrix& Module::output() const {
  throw std::logic_error("Module: no row-sliced path");
}
void Module::prepare_backward() {
  throw std::logic_error("Module: no row-sliced path");
}
void Module::backward_input_rows(const Matrix&, std::size_t, std::size_t) {
  throw std::logic_error("Module: no row-sliced path");
}
const Matrix& Module::input_grad() const {
  throw std::logic_error("Module: no row-sliced path");
}
void Module::forward_rows_into(const Matrix&, Matrix&, std::size_t,
                               std::size_t) const {
  throw std::logic_error("Module: no row-sliced path");
}


Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : w_(Matrix::randn(in, out, rng, std::sqrt(2.0 / static_cast<double>(in)))),
      b_(Matrix::zeros(1, out)) {}

const Matrix& Linear::forward(const Matrix& x) {
  x_cache_ = x;
  // The fused kernel writes product + broadcast bias in one pass (same
  // rounding sequence as matmul_into then add_row_broadcast_inplace). The
  // matmul reads x_cache_, not x, so the call stays correct even if the
  // caller passes this layer's own previous output.
  kernels::matmul_bias_into(x_cache_, w_.value, b_.value, y_);
  return y_;
}

void Linear::forward_into(const Matrix& x, Matrix& y) const {
  kernels::matmul_bias_into(x, w_.value, b_.value, y);
}

const Matrix& Linear::backward(const Matrix& grad_out) {
  backward_params(grad_out);
  return backward_input(grad_out);
}

void Linear::backward_params(const Matrix& grad_out) {
  // The accumulating kernel keeps the gradient rounding sequence of the
  // scratch-then-`grad += product` path it replaces.
  kernels::matmul_trans_a_acc_into(x_cache_, grad_out, w_.grad);
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

const Matrix& Linear::backward_input(const Matrix& grad_out) {
  kernels::matmul_trans_b_into(grad_out, w_.value, gx_);
  return gx_;
}

void Linear::prepare_forward(std::size_t rows, std::size_t cols) {
  if (cols != w_.value.rows()) {
    throw std::invalid_argument("Linear::prepare_forward: input width");
  }
  x_cache_.resize(rows, cols);
  y_.resize(rows, w_.value.cols());
}

void Linear::forward_rows(const Matrix& x, std::size_t r0, std::size_t r1) {
  copy_rows_into(x, x_cache_, r0, r1);
  kernels::matmul_bias_rows(x_cache_, w_.value, b_.value, y_, r0, r1);
}

void Linear::forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                               std::size_t r1) const {
  kernels::matmul_bias_rows(x, w_.value, b_.value, y, r0, r1);
}

void Linear::prepare_backward() {
  gx_.resize(x_cache_.rows(), x_cache_.cols());
  kernels::pack_trans_b(w_.value, wt_);
}

void Linear::backward_input_rows(const Matrix& grad_out, std::size_t r0,
                                 std::size_t r1) {
  kernels::matmul_trans_b_rows(grad_out, wt_, gx_, r0, r1);
}

const Matrix& ActivationLayer::forward(const Matrix& x) {
  if (keeps_input()) x_cache_ = x;
  y_cache_.resize(x.rows(), x.cols());
  activate_rows(x, y_cache_, 0, x.rows());
  return y_cache_;
}

void ActivationLayer::forward_into(const Matrix& x, Matrix& y) const {
  y.resize(x.rows(), x.cols());
  activate_rows(x, y, 0, x.rows());
}

void ActivationLayer::activate_rows(const Matrix& x, Matrix& y,
                                    std::size_t r0, std::size_t r1) const {
  const std::size_t n = (r1 - r0) * x.cols();
  const double* in = x.row_ptr(0) + r0 * x.cols();
  double* out = y.row_ptr(0) + r0 * y.cols();
  switch (kind_) {
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0.0;
      break;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = in[i] > 0 ? in[i] : slope_ * in[i];
      }
      break;
    case Activation::kTanh:
      kernels::tanh_into(in, out, n);
      break;
    case Activation::kSigmoid:
      kernels::sigmoid_into(in, out, n);
      break;
    case Activation::kIdentity:
      std::copy(in, in + n, out);
      break;
  }
}

const Matrix& ActivationLayer::backward(const Matrix& grad_out) {
  g_.resize(grad_out.rows(), grad_out.cols());
  gradient_rows(grad_out, 0, grad_out.rows());
  return g_;
}

void ActivationLayer::gradient_rows(const Matrix& grad_out, std::size_t r0,
                                    std::size_t r1) {
  const std::size_t at = r0 * g_.cols();
  const std::size_t n = (r1 - r0) * g_.cols();
  const double* gin = grad_out.row_ptr(0) + at;
  double* g = g_.row_ptr(0) + at;
  std::copy(gin, gin + n, g);
  const double* x = keeps_input() ? x_cache_.row_ptr(0) + at : nullptr;
  const double* y = y_cache_.row_ptr(0) + at;
  switch (kind_) {
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) {
        if (x[i] <= 0) g[i] = 0.0;
      }
      break;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < n; ++i) {
        if (x[i] <= 0) g[i] *= slope_;
      }
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) g[i] *= 1.0 - y[i] * y[i];
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) g[i] *= y[i] * (1.0 - y[i]);
      break;
    case Activation::kIdentity:
      break;
  }
}

void ActivationLayer::prepare_forward(std::size_t rows, std::size_t cols) {
  if (keeps_input()) x_cache_.resize(rows, cols);
  y_cache_.resize(rows, cols);
}

void ActivationLayer::forward_rows(const Matrix& x, std::size_t r0,
                                   std::size_t r1) {
  if (keeps_input()) copy_rows_into(x, x_cache_, r0, r1);
  activate_rows(x, y_cache_, r0, r1);
}

void ActivationLayer::forward_rows_into(const Matrix& x, Matrix& y,
                                        std::size_t r0, std::size_t r1) const {
  activate_rows(x, y, r0, r1);
}

void ActivationLayer::prepare_backward() {
  g_.resize(y_cache_.rows(), y_cache_.cols());
}

void ActivationLayer::backward_input_rows(const Matrix& grad_out,
                                          std::size_t r0, std::size_t r1) {
  gradient_rows(grad_out, r0, r1);
}

Matrix softmax_rows(const Matrix& logits) {
  Matrix y = logits;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    kernels::softmax_inplace(y.row_ptr(i), y.cols());
  }
  return y;
}

std::size_t MixedHead::width() const {
  std::size_t w = 0;
  for (const auto& s : segments_) w += s.width;
  return w;
}

const Matrix& MixedHead::forward(const Matrix& x) {
  if (x.cols() != width()) {
    throw std::invalid_argument("MixedHead::forward: width mismatch");
  }
  y_cache_ = x;
  activate_rows(y_cache_, 0, y_cache_.rows());
  return y_cache_;
}

void MixedHead::forward_into(const Matrix& x, Matrix& y) const {
  if (x.cols() != width()) {
    throw std::invalid_argument("MixedHead::forward_into: width mismatch");
  }
  y = x;
  activate_rows(y, 0, y.rows());
}

void MixedHead::prepare_forward(std::size_t rows, std::size_t cols) {
  if (cols != width()) {
    throw std::invalid_argument("MixedHead::prepare_forward: width mismatch");
  }
  y_cache_.resize(rows, cols);
}

void MixedHead::forward_rows(const Matrix& x, std::size_t r0,
                             std::size_t r1) {
  copy_rows_into(x, y_cache_, r0, r1);
  activate_rows(y_cache_, r0, r1);
}

void MixedHead::forward_rows_into(const Matrix& x, Matrix& y, std::size_t r0,
                                  std::size_t r1) const {
  copy_rows_into(x, y, r0, r1);
  activate_rows(y, r0, r1);
}

void MixedHead::activate_rows(Matrix& y, std::size_t r0,
                              std::size_t r1) const {
  for (std::size_t i = r0; i < r1; ++i) {
    double* row = y.row_ptr(i);
    std::size_t at = 0;
    for (const auto& seg : segments_) {
      double* v = row + at;
      switch (seg.kind) {
        case OutputSegment::Kind::kSoftmax:
          kernels::softmax_inplace(v, seg.width);
          break;
        case OutputSegment::Kind::kSigmoid:
          kernels::sigmoid_into(v, v, seg.width);
          break;
        case OutputSegment::Kind::kTanh:
          kernels::tanh_into(v, v, seg.width);
          break;
        case OutputSegment::Kind::kIdentity:
          break;
      }
      at += seg.width;
    }
  }
}

const Matrix& MixedHead::backward(const Matrix& grad_out) {
  g_.resize(grad_out.rows(), grad_out.cols());
  gradient_rows(grad_out, 0, grad_out.rows());
  return g_;
}

void MixedHead::prepare_backward() {
  g_.resize(y_cache_.rows(), y_cache_.cols());
}

void MixedHead::backward_input_rows(const Matrix& grad_out, std::size_t r0,
                                    std::size_t r1) {
  gradient_rows(grad_out, r0, r1);
}

void MixedHead::gradient_rows(const Matrix& grad_out, std::size_t r0,
                              std::size_t r1) {
  copy_rows_into(grad_out, g_, r0, r1);
  for (std::size_t i = r0; i < r1; ++i) {
    double* grow = g_.row_ptr(i);
    const double* yrow = y_cache_.row_ptr(i);
    std::size_t at = 0;
    for (const auto& seg : segments_) {
      switch (seg.kind) {
        case OutputSegment::Kind::kSoftmax: {
          // Jacobian-vector product: g_j = y_j * (g_j - sum_k g_k y_k).
          double dot = 0.0;
          for (std::size_t j = 0; j < seg.width; ++j) {
            dot += grow[at + j] * yrow[at + j];
          }
          for (std::size_t j = 0; j < seg.width; ++j) {
            grow[at + j] = yrow[at + j] * (grow[at + j] - dot);
          }
          break;
        }
        case OutputSegment::Kind::kSigmoid:
          for (std::size_t j = 0; j < seg.width; ++j) {
            const double y = yrow[at + j];
            grow[at + j] *= y * (1.0 - y);
          }
          break;
        case OutputSegment::Kind::kTanh:
          for (std::size_t j = 0; j < seg.width; ++j) {
            const double y = yrow[at + j];
            grow[at + j] *= 1.0 - y * y;
          }
          break;
        case OutputSegment::Kind::kIdentity:
          break;
      }
      at += seg.width;
    }
  }
}

}  // namespace netshare::ml
