#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace netshare::ml {

void Module::forward_into(const Matrix&, Matrix&) const {
  throw std::logic_error("Module::forward_into: no forward-only path");
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
  sum_rows_into(grad_out, gb_);
  b_.grad += gb_;
}

const Matrix& Linear::backward_input(const Matrix& grad_out) {
  kernels::matmul_trans_b_into(grad_out, w_.value, gx_);
  return gx_;
}

const Matrix& ActivationLayer::forward(const Matrix& x) {
  if (kind_ == Activation::kRelu || kind_ == Activation::kLeakyRelu) {
    x_cache_ = x;  // only the relu family needs pre-activations in backward
  }
  y_cache_ = x;
  activate(y_cache_);
  return y_cache_;
}

void ActivationLayer::forward_into(const Matrix& x, Matrix& y) const {
  y = x;
  activate(y);
}

void ActivationLayer::activate(Matrix& y) const {
  switch (kind_) {
    case Activation::kRelu:
      for (auto& v : y.data()) v = v > 0 ? v : 0.0;
      break;
    case Activation::kLeakyRelu:
      for (auto& v : y.data()) v = v > 0 ? v : slope_ * v;
      break;
    case Activation::kTanh:
      tanh_inplace(y);
      break;
    case Activation::kSigmoid:
      sigmoid_inplace(y);
      break;
    case Activation::kIdentity:
      break;
  }
}

const Matrix& ActivationLayer::backward(const Matrix& grad_out) {
  Matrix& g = g_;
  g = grad_out;
  switch (kind_) {
    case Activation::kRelu:
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (x_cache_.data()[i] <= 0) g.data()[i] = 0.0;
      }
      break;
    case Activation::kLeakyRelu:
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (x_cache_.data()[i] <= 0) g.data()[i] *= slope_;
      }
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double y = y_cache_.data()[i];
        g.data()[i] *= 1.0 - y * y;
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double y = y_cache_.data()[i];
        g.data()[i] *= y * (1.0 - y);
      }
      break;
    case Activation::kIdentity:
      break;
  }
  return g_;
}

Matrix softmax_rows(const Matrix& logits) {
  Matrix y = logits;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double* row = y.row_ptr(i);
    const double mx = *std::max_element(row, row + y.cols());
    double sum = 0.0;
    for (std::size_t j = 0; j < y.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (std::size_t j = 0; j < y.cols(); ++j) row[j] /= sum;
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
  activate(y_cache_);
  return y_cache_;
}

void MixedHead::forward_into(const Matrix& x, Matrix& y) const {
  if (x.cols() != width()) {
    throw std::invalid_argument("MixedHead::forward_into: width mismatch");
  }
  y = x;
  activate(y);
}

void MixedHead::activate(Matrix& y) const {
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double* row = y.row_ptr(i);
    std::size_t at = 0;
    for (const auto& seg : segments_) {
      switch (seg.kind) {
        case OutputSegment::Kind::kSoftmax: {
          const double mx = *std::max_element(row + at, row + at + seg.width);
          double sum = 0.0;
          for (std::size_t j = 0; j < seg.width; ++j) {
            row[at + j] = std::exp(row[at + j] - mx);
            sum += row[at + j];
          }
          for (std::size_t j = 0; j < seg.width; ++j) row[at + j] /= sum;
          break;
        }
        case OutputSegment::Kind::kSigmoid:
          for (std::size_t j = 0; j < seg.width; ++j) {
            row[at + j] = 1.0 / (1.0 + std::exp(-row[at + j]));
          }
          break;
        case OutputSegment::Kind::kTanh:
          for (std::size_t j = 0; j < seg.width; ++j) {
            row[at + j] = std::tanh(row[at + j]);
          }
          break;
        case OutputSegment::Kind::kIdentity:
          break;
      }
      at += seg.width;
    }
  }
}

const Matrix& MixedHead::backward(const Matrix& grad_out) {
  Matrix& g = g_;
  g = grad_out;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    double* grow = g.row_ptr(i);
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
  return g;
}

}  // namespace netshare::ml
