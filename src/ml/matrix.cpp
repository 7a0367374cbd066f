#include "ml/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace netshare::ml {

namespace {
void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

std::atomic<std::uint64_t> g_matrix_allocs{0};
}  // namespace

namespace alloc_counter {
void reset() { g_matrix_allocs.store(0, std::memory_order_relaxed); }
std::uint64_t count() { return g_matrix_allocs.load(std::memory_order_relaxed); }
}  // namespace alloc_counter

namespace detail {
void note_matrix_alloc() {
  g_matrix_allocs.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  const std::size_t cap = data_.capacity();
  data_ = other.data_;  // reuses existing storage when capacity suffices
  if (data_.capacity() != cap) detail::note_matrix_alloc();
  return *this;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  const std::size_t cap = data_.capacity();
  data_.resize(rows * cols);
  if (data_.capacity() != cap) detail::note_matrix_alloc();
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, Rng& rng,
                     double scale) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.normal() * scale;
  return m;
}

Matrix Matrix::uniform(std::size_t rows, std::size_t cols, Rng& rng, double lo,
                       double hi) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(lo, hi);
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_, "Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_, "Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  kernels::matmul_into(a, b, c);
  return c;
}

Matrix matmul_trans_a(const Matrix& a, const Matrix& b) {
  Matrix c;
  kernels::matmul_trans_a_into(a, b, c);
  return c;
}

Matrix matmul_trans_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  kernels::matmul_trans_b_into(a, b, c);
  return c;
}

namespace reference {

Matrix matmul(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // ikj order for cache-friendly access to b and c rows.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      const double* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix matmul_trans_a(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows(), "matmul_trans_a: row mismatch");
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.row_ptr(k);
    const double* brow = b.row_ptr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      double* crow = c.row_ptr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix matmul_trans_b(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.cols(), "matmul_trans_b: col mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    double* crow = c.row_ptr(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row_ptr(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
  return c;
}

}  // namespace reference

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "hadamard: shape mismatch");
  Matrix c = a;
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] *= b.data()[i];
  return c;
}

void hadamard_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "hadamard_into: shape mismatch");
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = a.data()[i] * b.data()[i];
  }
}

void copy_rows_into(const Matrix& src, Matrix& dst, std::size_t r0,
                    std::size_t r1) {
  require(src.cols() == dst.cols() && r0 <= r1 && r1 <= src.rows() &&
              r1 <= dst.rows(),
          "copy_rows_into: shape mismatch");
  std::copy(src.row_ptr(r0), src.row_ptr(r1), dst.row_ptr(r0));
}

Matrix add_row_broadcast(const Matrix& a, const Matrix& row) {
  Matrix c = a;
  add_row_broadcast_inplace(c, row);
  return c;
}

void add_row_broadcast_inplace(Matrix& a, const Matrix& row) {
  require(row.rows() == 1 && row.cols() == a.cols(),
          "add_row_broadcast: row must be 1 x cols(a)");
  const double* r = row.row_ptr(0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* arow = a.row_ptr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) arow[j] += r[j];
  }
}

Matrix sum_rows(const Matrix& a) {
  Matrix s(1, a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) s(0, j) += arow[j];
  }
  return s;
}

void sum_rows_into(const Matrix& a, Matrix& out) {
  out.resize(1, a.cols());
  out.fill(0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) out(0, j) += arow[j];
  }
}

Matrix concat_cols(const Matrix& a, const Matrix& b) {
  Matrix c;
  concat_cols_into(a, b, c);
  return c;
}

void concat_cols_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.rows() == b.rows(), "concat_cols: row mismatch");
  out.resize(a.rows(), a.cols() + b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* crow = out.row_ptr(i);
    const double* arow = a.row_ptr(i);
    const double* brow = b.row_ptr(i);
    std::copy(arow, arow + a.cols(), crow);
    std::copy(brow, brow + b.cols(), crow + a.cols());
  }
}

std::pair<Matrix, Matrix> split_cols(const Matrix& a, std::size_t k) {
  require(k <= a.cols(), "split_cols: k out of range");
  Matrix left(a.rows(), k), right(a.rows(), a.cols() - k);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_ptr(i);
    std::copy(arow, arow + k, left.row_ptr(i));
    std::copy(arow + k, arow + a.cols(), right.row_ptr(i));
  }
  return {std::move(left), std::move(right)};
}

Matrix slice_rows(const Matrix& a, std::size_t begin, std::size_t end) {
  Matrix c;
  slice_rows_into(a, begin, end, c);
  return c;
}

void slice_rows_into(const Matrix& a, std::size_t begin, std::size_t end,
                     Matrix& out) {
  require(begin <= end && end <= a.rows(), "slice_rows: range out of bounds");
  out.resize(end - begin, a.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const double* arow = a.row_ptr(i);
    std::copy(arow, arow + a.cols(), out.row_ptr(i - begin));
  }
}

Matrix take_row(const Matrix& a, std::size_t r) { return slice_rows(a, r, r + 1); }

Matrix stack_rows(const std::vector<Matrix>& rows) {
  Matrix c;
  stack_rows_into(rows, c);
  return c;
}

void stack_rows_into(const std::vector<Matrix>& rows, Matrix& out) {
  require(!rows.empty(), "stack_rows: empty input");
  std::size_t total = 0;
  for (const auto& r : rows) {
    require(r.cols() == rows[0].cols(), "stack_rows: col mismatch");
    total += r.rows();
  }
  out.resize(total, rows[0].cols());
  std::size_t at = 0;
  for (const auto& r : rows) {
    for (std::size_t i = 0; i < r.rows(); ++i) {
      const double* row = r.row_ptr(i);
      std::copy(row, row + r.cols(), out.row_ptr(at++));
    }
  }
}

void stack_rows_into(std::initializer_list<const Matrix*> rows, Matrix& out) {
  require(rows.size() > 0, "stack_rows: empty input");
  const std::size_t cols = (*rows.begin())->cols();
  std::size_t total = 0;
  for (const Matrix* r : rows) {
    require(r->cols() == cols, "stack_rows: col mismatch");
    total += r->rows();
  }
  out.resize(total, cols);
  std::size_t at = 0;
  for (const Matrix* r : rows) {
    for (std::size_t i = 0; i < r->rows(); ++i) {
      const double* row = r->row_ptr(i);
      std::copy(row, row + cols, out.row_ptr(at++));
    }
  }
}

void sigmoid_inplace(Matrix& a) {
  kernels::sigmoid_into(a.data().data(), a.data().data(), a.size());
}

void tanh_inplace(Matrix& a) {
  kernels::tanh_into(a.data().data(), a.data().data(), a.size());
}

void randn_fill(Matrix& m, Rng& rng, double scale) {
  for (auto& v : m.data()) v = rng.normal() * scale;
}

double frobenius_norm(const Matrix& a) {
  double s = 0.0;
  for (double v : a.data()) s += v * v;
  return std::sqrt(s);
}

double mean(const Matrix& a) {
  if (a.empty()) return 0.0;
  double s = 0.0;
  for (double v : a.data()) s += v;
  return s / static_cast<double>(a.size());
}

}  // namespace netshare::ml
