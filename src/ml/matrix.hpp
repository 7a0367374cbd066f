// Dense row-major matrix over double — the numeric workhorse for the GAN
// substrate. Minimal by design: exactly the operations the models need.
//
// Allocation discipline (DESIGN.md §6): the training hot path is built from
// the destination-passing `*_into` / `*_inplace` variants below plus
// `Matrix::resize`, which reshapes without reallocating whenever the
// existing capacity suffices. Every heap (re)allocation of a matrix element
// buffer is counted by the process-wide instrumentation in
// `ml::alloc_counter`, which is how the zero-allocation steady-state
// contract is measured rather than asserted.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace netshare::ml {

// Process-wide matrix-buffer allocation counter. Counts one event per heap
// (re)allocation performed on behalf of a Matrix element buffer —
// construction with nonzero size, a copy that grows capacity, or a resize
// past capacity. Relaxed atomics: always compiled in (the increment only
// runs on actual allocation events, which the hot path has none of after
// warm-up), safe to read from tests running threaded kernels.
namespace alloc_counter {
void reset();
std::uint64_t count();
}  // namespace alloc_counter

namespace detail {
void note_matrix_alloc();
}  // namespace detail

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if (!data_.empty()) detail::note_matrix_alloc();
  }

  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
    if (!data_.empty()) detail::note_matrix_alloc();
  }
  Matrix(Matrix&&) noexcept = default;
  // Copy assignment reuses the destination's capacity when it suffices (the
  // steady-state case for layer caches); only a capacity growth counts as an
  // allocation.
  Matrix& operator=(const Matrix& other);
  Matrix& operator=(Matrix&&) noexcept = default;

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0);
  }
  // Gaussian init with given scale (He/Xavier handled by callers).
  static Matrix randn(std::size_t rows, std::size_t cols, Rng& rng,
                      double scale = 1.0);
  static Matrix uniform(std::size_t rows, std::size_t cols, Rng& rng,
                        double lo, double hi);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Reshapes to rows x cols, reusing the existing buffer when capacity
  // allows (no allocation — the point of the pooled hot path). The element
  // values are unspecified afterwards unless the shape is unchanged; callers
  // overwrite or fill().
  void resize(std::size_t rows, std::size_t cols);

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const { return data_.data() + r * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// C = A (r×k) * B (k×c). Dispatches to the blocked (optionally parallel)
// kernel layer in ml/kernels.hpp; results are bitwise identical to the
// reference kernels below for every thread count.
Matrix matmul(const Matrix& a, const Matrix& b);
// C = Aᵀ (k×r→r×k)ᵀ * B — i.e. matmul(transpose(a), b) without materializing.
Matrix matmul_trans_a(const Matrix& a, const Matrix& b);
// C = A * Bᵀ
Matrix matmul_trans_b(const Matrix& a, const Matrix& b);

// Serial triple-loop kernels, kept verbatim from the original implementation.
// They are the bitwise ground truth that tests/test_kernels.cpp checks the
// blocked parallel kernels against and the baseline bench/micro_kernels.cpp
// measures speedups over. Not for production use.
namespace reference {
Matrix matmul(const Matrix& a, const Matrix& b);
Matrix matmul_trans_a(const Matrix& a, const Matrix& b);
Matrix matmul_trans_b(const Matrix& a, const Matrix& b);
}  // namespace reference

Matrix transpose(const Matrix& a);
// Adds a 1×c row vector to every row of a (bias broadcast).
Matrix add_row_broadcast(const Matrix& a, const Matrix& row);
// In-place variant — same values, no copy (hot path of Linear/GRU forward).
void add_row_broadcast_inplace(Matrix& a, const Matrix& row);
// Sums rows into a 1×c vector (bias gradient).
Matrix sum_rows(const Matrix& a);
// Horizontal concatenation [a | b].
Matrix concat_cols(const Matrix& a, const Matrix& b);
// Splits columns at k: returns ([:, :k], [:, k:]).
std::pair<Matrix, Matrix> split_cols(const Matrix& a, std::size_t k);
// Extracts rows [begin, end).
Matrix slice_rows(const Matrix& a, std::size_t begin, std::size_t end);
// Stacks 1×c rows into an n×c matrix.
Matrix stack_rows(const std::vector<Matrix>& rows);

// --- destination-passing variants (zero-allocation steady state) ----------
// Each writes the same values, in the same element order, as its allocating
// counterpart above; `out` is reshaped via Matrix::resize (capacity-reusing)
// and must not alias any input.

// Rows [r0, r1) of src into the same rows of dst, which must already have
// src's column count and at least r1 rows.
void copy_rows_into(const Matrix& src, Matrix& dst, std::size_t r0,
                    std::size_t r1);
void sum_rows_into(const Matrix& a, Matrix& out);
void concat_cols_into(const Matrix& a, const Matrix& b, Matrix& out);
void slice_rows_into(const Matrix& a, std::size_t begin, std::size_t end,
                     Matrix& out);
void stack_rows_into(const std::vector<Matrix>& rows, Matrix& out);
// Row-stacks an explicit list of blocks (e.g. the critic's [real; fake;
// interpolate1; interpolate2] batch) without building a vector of copies.
void stack_rows_into(std::initializer_list<const Matrix*> rows, Matrix& out);

// Elementwise activations: kernels::sigmoid_into / tanh_into over the whole
// matrix, the same bodies the layers and the fused gate epilogue run, so
// every path rounds identically.
void sigmoid_inplace(Matrix& a);
void tanh_inplace(Matrix& a);

// Overwrites m with standard normal draws scaled by `scale`, in the same
// row-major draw order as Matrix::randn, without allocating.
void randn_fill(Matrix& m, Rng& rng, double scale = 1.0);

double frobenius_norm(const Matrix& a);
double mean(const Matrix& a);

}  // namespace netshare::ml
