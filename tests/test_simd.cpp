// Sweeps of the vector bodies (DESIGN.md §10): the register tiles of every
// product kernel against the ml::reference oracles (built without the
// kernel TU's -march=native, so each comparison is a vector body against a
// scalar chain) over ragged and empty shapes that reach the 16-column and
// 4-column tiles and the one-column tail, at 1 and 3 threads; and the
// transcendentals' vectorized loops (exp, sigmoid, tanh, softmax) against
// their per-element bodies on special and ragged inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/matrix.hpp"

namespace netshare::ml {
namespace {

// Strict bitwise comparison: memcmp, not double ==, so that even a -0.0
// versus +0.0 divergence (a reduction-order tell) fails the test.
void expect_bitwise(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (got.size() == 0) return;  // memcmp may not take an empty vector's null
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.size() * sizeof(double)),
            0)
      << what << ": vector body diverged from serial reference";
}

// --- property sweep: ragged + empty shapes vs reference --------------------

// m x k x n shapes: empty ones, ragged tails 1..17, primes, the edges of the
// 16-column and 4-column tiles and the one-column tail, then randomized
// ragged sizes 0-40 and 1-70.
std::vector<std::array<std::size_t, 3>> ragged_shapes() {
  std::vector<std::array<std::size_t, 3>> shapes = {
      {0, 4, 6},   {4, 0, 6},   {4, 6, 0},    {0, 0, 0},    {1, 1, 1},
      {0, 0, 5},   {0, 5, 7},   {5, 0, 7},    {5, 7, 0},    {1, 17, 1},
      {2, 3, 5},   {7, 11, 13}, {17, 17, 17}, {3, 1, 31},   {13, 29, 37},
      {9, 16, 33}, {5, 8, 32},  {6, 64, 8},   {11, 5, 16},  {4, 7, 41},
      {23, 13, 64}, {8, 31, 24},
  };
  Rng rng(606);
  for (int i = 0; i < 30; ++i) {
    shapes.push_back({static_cast<std::size_t>(rng.uniform_int(0, 40)),
                      static_cast<std::size_t>(rng.uniform_int(0, 40)),
                      static_cast<std::size_t>(rng.uniform_int(0, 40))});
  }
  Rng wide(424242);
  for (int i = 0; i < 24; ++i) {
    shapes.push_back({static_cast<std::size_t>(wide.uniform_int(1, 70)),
                      static_cast<std::size_t>(wide.uniform_int(1, 70)),
                      static_cast<std::size_t>(wide.uniform_int(1, 70))});
  }
  return shapes;
}

TEST(Simd, PropertySweepRaggedAndEmptyShapesMatchReference) {
  Rng rng(606);
  Matrix c(2, 2, 42.0);  // wrong shape on purpose: kernels must reshape
  for (const auto& [m, k, n] : ragged_shapes()) {
    Matrix a = Matrix::randn(m, k, rng);
    Matrix b = Matrix::randn(k, n, rng);
    Matrix at = Matrix::randn(k, m, rng);
    Matrix bt = Matrix::randn(n, k, rng);
    for (auto* mat : {&a, &b, &at, &bt}) {  // exact zeros, as in ReLU output
      for (auto& v : mat->data()) {
        if (rng.bernoulli(0.2)) v = 0.0;
      }
    }
    // Fused variants against their unfused compositions on the reference.
    const Matrix bias = Matrix::randn(1, n, rng);
    Matrix want_bias = reference::matmul(a, b);
    add_row_broadcast_inplace(want_bias, bias);
    const Matrix acc0 = Matrix::randn(m, n, rng);
    Matrix want_acc = acc0;
    want_acc += reference::matmul_trans_a(at, b);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      kernels::KernelConfig cfg;
      cfg.threads = threads;
      kernels::ConfigOverride guard(cfg);
      SCOPED_TRACE("shape=" + std::to_string(m) + "x" + std::to_string(k) +
                   "x" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      kernels::matmul_into(a, b, c);
      expect_bitwise(c, reference::matmul(a, b), "matmul_into");
      kernels::matmul_trans_a_into(at, b, c);
      expect_bitwise(c, reference::matmul_trans_a(at, b),
                     "matmul_trans_a_into");
      kernels::matmul_trans_b_into(a, bt, c);
      expect_bitwise(c, reference::matmul_trans_b(a, bt),
                     "matmul_trans_b_into");
      kernels::matmul_bias_into(a, b, bias, c);
      expect_bitwise(c, want_bias, "matmul_bias_into");
      Matrix acc = acc0;
      kernels::matmul_trans_a_acc_into(at, b, acc);
      expect_bitwise(acc, want_acc, "matmul_trans_a_acc_into");
    }
  }
}

// --- transcendentals: vectorized loops vs per-element bodies ------------

// Inputs that walk every branch of the repo-owned exp, sigmoid and tanh:
// signed zeros, infinities, NaNs (quiet and signalling, both signs, a
// payload), subnormals, both sides of every clamp and threshold, then
// random values at several scales.
std::vector<double> transcendental_inputs() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v = {
      0.0, -0.0, inf, -inf, nan, -nan,
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),
      std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),  // sNaN
      5e-324, -5e-324, 1e-310, -1e-310, DBL_MIN, -DBL_MIN, 1e-200, -1e-20,
      709.78, 709.782712893384, 709.7827128933841, 709.8, 709.81, 710.0,
      1e300, DBL_MAX, -708.39, -708.4, -745.13, -745.1332191019411,
      -745.14, -746.0, -746.5, -800.0, -1e300, -DBL_MAX,
      36.0, -36.0, std::nextafter(36.0, inf), -std::nextafter(36.0, inf),
      37.5, -37.5, 40.0, -40.0, 19.06, -19.06, 20.0, -20.0,
      std::nextafter(20.0, inf), 25.0, -25.0, 0.34657359027997264,
      -0.34657359027997264, 0.17328679513998632, -0.17328679513998632};
  Rng rng(9005);
  for (const double scale : {1e-8, 0.1, 1.0, 5.0, 30.0, 300.0}) {
    for (int i = 0; i < 61; ++i) v.push_back(rng.normal() * scale);
  }
  for (int i = 0; i < 61; ++i) v.push_back(rng.uniform(-760.0, 760.0));
  return v;
}

void expect_same_bits(const double* got, const double* want, std::size_t n,
                      const std::string& what) {
  if (n == 0) return;  // memcmp may not take an empty vector's null
  EXPECT_EQ(std::memcmp(got, want, n * sizeof(double)), 0)
      << what << ": the vectorized map diverged from the per-element body";
}

using ElementwiseKernel = void (*)(const double*, double*, std::size_t);

// sigmoid per element with its tails spelled out: E − E² below −36 and
// 1 − E above 36 (E = exp(−|x|)), x + x for NaN, one-element calls only for
// the main path in between.
void sigmoid_reference(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    double e = 0.0;
    if (v != v) {
      y[i] = v + v;
    } else if (v < -36.0) {
      kernels::exp_into(&v, &e, 1);
      y[i] = e - e * e;
    } else if (v > 36.0) {
      const double minus = -v;
      kernels::exp_into(&minus, &e, 1);
      y[i] = 1.0 - e;
    } else {
      kernels::sigmoid_into(&v, &y[i], 1);
    }
  }
}

// One call per element: the loop body alone, never the vectorized path
// (and for sigmoid never the block scan either).
std::vector<double> per_element(ElementwiseKernel fn, const double* x,
                                std::size_t n) {
  std::vector<double> y(n);
  if (fn == kernels::sigmoid_into) {
    sigmoid_reference(x, y.data(), n);
    return y;
  }
  for (std::size_t i = 0; i < n; ++i) fn(x + i, &y[i], 1);
  return y;
}

// The transcendentals have one body each, a loop the compiler vectorizes
// (sigmoid's in two passes: a scan for lanes past ±36 or NaN, then the
// clamp-free main path or, in a block with such a lane, the tail formulas).
// Whole-vector calls must match the per-element body bitwise, at every
// length and offset, in place, and with a tail lane on either side of each
// 64-element sigmoid block boundary.
TEST(Simd, TranscendentalsMatchPerElementBodyBitwise) {
  const std::vector<double> in = transcendental_inputs();
  const std::pair<const char*, ElementwiseKernel> fns[] = {
      {"exp", kernels::exp_into},
      {"sigmoid", kernels::sigmoid_into},
      {"tanh", kernels::tanh_into}};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 20; ++n) lengths.push_back(n);  // every tail
  for (const std::size_t n : {37u, 64u, 129u}) lengths.push_back(n);
  lengths.push_back(in.size() - 3);
  // In-range values with one tail lane at each side of a block boundary.
  Rng rng(31);
  std::vector<double> edges(200);
  for (double& v : edges) v = rng.normal() * 4.0;
  edges[63] = 50.0;
  edges[128] = -std::numeric_limits<double>::infinity();
  edges[191] = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [name, fn] : fns) {
    for (const std::size_t n : lengths) {
      for (const std::size_t off : {0u, 1u, 3u}) {  // unaligned starts
        const std::string what = std::string(name) + " n=" +
                                 std::to_string(n) +
                                 " off=" + std::to_string(off);
        const std::vector<double> want = per_element(fn, in.data() + off, n);
        std::vector<double> got(n);
        std::vector<double> in_place(in.begin() + off,
                                     in.begin() + off + n);
        fn(in.data() + off, got.data(), n);
        expect_same_bits(got.data(), want.data(), n, what);
        fn(in_place.data(), in_place.data(), n);
        expect_same_bits(in_place.data(), want.data(), n,
                         what + " in place");
      }
    }
    std::vector<double> got = edges;
    fn(got.data(), got.data(), got.size());
    expect_same_bits(got.data(),
                     per_element(fn, edges.data(), edges.size()).data(),
                     edges.size(), std::string(name) + " edges");
  }
  // Softmax over ragged segments of the same inputs against the max
  // shift, per-element exp, ascending sum and divides.
  for (std::size_t at = 0, n = 1; at + n <= in.size();
       at += n, n = n % 11 + 1) {
    std::vector<double> got(in.begin() + at, in.begin() + at + n);
    std::vector<double> shifted = got;
    const double mx = *std::max_element(shifted.begin(), shifted.end());
    for (double& v : shifted) v -= mx;
    std::vector<double> want =
        per_element(kernels::exp_into, shifted.data(), n);
    double sum = 0.0;
    for (const double v : want) sum += v;
    for (double& v : want) v /= sum;
    kernels::softmax_inplace(got.data(), n);
    expect_same_bits(got.data(), want.data(), n,
                     "softmax at=" + std::to_string(at) +
                         " n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace netshare::ml
