// Sweeps of the vector bodies (DESIGN.md §10): the register tiles of every
// product kernel against the ml::reference oracles (built without the
// kernel TU's -march=native, so each comparison is a vector body against a
// scalar chain) over ragged and empty shapes that reach every column tile
// of either build geometry (48, 32, 16 and 8 columns of 64-byte vectors,
// or 16 of 32-byte ones; then 4 columns and the one-column tail) and both
// sides of each 64-long k-block; and the transcendentals' vectorized loops
// (exp, sigmoid, tanh, softmax) against their per-element bodies on
// special and ragged inputs.
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

// Output widths at the edges of every column tile: 111 = 48+48+8+4+3,
// 127 = 48+48+16+8+4+3 and 47 = 32+8+4+3 between them reach each tile of
// the 64-byte geometry; the rest sit on a tile edge or one column either
// side of it, and 96, 144 and 185 are critic widths.
constexpr std::size_t kEdgeWidths[] = {7,  8,  9,  15, 16, 17,  31,  32,  33,
                                       47, 48, 49, 96, 97, 111, 127, 144, 185};
// Inner lengths either side of one and two 64-long k-blocks, and the
// critic input layer's 185.
constexpr std::size_t kEdgeInner[] = {63, 64, 65, 128, 129, 185};

// m x k x n shapes: empty ones, ragged tails 1..17, primes, every edge
// width against every edge inner length, then randomized ragged sizes
// 0-40 and 1-70.
std::vector<std::array<std::size_t, 3>> ragged_shapes() {
  std::vector<std::array<std::size_t, 3>> shapes = {
      {0, 4, 6},   {4, 0, 6},   {4, 6, 0},    {0, 0, 0},    {1, 1, 1},
      {0, 0, 5},   {0, 5, 7},   {5, 0, 7},    {5, 7, 0},    {1, 17, 1},
      {2, 3, 5},   {7, 11, 13}, {17, 17, 17}, {3, 1, 31},   {13, 29, 37},
      {9, 16, 33}, {5, 8, 32},  {6, 64, 8},   {11, 5, 16},  {4, 7, 41},
      {23, 13, 64}, {8, 31, 24},
  };
  for (const std::size_t n : kEdgeWidths) {
    for (const std::size_t k : kEdgeInner) shapes.push_back({3, k, n});
    shapes.push_back({2, 5, n});
  }
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
    SCOPED_TRACE("shape=" + std::to_string(m) + "x" + std::to_string(k) +
                 "x" + std::to_string(n));
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

// The conditioned GRU's products past one k-block: the cond projection
// P = cond·Wx[cond rows] (matmul_rows from row b_row0 > 0, K = 105 as the
// ugr16 cond) and the gate seeded with it, whose x·Wx chain of 70 or 129
// step columns crosses block edges, against the unseeded unfused gate on
// [cond | x] on the reference kernels, whole-batch and in row ranges.
TEST(Simd, SeededGateAndRowBlockProductAcrossKBlocks) {
  struct GateShape {
    std::size_t rows, step, cond, hidden, gate;
  };
  const GateShape shapes[] = {{7, 70, 105, 48, 48},
                              {5, 129, 105, 65, 111},
                              {9, 65, 66, 33, 17}};
  Rng rng(1185);
  for (const GateShape& g : shapes) {
    const std::size_t R = g.rows, S = g.step, A = g.cond, G = g.gate;
    SCOPED_TRACE("gate rows=" + std::to_string(R) + " step=" +
                 std::to_string(S) + " cond=" + std::to_string(A) +
                 " hidden=" + std::to_string(g.hidden) +
                 " width=" + std::to_string(G));
    const Matrix x = Matrix::randn(R, S, rng);
    const Matrix cond = Matrix::randn(R, A, rng);
    const Matrix wx = Matrix::randn(S + A, G, rng);  // step rows first
    const Matrix h = Matrix::randn(R, g.hidden, rng);
    const Matrix wh = Matrix::randn(g.hidden, G, rng);
    const Matrix bias = Matrix::randn(1, G, rng);
    Matrix xc(R, A + S), wx_cf(A + S, G), wx_cond(A, G);
    for (std::size_t i = 0; i < R; ++i) {
      std::copy(cond.row_ptr(i), cond.row_ptr(i) + A, xc.row_ptr(i));
      std::copy(x.row_ptr(i), x.row_ptr(i) + S, xc.row_ptr(i) + A);
    }
    std::copy(wx.row_ptr(S), wx.row_ptr(S + A), wx_cf.row_ptr(0));
    std::copy(wx.row_ptr(0), wx.row_ptr(S), wx_cf.row_ptr(A));
    std::copy(wx.row_ptr(S), wx.row_ptr(S + A), wx_cond.row_ptr(0));

    Matrix seed(R, G);
    kernels::matmul_rows(cond, wx, S, seed, 0, 2);
    kernels::matmul_rows(cond, wx, S, seed, 2, R);
    expect_bitwise(seed, reference::matmul(cond, wx_cond),
                   "matmul_rows from b_row0 > 0");
    for (const auto act : {kernels::GateAct::kSigmoid,
                           kernels::GateAct::kTanh}) {
      Matrix want = reference::matmul(xc, wx_cf);
      want += reference::matmul(h, wh);
      add_row_broadcast_inplace(want, bias);
      if (act == kernels::GateAct::kSigmoid) {
        sigmoid_inplace(want);
      } else {
        tanh_inplace(want);
      }
      Matrix scratch, got;
      kernels::gru_gate_into(x, wx, h, wh, bias, act, scratch, got, &seed);
      expect_bitwise(got, want, "seeded gru_gate_into");
      Matrix rows(R, G);
      kernels::gru_gate_rows(x, wx, h, wh, bias, act, rows, 0, 3, &seed);
      kernels::gru_gate_rows(x, wx, h, wh, bias, act, rows, 3, R, &seed);
      expect_bitwise(rows, want, "seeded gru_gate_rows");
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
