// Tests for the ML substrate, including finite-difference gradient checks of
// every differentiable module (Linear, activations, MixedHead, MLP, GRU).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>

#include "ml/gru.hpp"
#include "ml/kernels.hpp"
#include "ml/loss.hpp"
#include "ml/mlp.hpp"
#include "ml/optim.hpp"
#include "ml/serialize.hpp"

namespace netshare::ml {
namespace {

TEST(Matrix, BasicOpsAndShapes) {
  Matrix a(2, 3, 1.0);
  Matrix b(2, 3, 2.0);
  Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c(1, 2), 6.0);
  EXPECT_THROW(a += Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, MatmulMatchesHandComputation) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, TransposedMatmulsAgreeWithExplicitTranspose) {
  Rng rng(7);
  const Matrix a = Matrix::randn(4, 3, rng);
  const Matrix b = Matrix::randn(4, 5, rng);
  const Matrix ta = matmul_trans_a(a, b);  // a^T b: [3,5]
  const Matrix ref_a = matmul(transpose(a), b);
  for (std::size_t i = 0; i < ta.rows(); ++i) {
    for (std::size_t j = 0; j < ta.cols(); ++j) {
      EXPECT_NEAR(ta(i, j), ref_a(i, j), 1e-12);
    }
  }
  const Matrix x = Matrix::randn(2, 3, rng);
  const Matrix y = Matrix::randn(4, 3, rng);
  const Matrix xy = matmul_trans_b(x, y);  // x y^T: [2,4]
  const Matrix ref_xy = matmul(x, transpose(y));
  for (std::size_t i = 0; i < xy.rows(); ++i) {
    for (std::size_t j = 0; j < xy.cols(); ++j) {
      EXPECT_NEAR(xy(i, j), ref_xy(i, j), 1e-12);
    }
  }
}

TEST(Matrix, ConcatSplitRoundTrip) {
  Rng rng(3);
  Matrix a = Matrix::randn(3, 2, rng);
  Matrix b = Matrix::randn(3, 4, rng);
  const Matrix c = concat_cols(a, b);
  auto [l, r] = split_cols(c, 2);
  EXPECT_EQ(l, a);
  EXPECT_EQ(r, b);
}

TEST(Matrix, StackSliceRoundTrip) {
  Rng rng(4);
  std::vector<Matrix> parts{Matrix::randn(2, 3, rng), Matrix::randn(2, 3, rng)};
  const Matrix stacked = stack_rows(parts);
  EXPECT_EQ(slice_rows(stacked, 0, 2), parts[0]);
  EXPECT_EQ(slice_rows(stacked, 2, 4), parts[1]);
}

// --- finite-difference gradient checking helpers ---------------------------

// Checks dLoss/dInput of a module against central differences, where
// Loss = sum(output .* coeff) for a fixed random coeff matrix.
void check_input_gradient(Module& module, const Matrix& x, Rng& rng,
                          double tol = 1e-5) {
  const Matrix y0 = module.forward(x);
  Matrix coeff = Matrix::randn(y0.rows(), y0.cols(), rng);
  const Matrix gin = module.backward(coeff);

  const double h = 1e-6;
  for (std::size_t idx = 0; idx < x.size(); idx += std::max<std::size_t>(1, x.size() / 23)) {
    Matrix xp = x, xm = x;
    xp.data()[idx] += h;
    xm.data()[idx] -= h;
    double fp = 0.0, fm = 0.0;
    {
      const Matrix yp = module.forward(xp);
      for (std::size_t i = 0; i < yp.size(); ++i) fp += yp.data()[i] * coeff.data()[i];
      const Matrix ym = module.forward(xm);
      for (std::size_t i = 0; i < ym.size(); ++i) fm += ym.data()[i] * coeff.data()[i];
    }
    const double numeric = (fp - fm) / (2 * h);
    EXPECT_NEAR(gin.data()[idx], numeric, tol) << "input index " << idx;
  }
}

// Checks dLoss/dParam for every parameter of a module.
void check_param_gradients(Module& module, const Matrix& x, Rng& rng,
                           double tol = 1e-5) {
  const Matrix y0 = module.forward(x);
  Matrix coeff = Matrix::randn(y0.rows(), y0.cols(), rng);
  module.zero_grad();
  module.backward(coeff);

  for (Parameter* p : module.parameters()) {
    for (std::size_t idx = 0; idx < p->value.size();
         idx += std::max<std::size_t>(1, p->value.size() / 11)) {
      const double h = 1e-6;
      const double orig = p->value.data()[idx];
      p->value.data()[idx] = orig + h;
      const Matrix yp = module.forward(x);
      p->value.data()[idx] = orig - h;
      const Matrix ym = module.forward(x);
      p->value.data()[idx] = orig;
      double fp = 0.0, fm = 0.0;
      for (std::size_t i = 0; i < yp.size(); ++i) {
        fp += yp.data()[i] * coeff.data()[i];
        fm += ym.data()[i] * coeff.data()[i];
      }
      const double numeric = (fp - fm) / (2 * h);
      EXPECT_NEAR(p->grad.data()[idx], numeric, tol) << "param index " << idx;
    }
  }
}

TEST(GradCheck, LinearInputAndParams) {
  Rng rng(11);
  Linear lin(4, 3, rng);
  const Matrix x = Matrix::randn(5, 4, rng);
  check_input_gradient(lin, x, rng);
  check_param_gradients(lin, x, rng);
}

TEST(GradCheck, Activations) {
  Rng rng(12);
  for (Activation act : {Activation::kLeakyRelu, Activation::kTanh,
                         Activation::kSigmoid, Activation::kIdentity}) {
    ActivationLayer layer(act);
    const Matrix x = Matrix::randn(4, 6, rng);
    check_input_gradient(layer, x, rng);
  }
}

TEST(GradCheck, MixedHeadAllSegmentKinds) {
  Rng rng(13);
  MixedHead head({{OutputSegment::Kind::kSoftmax, 3},
                  {OutputSegment::Kind::kSigmoid, 2},
                  {OutputSegment::Kind::kTanh, 1},
                  {OutputSegment::Kind::kIdentity, 2}});
  const Matrix x = Matrix::randn(4, 8, rng);
  check_input_gradient(head, x, rng);
}

// MixedHead activates a row block run by run (adjacent sigmoid or tanh
// segments merged, narrow runs gathered through a scratch, softmax's exp in
// one call per block). Each element must come out bitwise as the per-row,
// per-segment calls made it before, on the attribute and feature layouts
// of the caida (bit-encoded ports) and ugr16 (IP2Vec ports) presets, tanh
// runs, softmax widths 1/2/3/12, identity, empty and wider-than-scratch
// segments, over ragged row ranges, on both kernel tiers; so must the
// backward pass.
TEST(MixedHead, BlockActivationMatchesPerRowSegments) {
  using K = OutputSegment::Kind;
  const std::vector<std::vector<OutputSegment>> layouts = {
      {{K::kSigmoid, 32}, {K::kSigmoid, 32}, {K::kSigmoid, 16},
       {K::kSigmoid, 16}, {K::kSoftmax, 3}, {K::kSigmoid, 11}},  // caida attr
      {{K::kSigmoid, 32}, {K::kSigmoid, 32}, {K::kSigmoid, 4},
       {K::kSigmoid, 4}, {K::kSoftmax, 3}, {K::kSigmoid, 11}},   // ugr16 attr
      {{K::kSigmoid, 1}, {K::kSigmoid, 1}, {K::kSigmoid, 1},
       {K::kSoftmax, 2}},                                         // caida feat
      {{K::kSigmoid, 1}, {K::kSigmoid, 1}, {K::kSigmoid, 1},
       {K::kSigmoid, 1}, {K::kSoftmax, 12}, {K::kSoftmax, 2}},    // ugr16 feat
      {{K::kTanh, 2}, {K::kTanh, 3}, {K::kSigmoid, 1}, {K::kTanh, 1},
       {K::kTanh, 4}},
      {{K::kSoftmax, 1}, {K::kIdentity, 2}, {K::kSoftmax, 2},
       {K::kSigmoid, 0}, {K::kSoftmax, 3}, {K::kIdentity, 1},
       {K::kSoftmax, 12}, {K::kSoftmax, 0}},
      {{K::kSigmoid, 5}},
      {{K::kTanh, 1100}, {K::kSigmoid, 2}, {K::kSoftmax, 3}},
  };
  const std::size_t kRows = 300;
  const std::size_t cuts[] = {0, 1, 17, 150, 299, kRows};
  Rng rng(4321);
  for (const auto& segs : layouts) {
    MixedHead head(segs);
    const std::size_t W = head.width();
    Matrix x = Matrix::randn(kRows, W, rng, 4.0);
    for (std::size_t i = 0; i < x.size(); i += 37) x.data()[i] = 40.0;
    for (std::size_t i = 5; i < x.size(); i += 53) x.data()[i] = -50.0;
    x.data()[W / 2] = std::numeric_limits<double>::quiet_NaN();
    const Matrix g = Matrix::randn(kRows, W, rng);
    // The per-row, per-segment reference.
    Matrix want = x, want_g = g;
    for (std::size_t i = 0; i < kRows; ++i) {
      std::size_t at = 0;
      for (const OutputSegment& seg : segs) {
        double* v = want.row_ptr(i) + at;
        double* gv = want_g.row_ptr(i) + at;
        switch (seg.kind) {
          case K::kSoftmax: {
            kernels::softmax_inplace(v, seg.width);
            double dot = 0.0;
            for (std::size_t j = 0; j < seg.width; ++j) dot += gv[j] * v[j];
            for (std::size_t j = 0; j < seg.width; ++j) {
              gv[j] = v[j] * (gv[j] - dot);
            }
            break;
          }
          case K::kSigmoid:
            kernels::sigmoid_into(v, v, seg.width);
            for (std::size_t j = 0; j < seg.width; ++j) {
              gv[j] *= v[j] * (1.0 - v[j]);
            }
            break;
          case K::kTanh:
            kernels::tanh_into(v, v, seg.width);
            for (std::size_t j = 0; j < seg.width; ++j) {
              gv[j] *= 1.0 - v[j] * v[j];
            }
            break;
          case K::kIdentity:
            break;
        }
        at += seg.width;
      }
    }
    const auto same = [](const Matrix& got, const Matrix& w,
                         const std::string& what) {
      ASSERT_EQ(got.size(), w.size()) << what;
      EXPECT_EQ(std::memcmp(got.data().data(), w.data().data(),
                            got.size() * sizeof(double)),
                0)
          << what;
    };
    for (const auto tier :
         {kernels::SimdTier::kScalar, kernels::SimdTier::kAvx2}) {
      kernels::KernelConfig cfg;
      cfg.simd = tier;
      kernels::ConfigOverride guard(cfg);
      const std::string what = "layout of width " + std::to_string(W) +
                               ", tier " +
                               std::to_string(static_cast<int>(tier));
      same(head.forward(x), want, "forward, " + what);
      same(head.backward(g), want_g, "backward, " + what);
      Matrix y;
      head.forward_into(x, y);
      same(y, want, "forward_into, " + what);
      Matrix rows_into(kRows, W);
      head.prepare_forward(kRows, W);
      for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
        head.forward_rows(x, cuts[c], cuts[c + 1]);
        head.forward_rows_into(x, rows_into, cuts[c], cuts[c + 1]);
      }
      same(head.output(), want, "forward_rows, " + what);
      same(rows_into, want, "forward_rows_into, " + what);
      head.prepare_backward();
      for (std::size_t c = std::size(cuts) - 1; c > 0; --c) {
        head.backward_input_rows(g, cuts[c - 1], cuts[c]);
      }
      same(head.input_grad(), want_g, "backward_input_rows, " + what);
    }
  }
}

TEST(GradCheck, MlpEndToEnd) {
  Rng rng(14);
  Mlp mlp({5, 8, 7, 2}, Activation::kTanh, rng);
  const Matrix x = Matrix::randn(3, 5, rng);
  check_input_gradient(mlp, x, rng, 1e-4);
  check_param_gradients(mlp, x, rng, 1e-4);
}

// A conditioned GRU's loss f = Σ_t <h_t, coeff_t> on (xs, cond), and the
// central differences of f against its cond inputs and every weight: the
// gradients backward() returns and accumulates must match them.
struct GruCase {
  std::vector<Matrix> xs, coeff;
  Matrix cond;
};

GruCase make_gru_case(Gru& gru, std::size_t T, std::size_t B, Rng& rng) {
  GruCase c;
  for (std::size_t t = 0; t < T; ++t) {
    c.xs.push_back(Matrix::randn(B, gru.step_dim(), rng));
    c.coeff.push_back(Matrix::randn(B, gru.hidden_dim(), rng));
  }
  c.cond = Matrix::randn(B, gru.cond_dim(), rng);
  return c;
}

double gru_loss(Gru& gru, const GruCase& c, const Matrix& cond) {
  const auto& hs = gru.forward(c.xs, cond);
  double f = 0.0;
  for (std::size_t t = 0; t < hs.size(); ++t) {
    for (std::size_t i = 0; i < hs[t].size(); ++i) {
      f += hs[t].data()[i] * c.coeff[t].data()[i];
    }
  }
  return f;
}

// `stride` samples every stride-th entry; 1 checks them all.
void check_gru_gradients(Gru& gru, const GruCase& c, std::size_t stride,
                         double tol) {
  gru.forward(c.xs, c.cond);
  gru.zero_grad();
  const Matrix cond_grad = gru.backward(c.coeff);
  ASSERT_EQ(cond_grad.rows(), c.cond.rows());
  ASSERT_EQ(cond_grad.cols(), gru.cond_dim());
  const double h = 1e-6;
  for (std::size_t idx = 0; idx < c.cond.size(); idx += stride) {
    Matrix cp = c.cond, cm = c.cond;
    cp.data()[idx] += h;
    cm.data()[idx] -= h;
    const double numeric =
        (gru_loss(gru, c, cp) - gru_loss(gru, c, cm)) / (2 * h);
    EXPECT_NEAR(cond_grad.data()[idx], numeric, tol) << "cond " << idx;
  }
  gru.forward(c.xs, c.cond);
  gru.zero_grad();
  gru.backward(c.coeff);
  std::size_t k = 0;
  for (Parameter* p : gru.parameters()) {
    for (std::size_t idx = 0; idx < p->value.size(); idx += stride) {
      const double orig = p->value.data()[idx];
      p->value.data()[idx] = orig + h;
      const double fp = gru_loss(gru, c, c.cond);
      p->value.data()[idx] = orig - h;
      const double fm = gru_loss(gru, c, c.cond);
      p->value.data()[idx] = orig;
      EXPECT_NEAR(p->grad.data()[idx], (fp - fm) / (2 * h), tol)
          << "parameter " << k << " idx " << idx;
    }
    ++k;
  }
}

TEST(GradCheck, GruBptt) {
  Rng rng(15);
  Gru gru(3, 0, 4, rng);  // the plain GRU
  const GruCase c = make_gru_case(gru, 3, 2, rng);
  check_gru_gradients(gru, c, 1, 1e-5);
}

// Every entry of every weight, Wx's cond rows included, and of the cond
// input: the cond rows' gradient comes from one product against the gate
// gradients summed over t, the cond gradient likewise.
TEST(GradCheck, ConditionedGruBptt) {
  Rng rng(17);
  Gru gru(3, 4, 5, rng);
  const GruCase c = make_gru_case(gru, 4, 3, rng);
  check_gru_gradients(gru, c, 1, 1e-5);
}

// Batched BPTT at a kernel budget of 4: same finite-difference check, with
// Gru::backward's gradient tasks fanned out over the shared executor (the
// per-module checks above run at the default budget).
TEST(GradCheck, GruBpttBatchedThroughParallelKernels) {
  kernels::KernelConfig kcfg;
  kcfg.threads = 4;
  kernels::ConfigOverride kernel_guard(kcfg);

  Rng rng(21);
  Gru gru(5, 3, 7, rng);
  const GruCase c = make_gru_case(gru, 4, 8, rng);
  check_gru_gradients(gru, c, 7, 1e-4);
}

// The batched forward/backward must also be bitwise independent of the
// kernel thread count (the GRU is the deepest matmul consumer).
TEST(GradCheck, GruBatchedForwardBackwardBitwiseStableAcrossThreads) {
  auto run = [](std::size_t threads) {
    kernels::KernelConfig kcfg;
    kcfg.threads = threads;
    kernels::ConfigOverride kernel_guard(kcfg);
    Rng rng(22);
    Gru gru(4, 2, 9, rng);
    const GruCase c = make_gru_case(gru, 5, 16, rng);
    const auto& hs = gru.forward(c.xs, c.cond);
    std::vector<double> flat;
    for (const auto& hmat : hs) {
      flat.insert(flat.end(), hmat.data().begin(), hmat.data().end());
    }
    gru.zero_grad();
    const Matrix& cond_grad = gru.backward(c.coeff);
    flat.insert(flat.end(), cond_grad.data().begin(), cond_grad.data().end());
    for (Parameter* p : gru.parameters()) {
      flat.insert(flat.end(), p->grad.data().begin(), p->grad.data().end());
    }
    return flat;
  };
  const std::vector<double> serial = run(1);
  for (std::size_t threads : {2u, 5u, 8u}) {
    const std::vector<double> parallel = run(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// The row-sliced passes (ml/layers.hpp) fill whole-batch buffers a range at
// a time; in any slicing, and with weight gradients split by output rows,
// the values are the whole-batch passes', bitwise. The GRU runs plain and
// conditioned; Wx's row split then falls inside its step rows, on their
// boundary with the cond rows, and inside the cond rows.
TEST(RowSliced, GruAndMlpMatchWholeBatchPasses) {
  const std::size_t B = 13, T = 4, in = 6, H = 5;
  const std::pair<std::size_t, std::size_t> slices[] = {{0, 4}, {4, 5},
                                                        {5, 13}};
  Rng rng(41);
  std::vector<Matrix> xs, grads;
  for (std::size_t t = 0; t < T; ++t) {
    xs.push_back(Matrix::randn(B, in, rng));
    grads.push_back(Matrix::randn(B, H, rng));
  }
  for (const std::size_t cond_dim : {0u, 3u, 6u, 12u}) {
    SCOPED_TRACE("cond_dim " + std::to_string(cond_dim));
    const Matrix cond = Matrix::randn(B, cond_dim, rng);
    Rng ra(7), rb(7);
    Gru whole(in, cond_dim, H, ra), sliced(in, cond_dim, H, rb);
    const std::vector<Matrix> hs = whole.forward(xs, cond);
    whole.zero_grad();
    const Matrix cond_grad = whole.backward(grads);
    sliced.prepare_forward(T, B);
    for (const auto& [r0, r1] : slices) sliced.forward_rows(xs, cond, r0, r1);
    sliced.prepare_backward();
    for (const auto& [r0, r1] : slices) sliced.backward_rows(grads, r0, r1);
    sliced.zero_grad();
    for (std::size_t k = 0; k < Gru::kGradTasks; ++k) {
      const std::size_t rows = sliced.parameters()[k]->grad.rows();
      // Weights in two output-row parts, biases whole.
      sliced.grad_task(k, 0, rows / 2);
      sliced.grad_task(k, rows / 2, rows);
    }
    for (std::size_t t = 0; t < T; ++t) {
      EXPECT_TRUE(bitwise_equal(sliced.hidden()[t], hs[t])) << "h " << t;
    }
    EXPECT_TRUE(bitwise_equal(sliced.cond_grad(), cond_grad));
    for (std::size_t p = 0; p < Gru::kGradTasks; ++p) {
      EXPECT_TRUE(bitwise_equal(sliced.parameters()[p]->grad,
                                whole.parameters()[p]->grad))
          << "parameter " << p;
    }
  }

  const std::vector<OutputSegment> head = {{OutputSegment::Kind::kSoftmax, 3},
                                           {OutputSegment::Kind::kTanh, 1}};
  Rng ma(9), mb(9);
  Mlp mw({in, 8, 7, 4}, Activation::kLeakyRelu, head, ma);
  Mlp ms({in, 8, 7, 4}, Activation::kLeakyRelu, head, mb);
  const Matrix& x = xs[0];
  const Matrix seed = Matrix::randn(B, 4, rng);
  const Matrix y = mw.forward(x);
  mw.zero_grad();
  const Matrix gx = mw.backward(seed);
  ms.prepare_forward(B, in);
  ms.prepare_backward();
  std::vector<Matrix> bufs;
  ms.prepare_forward_into(B, in, bufs);
  for (const auto& [r0, r1] : slices) {
    ms.forward_rows(x, r0, r1);
    ms.forward_rows_into(x, bufs, r0, r1);
  }
  for (const auto& [r0, r1] : slices) ms.backward_input_rows(seed, r0, r1);
  ms.zero_grad();
  for (std::size_t k = 0; k < ms.grad_tasks(); ++k) {
    const std::size_t rows = ms.parameters()[k]->grad.rows();
    ms.grad_task(k, seed, 0, rows);
  }
  EXPECT_TRUE(bitwise_equal(ms.output(), y));
  EXPECT_TRUE(bitwise_equal(bufs.back(), y));
  EXPECT_TRUE(bitwise_equal(ms.input_grad(), gx));
  for (std::size_t p = 0; p < ms.parameters().size(); ++p) {
    EXPECT_TRUE(bitwise_equal(ms.parameters()[p]->grad,
                              mw.parameters()[p]->grad))
        << "mlp parameter " << p;
  }
}

// The forward-only twins read only the weights and write caller-owned
// scratch, with the same kernels in the same order as forward().
TEST(ForwardInto, MatchesForwardBitwise) {
  Rng rng(31);
  const Matrix x = Matrix::randn(7, 6, rng);
  Matrix y;
  Linear lin(6, 5, rng);
  lin.forward_into(x, y);
  EXPECT_TRUE(bitwise_equal(y, lin.forward(x)));
  for (Activation kind : {Activation::kRelu, Activation::kLeakyRelu,
                          Activation::kTanh, Activation::kSigmoid}) {
    ActivationLayer act(kind);
    act.forward_into(x, y);
    EXPECT_TRUE(bitwise_equal(y, act.forward(x)));
  }
  MixedHead head({{OutputSegment::Kind::kSoftmax, 3},
                  {OutputSegment::Kind::kSigmoid, 2},
                  {OutputSegment::Kind::kTanh, 1}});
  head.forward_into(x, y);
  EXPECT_TRUE(bitwise_equal(y, head.forward(x)));
  Mlp mlp({6, 8, 8, 4}, Activation::kRelu,
          {{OutputSegment::Kind::kSoftmax, 3},
           {OutputSegment::Kind::kSigmoid, 1}},
          rng);
  std::vector<Matrix> bufs;
  EXPECT_TRUE(bitwise_equal(mlp.forward_into(x, bufs), mlp.forward(x)));

  // One GRU step from a zero state equals the first step of the unroll, and
  // leaves a pending forward()/backward() pair's caches alone.
  Rng ra(5), rb(5);
  Gru gru(4, 2, 4, ra), twin(4, 2, 4, rb);
  const Matrix step0 = Matrix::randn(7, 4, rng);
  const Matrix cond = Matrix::randn(7, 2, rng);
  const std::vector<Matrix> xs = {step0, Matrix::randn(7, 4, rng)};
  const Matrix h1 = gru.forward(xs, cond)[0];
  twin.forward(xs, cond);
  Gru::GateRows proj;
  gru.project_cond_into(cond, proj);
  Gru::StepScratch scratch;
  Matrix h_out;
  gru.step_into(step0, proj, Matrix::zeros(7, 4), h_out, scratch);
  EXPECT_TRUE(bitwise_equal(h_out, h1));
  const std::vector<Matrix> grads(2, Matrix(7, 4, 1.0));
  EXPECT_TRUE(bitwise_equal(gru.backward(grads), twin.backward(grads)));
  for (std::size_t p = 0; p < gru.parameters().size(); ++p) {
    EXPECT_TRUE(bitwise_equal(gru.parameters()[p]->grad,
                              twin.parameters()[p]->grad))
        << "parameter " << p;
  }
}

TEST(Losses, MseGradientMatchesFiniteDifference) {
  Rng rng(16);
  const Matrix pred = Matrix::randn(3, 2, rng);
  const Matrix target = Matrix::randn(3, 2, rng);
  Matrix grad;
  mse_loss(pred, target, &grad);
  const double h = 1e-6;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    Matrix p = pred;
    p.data()[i] += h;
    const double fp = mse_loss(p, target, nullptr);
    p.data()[i] -= 2 * h;
    const double fm = mse_loss(p, target, nullptr);
    EXPECT_NEAR(grad.data()[i], (fp - fm) / (2 * h), 1e-6);
  }
}

TEST(Losses, BceWithLogitsIsStableAtExtremes) {
  Matrix logits(1, 2);
  logits(0, 0) = 500.0;
  logits(0, 1) = -500.0;
  Matrix target(1, 2);
  target(0, 0) = 1.0;
  target(0, 1) = 0.0;
  Matrix grad;
  const double loss = bce_with_logits_loss(logits, target, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(Losses, SoftmaxCrossEntropyGradCheck) {
  Rng rng(17);
  const Matrix logits = Matrix::randn(4, 3, rng);
  const std::vector<std::size_t> labels{0, 2, 1, 2};
  Matrix grad;
  softmax_cross_entropy_loss(logits, labels, &grad);
  const double h = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix l = logits;
    l.data()[i] += h;
    const double fp = softmax_cross_entropy_loss(l, labels, nullptr);
    l.data()[i] -= 2 * h;
    const double fm = softmax_cross_entropy_loss(l, labels, nullptr);
    EXPECT_NEAR(grad.data()[i], (fp - fm) / (2 * h), 1e-6);
  }
}

TEST(Optim, SgdDecreasesQuadratic) {
  // Minimize ||w||^2 by hand-fed gradients.
  Parameter w(Matrix(1, 3, 2.0));
  Sgd opt({&w}, 0.1);
  for (int i = 0; i < 100; ++i) {
    w.zero_grad();
    for (std::size_t j = 0; j < 3; ++j) w.grad(0, j) = 2.0 * w.value(0, j);
    opt.step();
  }
  EXPECT_LT(frobenius_norm(w.value), 1e-5);
}

TEST(Optim, AdamDecreasesQuadratic) {
  Parameter w(Matrix(1, 3, 2.0));
  Adam opt({&w}, 0.05);
  for (int i = 0; i < 400; ++i) {
    w.zero_grad();
    for (std::size_t j = 0; j < 3; ++j) w.grad(0, j) = 2.0 * w.value(0, j);
    opt.step();
  }
  EXPECT_LT(frobenius_norm(w.value), 1e-3);
}

TEST(Optim, ClipGradNormScalesDown) {
  Parameter w(Matrix(1, 4, 0.0));
  w.grad.fill(3.0);  // norm = 6
  const double pre = clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(pre, 6.0, 1e-12);
  double sq = 0.0;
  for (double g : w.grad.data()) sq += g * g;
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-9);
}

TEST(Optim, ClipGradNormNoOpWhenSmall) {
  Parameter w(Matrix(1, 4, 0.0));
  w.grad.fill(0.1);
  clip_grad_norm({&w}, 10.0);
  EXPECT_DOUBLE_EQ(w.grad(0, 0), 0.1);
}

TEST(Optim, WeightClippingClampsValues) {
  Parameter w(Matrix(2, 2, 0.0));
  w.value(0, 0) = 5.0;
  w.value(1, 1) = -5.0;
  clip_weights({&w}, 0.01);
  EXPECT_DOUBLE_EQ(w.value(0, 0), 0.01);
  EXPECT_DOUBLE_EQ(w.value(1, 1), -0.01);
}

TEST(Serialize, SnapshotRestoreRoundTrip) {
  Rng rng(18);
  Mlp a({3, 5, 2}, Activation::kRelu, rng);
  Mlp b({3, 5, 2}, Activation::kRelu, rng);
  const auto snap = snapshot_parameters(a.parameters());
  restore_parameters(b.parameters(), snap);
  const Matrix x = Matrix::randn(2, 3, rng);
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(Serialize, RestoreRejectsWrongSize) {
  Rng rng(19);
  Mlp a({3, 5, 2}, Activation::kRelu, rng);
  std::vector<double> tiny(3, 0.0);
  EXPECT_THROW(restore_parameters(a.parameters(), tiny), std::invalid_argument);
}

TEST(Serialize, FileRoundTrip) {
  const std::vector<double> snap{1.0, -2.5, 3.25};
  const std::string path = "/tmp/netshare_test_snapshot.bin";
  save_snapshot_file(snap, path);
  EXPECT_EQ(load_snapshot_file(path), snap);
}

TEST(Serialize, SaveRejectsUnwritablePath) {
  EXPECT_THROW(
      save_snapshot_file({1.0}, "/nonexistent_dir/netshare_snapshot.bin"),
      std::runtime_error);
}

TEST(Serialize, LoadRejectsMissingFile) {
  EXPECT_THROW(load_snapshot_file("/tmp/netshare_test_snapshot_missing.bin"),
               std::runtime_error);
}

TEST(Serialize, LoadRejectsTruncatedPayload) {
  // A valid header promising 4 doubles but only 2 present: read must fail
  // loudly, never return a half-restored snapshot.
  const std::string path = "/tmp/netshare_test_snapshot_truncated.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t n = 4;
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    const double payload[2] = {1.0, 2.0};
    out.write(reinterpret_cast<const char*>(payload), sizeof payload);
  }
  EXPECT_THROW(load_snapshot_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsEmptyFile) {
  const std::string path = "/tmp/netshare_test_snapshot_empty.bin";
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_THROW(load_snapshot_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RestoreRejectsSnapshotLargerThanModel) {
  Rng rng(23);
  Mlp a({3, 5, 2}, Activation::kRelu, rng);
  std::vector<double> snap = snapshot_parameters(a.parameters());
  snap.push_back(0.0);  // one trailing extra weight
  EXPECT_THROW(restore_parameters(a.parameters(), snap),
               std::invalid_argument);
}

TEST(Serialize, RestoredFileSnapshotDrivesIdenticalModel) {
  Rng rng(29);
  Mlp a({4, 6, 3}, Activation::kRelu, rng);
  Rng rng2(31);
  Mlp b({4, 6, 3}, Activation::kRelu, rng2);
  const std::string path = "/tmp/netshare_test_snapshot_model.bin";
  save_snapshot_file(snapshot_parameters(a.parameters()), path);
  restore_parameters(b.parameters(), load_snapshot_file(path));
  Rng xr(37);
  const Matrix x = Matrix::randn(2, 4, xr);
  EXPECT_EQ(a.forward(x), b.forward(x));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netshare::ml
